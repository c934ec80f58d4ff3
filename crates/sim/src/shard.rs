//! Shard-context propagation: which simulated device ("shard") of a
//! multi-pool run the calling thread is currently working for.
//!
//! `ecl-shard` models one GPU per shard: every shard gets its own
//! [`crate::Device`] and issues kernel launches through the ordinary
//! launch primitives. Those primitives attach the ambient shard id to
//! every profile sample ([`ecl_profiling::LaunchSample::shard`]), so the
//! profiling, observability, and tracing layers distinguish per-shard
//! series without any shard-specific plumbing in kernel code.
//!
//! The mechanism mirrors `ecl-obs`'s request context: a thread-local
//! cell read with one load ([`current`]), an RAII guard
//! ([`ShardGuard::enter`]) that restores the previous value on drop
//! (including panic unwinds), and a trace marker
//! (`EventKind::ShardCtx`) emitted on every context *switch* so
//! per-thread event streams stay attributable after the fact. Shard
//! id 0 doubles as "single-pool run": plain (non-sharded) execution
//! never enters a guard and reports shard 0 everywhere, keeping
//! single-pool output unchanged.

use std::cell::Cell;

use ecl_trace::EventKind;

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// The shard id the calling thread is currently working for
/// (0 = shard 0, which is also the single-pool default).
#[inline]
pub fn current() -> u32 {
    CURRENT.with(Cell::get)
}

/// Emits the trace marker for a shard switch: payload = shard id + 1
/// so "no shard entered" (0) is distinguishable from "entered shard
/// 0" (1). One relaxed load when tracing is off.
#[inline]
fn mark(shard_plus_one: u32) {
    ecl_trace::sink::emit(EventKind::ShardCtx, u32::MAX, 0, shard_plus_one);
}

/// RAII scope that sets the calling thread's shard context, restoring
/// the previous value (and re-marking the trace stream) on drop.
pub struct ShardGuard {
    prev: u32,
    prev_entered: bool,
}

thread_local! {
    /// Whether the thread is inside any guard (distinguishes ambient
    /// shard 0 from an explicitly entered shard 0 for trace markers).
    static ENTERED: Cell<bool> = const { Cell::new(false) };
}

impl ShardGuard {
    /// Enters `shard` as the thread's current shard.
    pub fn enter(shard: u32) -> ShardGuard {
        let prev = CURRENT.with(|c| c.replace(shard));
        let prev_entered = ENTERED.with(|c| c.replace(true));
        if !prev_entered || prev != shard {
            mark(shard + 1);
        }
        ShardGuard { prev, prev_entered }
    }
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let cur = CURRENT.with(|c| c.replace(self.prev));
        let was_entered = ENTERED.with(|c| c.replace(self.prev_entered));
        debug_assert!(was_entered, "ShardGuard dropped outside its scope");
        if !self.prev_entered {
            mark(0);
        } else if cur != self.prev {
            mark(self.prev + 1);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn default_is_shard_zero() {
        assert_eq!(current(), 0);
    }

    #[test]
    fn guard_nests_and_restores() {
        {
            let _a = ShardGuard::enter(2);
            assert_eq!(current(), 2);
            {
                let _b = ShardGuard::enter(5);
                assert_eq!(current(), 5);
            }
            assert_eq!(current(), 2);
        }
        assert_eq!(current(), 0);
    }

    #[test]
    fn guard_restores_across_panic() {
        let _outer = ShardGuard::enter(1);
        let r = std::panic::catch_unwind(|| {
            let _inner = ShardGuard::enter(3);
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(current(), 1);
    }

    #[test]
    fn switches_emit_trace_markers() {
        let _serial = crate::lock_global_sinks();
        let tracer = std::sync::Arc::new(ecl_trace::Tracer::new(ecl_trace::TracerConfig {
            slots: 2,
            events_per_slot: 64,
            clock: ecl_trace::ClockMode::Logical,
        }));
        ecl_trace::sink::install(std::sync::Arc::clone(&tracer));
        {
            let _g = ShardGuard::enter(0);
            // Re-entering the same shard is not a switch: no marker.
            let _h = ShardGuard::enter(0);
        }
        ecl_trace::sink::uninstall();
        let snap = tracer.snapshot();
        let marks: Vec<_> = snap.of_kind(EventKind::ShardCtx).collect();
        assert_eq!(marks.len(), 2, "enter + restore: {marks:?}");
        assert_eq!(marks[0].payload, 1, "entered shard 0 encodes as 1");
        assert_eq!(marks[1].payload, 0, "restore to no-shard encodes as 0");
    }
}
