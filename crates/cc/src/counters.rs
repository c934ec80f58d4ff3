//! ECL-CC's application-specific counters (§3.2, §6.1.3).

use ecl_profiling::{AtomicTally, GlobalCounter, LogSketch, ProfileMode};

/// Counters embedded in the ECL-CC kernels.
///
/// The init-kernel pair (`vertices_initialized`, `vertices_traversed`)
/// is Table 4; the `representative()` counters are the §3.2 example
/// ("the number of times the function is called, and the number of
/// times the return value is smaller (or greater) than the old
/// representative").
#[derive(Debug)]
pub struct CcCounters {
    mode: ProfileMode,
    /// Vertices assigned an initial label (Table 4, column 1 — equals
    /// |V| and serves as the reference for the traversal count).
    pub vertices_initialized: GlobalCounter,
    /// Neighbors examined while searching for the first smaller
    /// neighbor (Table 4, column 2).
    pub vertices_traversed: GlobalCounter,
    /// Calls to the `representative()` (find) function.
    pub find_calls: GlobalCounter,
    /// Calls whose return value was smaller than the label the caller
    /// had previously observed (progress was made by someone).
    pub find_smaller: GlobalCounter,
    /// Calls whose return value equaled the previously observed label.
    pub find_unchanged: GlobalCounter,
    /// Outcomes of the hooking `atomicCAS` operations.
    pub hook_cas: AtomicTally,
    /// Pointer-jump shortcuts installed by intermediate pointer
    /// jumping inside `representative()`.
    pub pointer_jumps: GlobalCounter,
    /// Per-vertex distribution of neighbors examined by the init scan
    /// — the streaming form of `vertices_traversed`: the total alone
    /// hides whether work is uniform or dominated by a few hubs, the
    /// p99/max of this sketch shows it.
    pub traversal_len: LogSketch,
}

impl CcCounters {
    /// Fresh counters in the given mode.
    pub fn new(mode: ProfileMode) -> Self {
        Self {
            mode,
            vertices_initialized: GlobalCounter::new(),
            vertices_traversed: GlobalCounter::new(),
            find_calls: GlobalCounter::new(),
            find_smaller: GlobalCounter::new(),
            find_unchanged: GlobalCounter::new(),
            hook_cas: AtomicTally::new(),
            pointer_jumps: GlobalCounter::new(),
            traversal_len: LogSketch::new(),
        }
    }

    /// Whether counters record.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// The hook-CAS tally when profiling is on, `None` otherwise (the
    /// counted-atomic wrappers skip recording for `None`).
    #[inline]
    pub fn cas_tally(&self) -> Option<&AtomicTally> {
        if self.enabled() {
            Some(&self.hook_cas)
        } else {
            None
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn enabled_gates_tally_handle() {
        let on = CcCounters::new(ProfileMode::On);
        assert!(on.enabled());
        assert!(on.cas_tally().is_some());
        let off = CcCounters::new(ProfileMode::Off);
        assert!(!off.enabled());
        assert!(off.cas_tally().is_none());
    }

    #[test]
    fn counters_start_zero() {
        let c = CcCounters::new(ProfileMode::On);
        assert_eq!(c.vertices_initialized.get(), 0);
        assert_eq!(c.vertices_traversed.get(), 0);
        assert_eq!(c.find_calls.get(), 0);
        assert_eq!(c.hook_cas.attempted(), 0);
        assert_eq!(c.traversal_len.snapshot().count, 0);
    }

    #[test]
    fn traversal_sketch_total_matches_counter_when_recorded_together() {
        let c = CcCounters::new(ProfileMode::On);
        for len in [0u64, 3, 1, 40] {
            c.traversal_len.record(len);
            for _ in 0..len {
                c.vertices_traversed.inc();
            }
        }
        let snap = c.traversal_len.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, c.vertices_traversed.get());
        assert!(snap.p99 >= 40);
    }
}
