//! The tracer as an observer: [`Tracer`] implements
//! [`ecl_gpusim::observe::Observer`], turning the simulator's launch,
//! block, atomic, phase, round, context and finding hooks into events.
//!
//! [`install`] / [`uninstall`] keep one tracer in the process default
//! observer set ([`observe::defaults`]), which every device created
//! afterwards starts from: installing replaces the tracer installed
//! before (it keeps its recorded events). To trace one device only,
//! attach a tracer to it ([`ecl_gpusim::Device::observe`]). On a device
//! with no observers a launch costs one relaxed load, and a counted op
//! tests the block's `Hooks` snapshot, which a kernel's hot loop folds
//! away under `Hooks::unswitch`; the overhead tests in
//! `crates/bench/tests/trace_overhead.rs` hold this to account.

use std::sync::{Arc, Mutex};

use ecl_gpusim::observe::{self, Attached, CtxSwitch, Launch, Observer, Wants};
use ecl_gpusim::{AccessKind, Agent};

use crate::event::EventKind;
use crate::ring::Tracer;

static INSTALLED: Mutex<Option<(Attached<'static>, Arc<Tracer>)>> = Mutex::new(None);

/// Installs `tracer` in the process default set, replacing a tracer
/// installed here before.
pub fn install(tracer: Arc<Tracer>) {
    let mut installed = INSTALLED.lock().unwrap_or_else(|e| e.into_inner());
    let attached = observe::defaults().attach(tracer.clone());
    *installed = Some((attached, tracer));
}

/// Uninstalls the tracer and returns it so the caller can snapshot.
pub fn uninstall() -> Option<Arc<Tracer>> {
    INSTALLED.lock().unwrap_or_else(|e| e.into_inner()).take().map(|(_attached, tracer)| tracer)
}

impl Observer for Tracer {
    fn wants(&self) -> Wants {
        Wants { blocks: true, atomics: true, ..Wants::default() }
    }

    fn launch_begin(&self, launch: &Launch<'_>) -> bool {
        let blocks = launch.cfg.blocks.min(u32::MAX as usize) as u32;
        self.record(EventKind::KernelLaunch, u32::MAX, 0, blocks);
        false
    }

    fn block_begin(&self, block: u32, block_size: usize, _tracked: bool) {
        self.record(EventKind::BlockStart, block, 0, block_size as u32);
    }

    fn block_end(&self, block: u32, block_size: usize, _tracked: bool) {
        self.record(EventKind::BlockEnd, block, 0, block_size as u32);
    }

    fn access(&self, _addr: usize, _size: usize, kind: AccessKind, _agent: Option<Agent>) {
        let kind = match kind {
            AccessKind::Read | AccessKind::Write => return,
            AccessKind::AtomicUpdated => EventKind::AtomicUpdated,
            AccessKind::AtomicNoEffect => EventKind::AtomicNoEffect,
            AccessKind::AtomicCasFailed => EventKind::AtomicCasFailed,
        };
        self.record(kind, u32::MAX, 0, 0);
    }

    fn phase_start(&self, name: &str) {
        self.record(EventKind::PhaseStart, u32::MAX, 0, self.intern(name));
    }

    fn phase_end(&self, name: &str) {
        self.record(EventKind::PhaseEnd, u32::MAX, 0, self.intern(name));
    }

    fn round(&self, n: u32) {
        self.record(EventKind::Round, u32::MAX, 0, n);
    }

    fn context(&self, switch: CtxSwitch) {
        match switch {
            // The id's high half in the block word, its low half in
            // the payload.
            CtxSwitch::Request(req) => {
                self.record(EventKind::ReqCtx, (req >> 32) as u32, 0, req as u32)
            }
            // Shard id + 1, so "no shard" (0) differs from shard 0.
            CtxSwitch::Shard(shard) => {
                self.record(EventKind::ShardCtx, u32::MAX, 0, shard.map_or(0, |s| s + 1))
            }
        }
    }

    fn check_finding(&self, block: u32, rule: u32) {
        self.record(EventKind::CheckFinding, block, 0, rule);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ring::{ClockMode, TracerConfig};
    use ecl_gpusim::ctx::CtxGuard;
    use ecl_gpusim::observe;
    use ecl_gpusim::{atomics::atomic_u32_array, launch_flat_named, Device, LaunchConfig};

    // What is specific here is the event mapping: the hooks one
    // thread drives reach the installed tracer as events, in order,
    // and only while it is installed.
    #[test]
    fn hooks_reach_the_installed_tracer_in_order() {
        let t = Arc::new(Tracer::new(TracerConfig {
            slots: 64,
            events_per_slot: 256,
            clock: ClockMode::Logical,
        }));
        install(Arc::clone(&t));
        // Marks this thread's ring: other tests' threads record into
        // their own rings while the tracer is installed.
        t.record(EventKind::Marker, 0, 0, 0x5EED);
        let cells = atomic_u32_array(1, |_| 5);
        let d = Device::test_small();
        ecl_gpusim::pool::with_policy(ecl_gpusim::DispatchPolicy::sequential(), || {
            observe::phase_span(&d, "p", || {
                launch_flat_named(&d, "t", LaunchConfig::new(1, 1), |t| {
                    cells[0].load(t.hooks); // plain: not traced
                    cells[0].fetch_min(3, None, t.hooks);
                    cells[0].fetch_min(4, None, t.hooks);
                    cells[0].cas(9, 1, None, t.hooks);
                });
            });
        });
        observe::round(&d, 3);
        {
            let _r = CtxGuard::request((7 << 32) | 9);
            let _s = CtxGuard::shard(0);
        }
        observe::check_finding(2, 5);

        let back = uninstall().expect("tracer was installed");
        assert!(Arc::ptr_eq(&back, &t));
        // Detached: a device created now does not reach it.
        observe::round(&Device::test_small(), 100);

        let s = back.snapshot();
        let me = s.of_kind(EventKind::Marker).find(|e| e.payload == 0x5EED).unwrap().thread;
        let mine: Vec<(EventKind, u32, u32)> = s
            .events
            .iter()
            .filter(|e| e.thread == me)
            .map(|e| (EventKind::from_raw(e.kind).unwrap(), e.block, e.payload))
            .collect();
        let p = t.intern("p");
        use EventKind::*;
        assert_eq!(
            mine,
            [
                (Marker, 0, 0x5EED),
                (PhaseStart, u32::MAX, p),
                (KernelLaunch, u32::MAX, 1),
                (BlockStart, 0, 1),
                (AtomicUpdated, u32::MAX, 0),
                (AtomicNoEffect, u32::MAX, 0),
                (AtomicCasFailed, u32::MAX, 0),
                (BlockEnd, 0, 1),
                (PhaseEnd, u32::MAX, p),
                (Round, u32::MAX, 3),
                (ReqCtx, 7, 9),
                (ShardCtx, u32::MAX, 1),
                (ShardCtx, u32::MAX, 0),
                (ReqCtx, 0, 0),
                (CheckFinding, 2, 5),
            ]
        );
    }
}
