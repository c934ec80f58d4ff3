//! Regression tests for per-thread checker state across launches.
//!
//! With the persistent execution pool, the OS threads that run blocks
//! survive from one kernel launch to the next (and so does the
//! calling thread under sequential dispatch). The per-thread agent
//! installed for race attribution therefore must be cleared at launch
//! *boundaries* — including abnormal ones: a launch that unwinds
//! mid-block used to rely on its worker threads dying to discard the
//! agent. If the state leaked, a later launch (possibly an untracked
//! one) on the same OS thread would have its accesses attributed to
//! an agent of the previous launch — cross-launch race and lint
//! attribution.
//!
//! The block-local cost tally is the same kind of state: opened per
//! block on the OS thread that runs it, it must fold what the block
//! charged and close even when the block unwinds, or the pooled
//! thread would keep swallowing later charges to that device.

#![allow(clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::check::{self, AccessKind, Agent};
use ecl_gpusim::observe::{Launch, Observer, Wants};
use ecl_gpusim::pool::{dispatch, with_policy, DispatchPolicy};
use ecl_gpusim::{launch_flat_named, CostKind, Device, LaunchConfig};

/// Records every attributed access together with the index of the
/// tracked launch it arrived in; tracks every launch of its device when
/// `track` is set, none otherwise.
#[derive(Default)]
struct Recorder {
    track: bool,
    tracked_launches: AtomicU64,
    accesses: Mutex<Vec<(u64, Agent)>>,
}

impl Observer for Recorder {
    fn wants(&self) -> Wants {
        Wants { accesses: true, ..Wants::default() }
    }
    fn launch_begin(&self, _launch: &Launch<'_>) -> bool {
        self.tracked_launches.fetch_add(1, Ordering::SeqCst);
        self.track
    }
    fn access(&self, _addr: usize, _size: usize, _kind: AccessKind, agent: Option<Agent>) {
        if let Some(agent) = agent {
            let launch = self.tracked_launches.load(Ordering::SeqCst);
            self.accesses.lock().unwrap().push((launch, agent));
        }
    }
}

/// One scenario: a tracked launch that panics mid-block, then an
/// untracked launch, then a tracked launch — all reusing the same OS
/// threads (the calling thread under sequential dispatch, the pooled
/// workers otherwise).
fn exercise(policy: DispatchPolicy) {
    with_policy(policy, || {
        let tracked_dev = Device::test_small();
        let other_dev = Device::test_small();
        let cells = atomic_u32_array(8, |_| 0);
        let rec = Arc::new(Recorder { track: true, ..Recorder::default() });
        let _attached = tracked_dev.observe(rec.clone());
        // Sees the other device's accesses without tracking its launches.
        let bystander = Arc::new(Recorder::default());
        let _bystander = other_dev.observe(bystander.clone());

        // Tracked launch 1 unwinds after per-lane agents were
        // installed. Before the pool, the worker threads died here and
        // took the stale agent with them; now the launch-boundary
        // guard must do it.
        let lanes_run = AtomicU64::new(0);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            launch_flat_named(&tracked_dev, "reuse.panicking", LaunchConfig::new(2, 2), |t| {
                cells[t.global].store(1, t.hooks);
                tracked_dev.charge(CostKind::ThreadWork, 1);
                lanes_run.fetch_add(1, Ordering::SeqCst);
                if t.lane == 1 {
                    panic!("die mid-launch");
                }
            });
        }));
        assert!(panicked.is_err(), "launch must propagate the block panic");
        assert!(
            check::current_agent().is_none(),
            "agent must be cleared while unwinding out of a launch"
        );
        // Every block that ran panicked, and each folded what it had
        // charged before unwinding (one worker stops at the first
        // panicking block, several drain the grid).
        assert_eq!(
            tracked_dev.cost().units(CostKind::ThreadWork),
            lanes_run.load(Ordering::SeqCst),
            "a panicking block lost its charges ({policy:?})",
        );
        // No scope stayed open on the threads those blocks ran on:
        // charges made there outside any block land in the device at
        // once instead of in a leaked block-local tally.
        let before = tracked_dev.cost().units(CostKind::Atomic);
        dispatch(8, |_| tracked_dev.charge(CostKind::Atomic, 1));
        assert_eq!(
            tracked_dev.cost().units(CostKind::Atomic),
            before + 8,
            "a block-local tally leaked past an unwinding block ({policy:?})",
        );

        // An *untracked* launch (different device) reusing the same
        // threads: none of its accesses may carry an agent. A leaked
        // agent from launch 1 would attribute them.
        launch_flat_named(&other_dev, "reuse.untracked", LaunchConfig::new(2, 2), |t| {
            cells[t.global].store(2, t.hooks);
        });
        assert!(
            bystander.accesses.lock().unwrap().is_empty(),
            "untracked launch leaked attributed accesses ({policy:?})",
        );

        // A second tracked launch with a *smaller* grid: every access
        // it produces must carry one of its own agents, not a stale
        // agent of launch 1's larger grid.
        launch_flat_named(&tracked_dev, "reuse.tracked", LaunchConfig::new(1, 2), |t| {
            cells[t.global].store(3, t.hooks);
        });
        let accesses = rec.accesses.lock().unwrap();
        let second: Vec<&(u64, Agent)> = accesses.iter().filter(|(l, _)| *l == 2).collect();
        assert_eq!(second.len(), 2, "launch 2 stores: {accesses:?}");
        for (_, agent) in &second {
            assert_eq!(agent.block, 0, "cross-launch agent attribution: {agent}");
            assert!(agent.lane < 2, "cross-launch agent attribution: {agent}");
        }
    });
}

#[test]
fn thread_reuse_does_not_leak_agents_across_launches() {
    exercise(DispatchPolicy::sequential());
    exercise(DispatchPolicy::pooled(4));
    exercise(DispatchPolicy { grain: Some(1), ..DispatchPolicy::pooled(2) });
}
