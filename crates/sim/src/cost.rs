//! Deterministic work-based cost model.
//!
//! Measuring wall time of a simulator says little about GPU behavior;
//! the paper's performance arguments are about *work*: idle threads
//! spinning in block-wide loops (ECL-SCC, §6.2.1), unnecessary
//! adjacency traversals (ECL-CC, §6.2.2), and the trade-off between
//! launching excess threads and recomputing launch configurations on
//! the host (ECL-MST, §6.2.3). The cost model charges exactly those
//! categories so speedup tables are deterministic and reproducible.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Categories of charged work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostKind {
    /// A unit of useful per-thread work (e.g. one edge relaxed, one
    /// neighbor examined).
    ThreadWork,
    /// A launched thread that only discovered it had nothing to do
    /// (out-of-range id or failed work condition).
    IdleCheck,
    /// One atomic operation.
    Atomic,
    /// One thread participating in one block-wide synchronization
    /// round (charged per thread per round — the ECL-SCC §6.2.1 cost of
    /// "forcing many idle threads to participate in block-wide
    /// synchronizations").
    BlockSync,
    /// One kernel launch (fixed host+driver overhead).
    KernelLaunch,
    /// One host-side launch reconfiguration (device-to-host readback of
    /// a worklist size before a launch, the ECL-MST §6.2.3 overhead).
    HostReconfig,
}

pub(crate) const NUM_KINDS: usize = 6;

impl CostKind {
    /// Position in [`CostKind::ALL`], and so in every by-kind array.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CostKind::ThreadWork => 0,
            CostKind::IdleCheck => 1,
            CostKind::Atomic => 2,
            CostKind::BlockSync => 3,
            CostKind::KernelLaunch => 4,
            CostKind::HostReconfig => 5,
        }
    }

    /// Stable snake-case name (`thread_work`, …, `host_reconfig`).
    pub fn name(self) -> &'static str {
        match self {
            CostKind::ThreadWork => "thread_work",
            CostKind::IdleCheck => "idle_check",
            CostKind::Atomic => "atomic",
            CostKind::BlockSync => "block_sync",
            CostKind::KernelLaunch => "kernel_launch",
            CostKind::HostReconfig => "host_reconfig",
        }
    }

    /// All kinds, index-ordered.
    pub const ALL: [CostKind; NUM_KINDS] = [
        CostKind::ThreadWork,
        CostKind::IdleCheck,
        CostKind::Atomic,
        CostKind::BlockSync,
        CostKind::KernelLaunch,
        CostKind::HostReconfig,
    ];
}

/// Weights translating unit counts into abstract time. The defaults
/// are order-of-magnitude ratios for a discrete GPU: a kernel launch
/// costs a few microseconds (~thousands of memory-ish operations), an
/// atomic a handful of units, a host round-trip more than a launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Weight of one unit of useful thread work.
    pub thread_work: f64,
    /// Weight of one idle-thread check. Idle threads are cheap on a
    /// GPU (they exit immediately, retiring with the warp) but not
    /// free: they still occupy scheduler slots.
    pub idle_check: f64,
    /// Weight of one atomic operation.
    pub atomic: f64,
    /// Weight of one thread crossing one block-wide barrier.
    pub block_sync: f64,
    /// Weight of one kernel launch.
    pub kernel_launch: f64,
    /// Weight of one host-side reconfiguration round-trip.
    pub host_reconfig: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            thread_work: 1.0,
            idle_check: 0.25,
            atomic: 4.0,
            block_sync: 0.5,
            kernel_launch: 4000.0,
            host_reconfig: 6000.0,
        }
    }
}

impl CostParams {
    /// Weight of `kind`.
    pub fn weight(&self, kind: CostKind) -> f64 {
        match kind {
            CostKind::ThreadWork => self.thread_work,
            CostKind::IdleCheck => self.idle_check,
            CostKind::Atomic => self.atomic,
            CostKind::BlockSync => self.block_sync,
            CostKind::KernelLaunch => self.kernel_launch,
            CostKind::HostReconfig => self.host_reconfig,
        }
    }

    /// Weighted abstract time of `units`, by kind in [`CostKind::ALL`]
    /// order.
    pub fn time_of(&self, units: &[u64; NUM_KINDS]) -> f64 {
        CostKind::ALL.iter().zip(units).map(|(&k, &u)| u as f64 * self.weight(k)).sum()
    }
}

/// Thread-safe per-category unit tallies.
///
/// Charges made while the calling OS thread has this tally's
/// [`BlockScope`] open — the launch layer opens one around every
/// block — are plain adds to a thread-local array that the scope folds
/// in here once, at block end; any other charge is a relaxed atomic
/// add. Reads therefore see retired blocks only, which is every block
/// once the launch has joined.
#[derive(Debug, Default)]
pub struct CostTally {
    units: [AtomicU64; NUM_KINDS],
}

/// The calling OS thread's block-local tally: which [`CostTally`] it
/// stands in for (by address; 0 = none) and the units charged since
/// the scope opened.
struct Local {
    owner: Cell<usize>,
    units: [Cell<u64>; NUM_KINDS],
}

thread_local! {
    static LOCAL: Local = const {
        Local { owner: Cell::new(0), units: [const { Cell::new(0) }; NUM_KINDS] }
    };
}

/// RAII guard of one block's local tally; see [`CostTally::open_block`].
pub(crate) struct BlockScope<'a> {
    tally: &'a CostTally,
    /// The enclosing scope's state, restored on drop (a block body may
    /// itself issue a launch that runs inline on this thread).
    outer: (usize, [u64; NUM_KINDS]),
}

impl Drop for BlockScope<'_> {
    /// Folds the block's charges into the shared tally — also while a
    /// panicking block unwinds — and reinstates the enclosing scope.
    fn drop(&mut self) {
        LOCAL.with(|l| {
            for (shared, (local, outer)) in
                self.tally.units.iter().zip(l.units.iter().zip(self.outer.1))
            {
                let units = local.replace(outer);
                if units != 0 {
                    shared.fetch_add(units, Ordering::Relaxed);
                }
            }
            l.owner.set(self.outer.0);
        });
    }
}

impl CostTally {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&self) -> usize {
        self as *const CostTally as usize
    }

    /// Routes this OS thread's charges to `self` through a plain
    /// thread-local array until the returned guard drops. The guard
    /// borrows the tally, so the address the scope is keyed by stays
    /// valid for as long as the key is installed.
    pub(crate) fn open_block(&self) -> BlockScope<'_> {
        let outer = LOCAL.with(|l| {
            let units = std::array::from_fn(|k| l.units[k].replace(0));
            (l.owner.replace(self.key()), units)
        });
        BlockScope { tally: self, outer }
    }

    /// Charges `units` of `kind`.
    #[inline]
    pub fn charge(&self, kind: CostKind, units: u64) {
        LOCAL.with(|l| {
            if l.owner.get() == self.key() {
                let slot = &l.units[kind.index()];
                slot.set(slot.get().wrapping_add(units));
            } else {
                self.units[kind.index()].fetch_add(units, Ordering::Relaxed);
            }
        });
    }

    /// Units charged of `kind`.
    pub fn units(&self, kind: CostKind) -> u64 {
        self.units[kind.index()].load(Ordering::Relaxed)
    }

    /// Units charged, by kind in [`CostKind::ALL`] order.
    pub fn by_kind(&self) -> [u64; NUM_KINDS] {
        std::array::from_fn(|k| self.units[k].load(Ordering::Relaxed))
    }

    /// Weighted abstract time under `params`.
    pub fn modeled_time(&self, params: &CostParams) -> f64 {
        params.time_of(&self.by_kind())
    }

    /// Copies the tally out as `(kind, units)` pairs.
    pub fn breakdown(&self) -> Vec<(CostKind, u64)> {
        CostKind::ALL.iter().map(|&k| (k, self.units(k))).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_query() {
        let t = CostTally::new();
        t.charge(CostKind::ThreadWork, 100);
        t.charge(CostKind::Atomic, 5);
        t.charge(CostKind::Atomic, 5);
        assert_eq!(t.units(CostKind::ThreadWork), 100);
        assert_eq!(t.units(CostKind::Atomic), 10);
        assert_eq!(t.units(CostKind::KernelLaunch), 0);
        assert_eq!(t.by_kind(), [100, 0, 10, 0, 0, 0]);
    }

    #[test]
    fn modeled_time_weights() {
        let t = CostTally::new();
        t.charge(CostKind::ThreadWork, 10);
        t.charge(CostKind::KernelLaunch, 1);
        let p = CostParams::default();
        let expect = 10.0 * p.thread_work + p.kernel_launch;
        assert!((t.modeled_time(&p) - expect).abs() < 1e-9);
    }

    #[test]
    fn custom_params() {
        let t = CostTally::new();
        t.charge(CostKind::IdleCheck, 8);
        let p = CostParams { idle_check: 2.0, ..CostParams::default() };
        assert!((t.modeled_time(&p) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_covers_all_kinds() {
        let t = CostTally::new();
        t.charge(CostKind::HostReconfig, 3);
        let b = t.breakdown();
        assert_eq!(b.len(), 6);
        assert!(b.contains(&(CostKind::HostReconfig, 3)));
        assert!(b.contains(&(CostKind::BlockSync, 0)));
    }

    #[test]
    fn concurrent_charging() {
        let t = CostTally::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.charge(CostKind::ThreadWork, 1);
                    }
                });
            }
        });
        assert_eq!(t.units(CostKind::ThreadWork), 8000);
    }

    #[test]
    fn default_weights_order() {
        // The relative ordering the model relies on: reconfig > launch
        // >> atomic > work > sync-step > idle.
        let p = CostParams::default();
        assert!(p.host_reconfig > p.kernel_launch);
        assert!(p.kernel_launch > 100.0 * p.atomic);
        assert!(p.atomic > p.thread_work);
        assert!(p.thread_work > p.idle_check);
    }
}
