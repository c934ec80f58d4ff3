//! Per-launch profile samples, produced by the simulator's launch and
//! pool hooks.

use crate::{imbalance_from_summary, Summary};

/// What one pool participant (a parked worker or the submitting
/// thread) did during a single dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Blocks this participant executed.
    pub blocks: u64,
    /// Ticket ranges it claimed (1 for an in-order, one-worker dispatch).
    pub claims: u64,
    /// Nanoseconds spent executing claimed blocks (claim overhead and
    /// queue scanning excluded).
    pub busy_ns: u64,
}

/// One kernel launch as observed by the profiling hooks in
/// `ecl-gpusim`, in both currencies: grid geometry, wall time, the
/// modeled cost units it charged, and the per-participant execution
/// stats of the dispatch pool.
#[derive(Clone, Debug)]
pub struct LaunchSample {
    /// Kernel name (the `*_named` launch name; `flat`/`blocks`/`warps`
    /// for anonymous launches).
    pub kernel: String,
    /// Launch shape (`flat`, `persistent`, `blocks`, `warps`).
    pub shape: &'static str,
    /// Blocks in the grid.
    pub blocks: u64,
    /// Threads per block.
    pub block_size: u64,
    /// Wall time of the dispatch, submitter-side.
    pub wall_ns: u64,
    /// Cost units the launch charged to its device, by kind in
    /// `ecl_gpusim::CostKind::ALL` order: the device's tally after the
    /// join minus before the launch's `KernelLaunch` charge. Blocks
    /// fold their tallies in before the join, so this is exact under
    /// the pool as long as nothing else charges the device meanwhile.
    /// A launch issued from inside a block of another launch on the
    /// same device (no kernel crate nests launches on one device) holds
    /// its blocks' units but not its own launch charge, which folds with
    /// the enclosing block; the enclosing launch's units hold all of it.
    pub units: [u64; 6],
    /// Per-participant stats; empty for zero-block launches.
    pub workers: Vec<WorkerStat>,
    /// Originating request id (`ecl-obs` correlation; 0 = no request
    /// context, e.g. CLI runs).
    pub req: u64,
    /// Shard (simulated device instance) the launch ran on. 0 for
    /// single-pool runs, so existing output is unchanged; `ecl-shard`
    /// multi-pool runs attach the ambient shard id via
    /// `ecl_gpusim::ctx`, which keeps concurrent pool instances from
    /// collapsing into one series.
    pub shard: u32,
}

impl LaunchSample {
    /// Worker utilization: busy time over the span all participants
    /// were attached to the launch (`participants × wall`). 0 for
    /// degenerate launches, clamped to 1 (timers of busy and wall are
    /// sampled independently).
    pub fn utilization(&self) -> f64 {
        let span = self.wall_ns.saturating_mul(self.workers.len() as u64);
        if span == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        (busy as f64 / span as f64).clamp(0.0, 1.0)
    }

    /// Load-imbalance factor over participant busy times (max / avg,
    /// §3.1.1); 0 for zero-activity launches, never NaN/inf.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.workers.iter().map(|w| w.busy_ns).collect();
        imbalance_from_summary(&Summary::of_u64(&busy))
    }

    /// Aggregate ticket-claim wait: time participants were attached to
    /// the launch but not executing blocks (claim contention, queue
    /// scan, parking latency).
    pub fn claim_wait_ns(&self) -> u64 {
        let span = self.wall_ns.saturating_mul(self.workers.len() as u64);
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        span.saturating_sub(busy)
    }

    /// Total ticket claims across participants.
    pub fn claims(&self) -> u64 {
        self.workers.iter().map(|w| w.claims).sum()
    }

    /// Total threads launched.
    pub fn threads(&self) -> u64 {
        self.blocks.saturating_mul(self.block_size)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample(workers: Vec<WorkerStat>, wall_ns: u64) -> LaunchSample {
        LaunchSample {
            kernel: "k".into(),
            shape: "flat",
            blocks: 8,
            block_size: 32,
            wall_ns,
            units: [0; 6],
            workers,
            req: 0,
            shard: 0,
        }
    }

    #[test]
    fn utilization_and_imbalance() {
        let s = sample(
            vec![
                WorkerStat { blocks: 4, claims: 2, busy_ns: 80 },
                WorkerStat { blocks: 4, claims: 2, busy_ns: 40 },
            ],
            100,
        );
        assert!((s.utilization() - 0.6).abs() < 1e-12);
        // avg busy 60, max 80 -> 1.333…
        assert!((s.imbalance() - 80.0 / 60.0).abs() < 1e-12);
        assert_eq!(s.claim_wait_ns(), 200 - 120);
        assert_eq!(s.claims(), 4);
        assert_eq!(s.threads(), 256);
    }

    #[test]
    fn zero_activity_launch_is_finite() {
        let s = sample(vec![], 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.imbalance(), 0.0);
        assert_eq!(s.claim_wait_ns(), 0);
        assert!(s.utilization().is_finite() && s.imbalance().is_finite());
    }

    #[test]
    fn utilization_clamped_to_one() {
        // busy sampled slightly above wall (independent timers).
        let s = sample(vec![WorkerStat { blocks: 1, claims: 1, busy_ns: 110 }], 100);
        assert_eq!(s.utilization(), 1.0);
    }
}
