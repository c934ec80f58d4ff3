//! Aggregation of [`LaunchSample`]s into per-kernel statistics, in
//! both currencies: wall time and the modeled cost units the launches
//! charged.

use std::sync::Mutex;

use ecl_profiling::{LogSketch, SketchSnapshot};

use ecl_profiling::LaunchSample;

/// Running aggregate for one kernel name.
#[derive(Debug)]
struct KernelAgg {
    name: String,
    shape: &'static str,
    shard: u32,
    launches: u64,
    blocks: u64,
    threads: u64,
    /// Per-launch wall time, sketched.
    wall_ns: LogSketch,
    units: [u64; 6],
    /// Per-launch imbalance factor × 1000, sketched (integer sketch of
    /// a [1, ∞) ratio; 1000 = perfectly balanced).
    imbalance_milli: LogSketch,
    busy_ns_total: u64,
    span_ns_total: u64,
    claim_wait_ns_total: u64,
    claims_total: u64,
}

/// Immutable per-kernel statistics for export.
#[derive(Clone, Debug)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Launch shape.
    pub shape: String,
    /// Shard the launches ran on (0 = single-pool; `ecl-shard` runs
    /// produce one record per (kernel, shard) pair).
    pub shard: u32,
    /// Launches folded into this record.
    pub launches: u64,
    /// Blocks executed across all launches.
    pub blocks: u64,
    /// Threads launched across all launches.
    pub threads: u64,
    /// Per-launch wall-time distribution (ns).
    pub wall_ns: SketchSnapshot,
    /// Cost units the launches charged, by kind in
    /// [`ecl_gpusim::CostKind::ALL`] order.
    pub units: [u64; 6],
    /// Per-launch imbalance-factor distribution (milli-units: 1000 =
    /// balanced).
    pub imbalance_milli: SketchSnapshot,
    /// Mean worker utilization across launches (busy / attached span).
    pub utilization: f64,
    /// Total participant time not spent executing blocks (ns).
    pub claim_wait_ns: u64,
    /// Ticket claims across all launches.
    pub claims: u64,
}

/// Thread-safe collector of launch samples, grouped by (kernel name,
/// shard). Attached to devices directly or through [`crate::sink`];
/// recording takes a short mutex (launch completion is coarse-grained —
/// hundreds per run, not millions).
#[derive(Debug, Default)]
pub struct Collector {
    kernels: Mutex<Vec<KernelAgg>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one launch sample in.
    pub fn record(&self, sample: &LaunchSample) {
        let imbalance_milli = (sample.imbalance() * 1000.0).round().max(0.0) as u64;
        let busy: u64 = sample.workers.iter().map(|w| w.busy_ns).sum();
        let span = sample.wall_ns.saturating_mul(sample.workers.len() as u64);
        let mut kernels = self.kernels.lock().unwrap_or_else(|e| e.into_inner());
        let agg =
            match kernels.iter_mut().find(|k| k.name == sample.kernel && k.shard == sample.shard) {
                Some(agg) => agg,
                None => {
                    kernels.push(KernelAgg {
                        name: sample.kernel.clone(),
                        shape: sample.shape,
                        shard: sample.shard,
                        launches: 0,
                        blocks: 0,
                        threads: 0,
                        wall_ns: LogSketch::new(),
                        units: [0; 6],
                        imbalance_milli: LogSketch::new(),
                        busy_ns_total: 0,
                        span_ns_total: 0,
                        claim_wait_ns_total: 0,
                        claims_total: 0,
                    });
                    kernels.last_mut().expect("just pushed")
                }
            };
        agg.launches += 1;
        agg.blocks += sample.blocks;
        agg.threads += sample.threads();
        agg.wall_ns.record(sample.wall_ns);
        for (sum, units) in agg.units.iter_mut().zip(sample.units) {
            *sum += units;
        }
        if !sample.workers.is_empty() {
            agg.imbalance_milli.record(imbalance_milli);
        }
        agg.busy_ns_total += busy;
        agg.span_ns_total += span;
        agg.claim_wait_ns_total += sample.claim_wait_ns();
        agg.claims_total += sample.claims();
    }

    /// Total launches recorded.
    pub fn launches(&self) -> u64 {
        let kernels = self.kernels.lock().unwrap_or_else(|e| e.into_inner());
        kernels.iter().map(|k| k.launches).sum()
    }

    /// Per-kernel statistics, ordered by the kernel's first appearance,
    /// then by ascending shard — not by which shard launched first, which
    /// varies when shards run side by side.
    pub fn snapshot(&self) -> Vec<KernelStats> {
        let kernels = self.kernels.lock().unwrap_or_else(|e| e.into_inner());
        let first_seen = |k: &KernelAgg| kernels.iter().position(|f| f.name == k.name);
        let mut order: Vec<&KernelAgg> = kernels.iter().collect();
        order.sort_by_key(|&k| (first_seen(k), k.shard));
        order
            .into_iter()
            .map(|k| KernelStats {
                name: k.name.clone(),
                shape: k.shape.to_string(),
                shard: k.shard,
                launches: k.launches,
                blocks: k.blocks,
                threads: k.threads,
                wall_ns: k.wall_ns.snapshot(),
                units: k.units,
                imbalance_milli: k.imbalance_milli.snapshot(),
                utilization: if k.span_ns_total == 0 {
                    0.0
                } else {
                    (k.busy_ns_total as f64 / k.span_ns_total as f64).clamp(0.0, 1.0)
                },
                claim_wait_ns: k.claim_wait_ns_total,
                claims: k.claims_total,
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_profiling::WorkerStat;

    fn sample(kernel: &str, wall_ns: u64, busy: &[u64]) -> LaunchSample {
        LaunchSample {
            kernel: kernel.into(),
            shape: "flat",
            blocks: busy.len() as u64 * 2,
            block_size: 64,
            wall_ns,
            units: [wall_ns, 0, 0, 0, 1, 0],
            workers: busy
                .iter()
                .map(|&b| WorkerStat { blocks: 2, claims: 1, busy_ns: b })
                .collect(),
            req: 0,
            shard: 0,
        }
    }

    #[test]
    fn groups_by_kernel_in_first_seen_order() {
        let c = Collector::new();
        c.record(&sample("init", 100, &[50, 50]));
        c.record(&sample("compute", 200, &[100, 100]));
        c.record(&sample("init", 300, &[200, 100]));
        let snap = c.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "init");
        assert_eq!(snap[0].launches, 2);
        assert_eq!(snap[0].blocks, 8);
        assert_eq!(snap[0].units, [400, 0, 0, 0, 2, 0]);
        assert_eq!(snap[1].name, "compute");
        assert_eq!(c.launches(), 3);
    }

    #[test]
    fn utilization_aggregates_over_launches() {
        let c = Collector::new();
        c.record(&sample("k", 100, &[100, 100])); // fully busy
        c.record(&sample("k", 100, &[0, 0])); // fully idle
        let snap = c.snapshot();
        assert!((snap[0].utilization - 0.5).abs() < 1e-12);
        assert_eq!(snap[0].claim_wait_ns, 200);
    }

    #[test]
    fn imbalance_sketch_records_milli_units() {
        let c = Collector::new();
        c.record(&sample("k", 100, &[100, 100])); // balanced -> 1000
        let snap = c.snapshot();
        assert_eq!(snap[0].imbalance_milli.count, 1);
        assert_eq!(snap[0].imbalance_milli.min, 1000);
    }

    #[test]
    fn shards_do_not_collapse_into_one_series() {
        let c = Collector::new();
        let mut a = sample("sweep", 100, &[50]);
        let mut b = sample("sweep", 200, &[70]);
        a.shard = 0;
        b.shard = 3;
        c.record(&a);
        c.record(&b);
        c.record(&a);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 2, "one record per (kernel, shard)");
        assert_eq!((snap[0].shard, snap[0].launches), (0, 2));
        assert_eq!((snap[1].shard, snap[1].launches), (3, 1));
        assert_eq!(snap[1].wall_ns.min, 200);
    }

    #[test]
    fn shard_rows_follow_the_kernel_then_ascending_shard() {
        let c = Collector::new();
        let on = |kernel: &str, shard: u32| LaunchSample { shard, ..sample(kernel, 100, &[50]) };
        c.record(&on("init", 3));
        c.record(&on("sweep", 3));
        c.record(&on("init", 0));
        c.record(&on("sweep", 1));
        c.record(&on("sweep", 0));
        let rows: Vec<(String, u32)> =
            c.snapshot().into_iter().map(|k| (k.name, k.shard)).collect();
        let expect = [("init", 0), ("init", 3), ("sweep", 0), ("sweep", 1), ("sweep", 3)];
        assert_eq!(rows, expect.map(|(name, shard)| (name.to_string(), shard)));
    }

    #[test]
    fn empty_collector_snapshot() {
        let c = Collector::new();
        assert!(c.snapshot().is_empty());
        assert_eq!(c.launches(), 0);
    }
}
