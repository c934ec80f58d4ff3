//! Shard scaling benchmark: CC across 1/2/4 dispatch pools on a
//! torus / RMAT pair.
//!
//! The two inputs are chosen to bracket the partitioner's behavior:
//!
//! - **torus** — near-regular degree, so the partitioner slices
//!   contiguous vertex ranges; cut ratio is `O(shards / side)` and the
//!   modeled time scales close to linearly with the shard count.
//! - **rmat** — skewed degrees, so the partitioner hashes vertex ids;
//!   nearly every arc crosses a shard boundary and the exchange term
//!   eats most of the per-shard compute win. The sub-linear curve is
//!   the honest cost of sharding a low-locality graph, not a bug.
//!
//! Everything reported here is modeled time, which is bit-exactly
//! deterministic for a fixed input — the CI gate compares against the
//! committed `results/SHARD_BASELINE.json` with zero noise tolerance
//! needed.

use ecl_gpusim::DeviceConfig;
use ecl_shard::{devices_for, run_cc, Partition, ShardStats};

/// Input scale of the shard benchmark (fraction of the paper's 2^20
/// vertices for the torus side).
pub const SHARD_BENCH_SCALE: f64 = 0.05;

/// RMAT scale (log2 vertices) and edges per vertex. Smaller than the
/// torus: the hashed partition makes nearly every arc a cut arc, so
/// exchange volume — not vertex count — dominates the runtime.
pub const SHARD_BENCH_RMAT_SCALE: u32 = 13;
/// Edges per vertex of the RMAT input.
pub const SHARD_BENCH_RMAT_EPV: f64 = 16.0;

/// Generator seed shared by both inputs.
pub const SHARD_BENCH_SEED: u64 = 42;

/// One (graph, shard count) measurement.
#[derive(Clone, Debug)]
pub struct ShardPoint {
    /// Shard count.
    pub shards: u32,
    /// Partition strategy the auto-picker chose.
    pub strategy: &'static str,
    /// Run statistics (modeled time, cut ratio, exchange volume).
    pub stats: ShardStats,
}

/// Scaling curve for one input graph.
#[derive(Clone, Debug)]
pub struct ShardCase {
    /// Input name ("torus" | "rmat").
    pub graph: &'static str,
    /// Vertex count of the generated input.
    pub vertices: usize,
    /// Arc count of the generated input.
    pub arcs: usize,
    /// One point per shard count, ascending; the first is single-pool.
    pub points: Vec<ShardPoint>,
}

impl ShardCase {
    /// Modeled-time speedup of `shards` relative to the single-pool
    /// point.
    pub fn speedup(&self, shards: u32) -> f64 {
        let t1 = self.points[0].stats.modeled_time;
        self.points.iter().find(|p| p.shards == shards).map_or(0.0, |p| t1 / p.stats.modeled_time)
    }
}

/// Full benchmark result.
#[derive(Clone, Debug)]
pub struct ShardBench {
    /// One case per input graph.
    pub cases: Vec<ShardCase>,
}

/// Shard counts measured for a `--shards max_shards` invocation:
/// powers of two up to and including `max_shards`.
pub fn shard_counts(max_shards: u32) -> Vec<u32> {
    let mut counts = vec![1u32];
    while counts.last().copied().unwrap_or(1) * 2 <= max_shards {
        counts.push(counts.last().copied().unwrap_or(1) * 2);
    }
    if counts.last() != Some(&max_shards) {
        counts.push(max_shards);
    }
    counts
}

/// Device configuration for one shard: the paper's RTX 4090 scaled by
/// [`SHARD_BENCH_SCALE`], identical per shard (the "N identical GPUs"
/// multi-pool setup).
fn shard_device_config() -> DeviceConfig {
    DeviceConfig::rtx4090_scaled(SHARD_BENCH_SCALE, 1)
}

fn measure(graph: &'static str, g: &ecl_graph::Csr, counts: &[u32]) -> ShardCase {
    let mut points = Vec::with_capacity(counts.len());
    for &shards in counts {
        let part = Partition::auto(g, shards);
        let devices = devices_for(shard_device_config(), shards);
        let r = run_cc(&devices, g, &part);
        points.push(ShardPoint { shards, strategy: part.strategy.name(), stats: r.stats });
    }
    ShardCase { graph, vertices: g.num_vertices(), arcs: g.num_arcs(), points }
}

/// Runs the benchmark at the committed scale: CC on the torus / RMAT
/// pair at every shard count up to `max_shards`.
pub fn run(max_shards: u32) -> ShardBench {
    let side = ((1u64 << 20) as f64 * SHARD_BENCH_SCALE).sqrt().round() as usize;
    let torus = ecl_graphgen::grid::torus_2d(side, side);
    let rmat = ecl_graphgen::rmat::rmat(
        SHARD_BENCH_RMAT_SCALE,
        SHARD_BENCH_RMAT_EPV,
        ecl_graphgen::rmat::RmatParams::rmat(),
        SHARD_BENCH_SEED,
    );
    let counts = shard_counts(max_shards);
    ShardBench { cases: vec![measure("torus", &torus, &counts), measure("rmat", &rmat, &counts)] }
}

impl ShardBench {
    /// Serializes in the `ecl-bench/2` shape `ecl-prof gate` consumes.
    /// Modeled times gate lower-is-better; cut ratios, exchange
    /// volumes, supersteps, and speedups ride along as info metrics.
    pub fn to_json(&self) -> String {
        let mut metrics: Vec<String> = Vec::new();
        let metric = |name: String, unit: &str, direction: &str, sample: f64| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \
                 \"direction\": \"{direction}\", \"samples\": [{sample}]}}"
            )
        };
        for c in &self.cases {
            for p in &c.points {
                let tag = format!("{}_s{}", c.graph, p.shards);
                metrics.push(metric(
                    format!("modeled_time_units_{tag}"),
                    "units",
                    "lower",
                    p.stats.modeled_time,
                ));
                metrics.push(metric(format!("cut_ratio_{tag}"), "1", "info", p.stats.cut_ratio()));
                metrics.push(metric(
                    format!("exchange_messages_{tag}"),
                    "1",
                    "info",
                    p.stats.exchange_messages as f64,
                ));
                metrics.push(metric(
                    format!("supersteps_{tag}"),
                    "1",
                    "info",
                    p.stats.supersteps as f64,
                ));
                if p.shards > 1 {
                    metrics.push(metric(
                        format!("speedup_{tag}"),
                        "x",
                        "info",
                        c.speedup(p.shards),
                    ));
                }
            }
        }
        let cases: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                let strategy = c.points.first().map_or("?", |p| p.strategy);
                format!(
                    "    {{\"graph\": \"{}\", \"vertices\": {}, \"arcs\": {}, \
                     \"strategy\": \"{}\"}}",
                    c.graph, c.vertices, c.arcs, strategy
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"ecl-bench/2\",\n  \"benchmark\": \"ecl-shard-scaling\",\n  \
             \"git_sha\": \"{}\",\n  \"algo\": \"cc\",\n  \"scale\": {},\n  \"seed\": {},\n  \
             \"cases\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
            ecl_prof::git_sha(),
            SHARD_BENCH_SCALE,
            SHARD_BENCH_SEED,
            cases.join(",\n"),
            metrics.join(",\n")
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// A miniature run with the same machinery as [`run`] — the full
    /// scale is CI-bench territory, not unit-test territory.
    fn tiny_bench() -> ShardBench {
        let torus = ecl_graphgen::grid::torus_2d(16, 16);
        let rmat = ecl_graphgen::rmat::rmat(7, 8.0, ecl_graphgen::rmat::RmatParams::rmat(), 42);
        let counts = shard_counts(4);
        ShardBench {
            cases: vec![measure("torus", &torus, &counts), measure("rmat", &rmat, &counts)],
        }
    }

    #[test]
    fn shard_counts_double_up_to_max() {
        assert_eq!(shard_counts(1), vec![1]);
        assert_eq!(shard_counts(4), vec![1, 2, 4]);
        assert_eq!(shard_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(shard_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn torus_slices_and_rmat_hashes() {
        let b = tiny_bench();
        assert_eq!(b.cases[0].points[0].strategy, "contiguous");
        assert_eq!(b.cases[1].points[0].strategy, "hashed");
    }

    #[test]
    fn json_parses_and_carries_gateable_metrics() {
        let b = tiny_bench();
        let j = b.to_json();
        let v = ecl_profiling::json::parse(&j).unwrap();
        assert_eq!(
            v.get("schema").and_then(ecl_profiling::json::Value::as_str),
            Some("ecl-bench/2")
        );
        let set = ecl_prof::gate::extract_metrics(&v);
        let modeled: Vec<&str> = set
            .metrics
            .iter()
            .filter(|(n, _, _)| n.starts_with("modeled_time_units_"))
            .map(|(n, _, _)| n.as_str())
            .collect();
        assert_eq!(modeled.len(), 6, "torus+rmat at shards 1/2/4: {modeled:?}");
        // Identical runs gate clean (modeled time is deterministic).
        let r = ecl_prof::gate::gate_files(&j, &j, &ecl_prof::gate::GateConfig::default());
        assert!(r.unwrap().passed());
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let a = tiny_bench();
        let b = tiny_bench();
        for (ca, cb) in a.cases.iter().zip(&b.cases) {
            for (pa, pb) in ca.points.iter().zip(&cb.points) {
                assert_eq!(
                    pa.stats.modeled_time.to_bits(),
                    pb.stats.modeled_time.to_bits(),
                    "{} s{}",
                    ca.graph,
                    pa.shards
                );
            }
        }
    }
}
