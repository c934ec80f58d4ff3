//! ECL-SCC: strongly connected components on the GPU execution model.
//!
//! Port of the algorithm of Alabandi, Sands, Biros & Burtscher \[4\] as
//! reviewed in §2.5. Each outer iteration `m` runs three stages:
//!
//! 1. **Signature initialization** — every vertex gets two signature
//!    values `v_in = v_out = id`, letting all vertices act as pivots
//!    concurrently.
//! 2. **Maximum-value propagation** — edge-centric `atomicMax` sweeps
//!    push `v_in` forward and pull `v_out` backward along every edge
//!    until a fixed point: `v_out[u] ← max(v_out[u], v_out[v])` and
//!    `v_in[v] ← max(v_in[v], v_in[u])` for each edge `u → v`.
//!    Propagation is **block-local**: a thread block keeps re-scanning
//!    its edge slice while any of its threads performed an update
//!    (inner iterations `n`), and the whole grid relaunches while any
//!    block updated — the §6.1.2 structure Figure 1 visualizes and the
//!    block-size trade-off of §6.2.1 (Table 6) stems from.
//! 3. **Edge removal** — edges whose endpoints' `(v_in, v_out)`
//!    signatures differ cannot be intra-SCC and are pruned.
//!
//! The loop repeats on the pruned graph until every vertex satisfies
//! `v_in = v_out`, at which point that common value (the largest
//! vertex id of the SCC) identifies each vertex's component.

pub mod counters;
pub mod kernel;

use ecl_gpusim::schedule::{KnobDomain, KnobSpec, BLOCK_SIZES};
use ecl_gpusim::Device;
use ecl_graph::Csr;
use ecl_profiling::Counter::{self, Count, Sketch, Table};
use ecl_profiling::ProfileMode;

pub use counters::SccCounters;

/// The schedule knobs [`SccConfig::apply_schedule`] consumes, with
/// their admissible values; the defaults reproduce
/// [`SccConfig::default`] (the original's 512-thread blocks).
pub const KNOBS: [KnobSpec; 2] = [
    KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 3 },
    KnobSpec { name: "trim", domain: KnobDomain::Bool, default_ix: 0 },
];

/// Configuration of one ECL-SCC run.
#[derive(Clone, Copy, Debug)]
pub struct SccConfig {
    /// Threads per block. The ECL-SCC original uses 512; §6.2.1 tunes
    /// this (Table 6 sweeps 64–1024).
    pub block_size: usize,
    /// Iteratively remove vertices with zero in- or out-degree before
    /// propagating (they are singleton SCCs by definition). A standard
    /// SCC-algorithm extension, off by default to match the profiled
    /// original; the ablation benchmark quantifies its effect.
    pub trim: bool,
    /// Whether counters record.
    pub mode: ProfileMode,
}

impl Default for SccConfig {
    fn default() -> Self {
        Self { block_size: 512, trim: false, mode: ProfileMode::On }
    }
}

impl SccConfig {
    /// The original configuration (512 threads per block).
    pub fn original() -> Self {
        Self::default()
    }

    /// A specific block size (the Table 6 sweep).
    pub fn with_block_size(block_size: usize) -> Self {
        Self { block_size, ..Self::default() }
    }

    /// The trimming extension enabled.
    pub fn trimmed() -> Self {
        Self { trim: true, ..Self::default() }
    }

    /// Overrides fields named in a tuning [`Schedule`] (`block_size`,
    /// `trim`); absent knobs leave the current value untouched.
    pub fn apply_schedule(&mut self, s: &ecl_gpusim::Schedule) {
        if let Some(bs) = s.int_knob("block_size") {
            self.block_size = bs.max(1) as usize;
        }
        if let Some(trim) = s.bool_knob("trim") {
            self.trim = trim;
        }
    }
}

/// Result of an ECL-SCC run.
#[derive(Debug)]
pub struct SccResult {
    /// SCC label per vertex: the *maximum* vertex id of its SCC (the
    /// converged signature value).
    pub labels: Vec<u32>,
    /// Collected counters (per-block update series etc.).
    pub counters: SccCounters,
    /// Outer iterations `m` until convergence.
    pub outer_iterations: u32,
    /// Modeled *parallel* (critical-path) time: per grid pass, the
    /// maximum block cost — blocks run concurrently, so a pass's
    /// latency is its slowest block plus the launch overhead. This is
    /// the quantity the §6.2.1 block-size trade-off acts on: large
    /// blocks create slow straggler blocks (idle threads held through
    /// block-wide syncs), small blocks multiply serialized grid
    /// passes. Unit: the device's cost-weight scale.
    pub modeled_parallel_time: f64,
}

impl SccResult {
    /// Number of SCCs.
    pub fn num_sccs(&self) -> usize {
        self.labels.iter().enumerate().filter(|&(v, &l)| v as u32 == l).count()
    }

    /// Labels normalized to the *minimum* vertex id per SCC, the form
    /// the Tarjan reference produces.
    pub fn min_labels(&self) -> Vec<u32> {
        let n = self.labels.len();
        let mut min_of = vec![u32::MAX; n];
        for (v, &l) in self.labels.iter().enumerate() {
            let slot = &mut min_of[l as usize];
            *slot = (*slot).min(v as u32);
        }
        self.labels.iter().map(|&l| min_of[l as usize]).collect()
    }

    /// The run's named counters, in the fixed order `ecl-run` prints
    /// them; the first is the sketch a profile manifest leads with.
    pub fn counters(&self) -> Vec<(&'static str, Counter)> {
        let c = &self.counters;
        let parallel_time = self.modeled_parallel_time.round_ties_even() as u64;
        vec![
            ("scc/updates_per_sweep", Sketch(c.updates_per_sweep.snapshot())),
            ("scc/edges_removed", Count(c.edges_removed.get())),
            ("scc/max_attempted", Count(c.max_tally.attempted())),
            ("scc/max_updated", Count(c.max_tally.updated())),
            ("scc/modeled_parallel_time", Count(parallel_time)),
            ("scc/block_updates", Table(c.series.to_table(1, 1, true))),
        ]
    }
}

/// Runs ECL-SCC on a directed graph.
///
/// # Panics
/// Panics if `g` is undirected (SCCs are a directed-graph concept;
/// the paper's SCC inputs are the directed meshes).
pub fn run(device: &Device, g: &Csr, config: &SccConfig) -> SccResult {
    assert!(g.is_directed(), "ECL-SCC consumes directed graphs");
    kernel::strongly_connected_components(device, g, config)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    fn device() -> Device {
        Device::test_small()
    }

    fn directed(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut b = GraphBuilder::new_directed(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn single_cycle() {
        let g = directed(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = run(&device(), &g, &SccConfig::original());
        assert_eq!(r.num_sccs(), 1);
        assert!(r.labels.iter().all(|&l| l == 3), "labels {:?}", r.labels);
        assert_eq!(r.min_labels(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn dag_all_singletons() {
        let g = directed(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = run(&device(), &g, &SccConfig::original());
        assert_eq!(r.num_sccs(), 5);
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn matches_tarjan_on_meshes() {
        for (name, g) in [
            ("wedge", ecl_graphgen::mesh::toroid_wedge(12, 12, 1)),
            ("hex", ecl_graphgen::mesh::toroid_hex(10, 10, 2)),
            ("klein", ecl_graphgen::mesh::klein_bottle(10, 10, 3)),
            ("star", ecl_graphgen::mesh::star(4, 6, 4)),
            ("coldflow", ecl_graphgen::mesh::cold_flow(5, 5, 5, 5)),
        ] {
            let r = run(&device(), &g, &SccConfig::original());
            assert_eq!(
                r.min_labels(),
                ecl_ref::strongly_connected_components(&g),
                "{name} mismatch"
            );
        }
    }

    #[test]
    fn matches_tarjan_on_random_digraphs() {
        for seed in 0..4 {
            // Random orientation of an ER graph has rich SCC structure.
            let und = ecl_graphgen::random::erdos_renyi(200, 3.0, seed);
            let mut b = GraphBuilder::new_directed(200);
            for (u, v) in und.arcs() {
                if u < v {
                    if (u + v + seed as u32).is_multiple_of(2) {
                        b.add_edge(u, v);
                    } else {
                        b.add_edge(v, u);
                    }
                }
            }
            let g = b.build();
            let r = run(&device(), &g, &SccConfig::original());
            assert_eq!(r.min_labels(), ecl_ref::strongly_connected_components(&g), "seed {seed}");
        }
    }

    #[test]
    fn star_mesh_peels_one_layer_per_outer_iteration() {
        // The layered masking construction: each outer iteration
        // resolves (at least) the outermost unresolved ring.
        let layers = 5;
        let g = ecl_graphgen::mesh::star(layers, 8, 7);
        let r = run(&device(), &g, &SccConfig::original());
        assert_eq!(r.num_sccs(), layers);
        assert!(
            r.outer_iterations >= layers as u32,
            "expected >= {layers} outer iterations, got {}",
            r.outer_iterations
        );
    }

    #[test]
    fn deterministic_labels() {
        let g = ecl_graphgen::mesh::toroid_wedge(10, 10, 9);
        let first = run(&device(), &g, &SccConfig::original());
        for _ in 0..3 {
            let again = run(&device(), &g, &SccConfig::original());
            assert_eq!(first.labels, again.labels);
        }
    }

    #[test]
    fn block_size_does_not_change_result() {
        let g = ecl_graphgen::mesh::klein_bottle(12, 12, 11);
        let base = run(&device(), &g, &SccConfig::original());
        for bs in [64, 128, 256, 1024] {
            let r = run(&device(), &g, &SccConfig::with_block_size(bs));
            assert_eq!(base.labels, r.labels, "block size {bs}");
        }
    }

    #[test]
    fn series_records_per_block_updates() {
        let g = ecl_graphgen::mesh::star(4, 8, 13);
        let r = run(&device(), &g, &SccConfig::original());
        let series = &r.counters.series;
        assert!(series.outer_iterations() >= 1);
        let n1 = series.inner_iterations(1);
        assert!(n1 >= 1, "no inner iterations recorded");
        // First inner iteration of m=1 must show updates somewhere.
        assert!(series.total_updates(1, 1) > 0);
        // Updates diminish: the last recorded inner iteration has
        // fewer updates than the first (Figure 1's shape).
        if n1 > 1 {
            assert!(series.total_updates(1, n1) <= series.total_updates(1, 1));
        }
    }

    #[test]
    fn active_blocks_shrink_over_inner_iterations() {
        // Figure 1: "an increase in the number of inactive blocks".
        let g = ecl_graphgen::mesh::star(6, 32, 17);
        let r = run(&device(), &g, &SccConfig::with_block_size(64));
        let s = &r.counters.series;
        let n_last = s.inner_iterations(1);
        if n_last > 1 {
            assert!(s.active_blocks(1, n_last) <= s.active_blocks(1, 1));
        }
    }

    #[test]
    fn edges_removed_counted() {
        let g = ecl_graphgen::mesh::star(3, 6, 19);
        let r = run(&device(), &g, &SccConfig::original());
        // Radial inter-ring arcs must be pruned at some point.
        assert!(r.counters.edges_removed.get() > 0);
    }

    #[test]
    fn trimming_preserves_labels() {
        // Cycle {0,1,2} with a pendant DAG tail 3 -> 4 -> 0: the tail
        // is fully trimmable.
        let g = directed(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)]);
        let base = run(&device(), &g, &SccConfig::original());
        let trimmed = run(&device(), &g, &SccConfig::trimmed());
        assert_eq!(base.labels, trimmed.labels);
        assert_eq!(trimmed.num_sccs(), 3);
    }

    #[test]
    fn trimming_agrees_on_meshes_and_random_digraphs() {
        for (name, g) in [
            ("wedge", ecl_graphgen::mesh::toroid_wedge(10, 10, 31)),
            ("klein", ecl_graphgen::mesh::klein_bottle(10, 10, 32)),
        ] {
            let base = run(&device(), &g, &SccConfig::original());
            let trimmed = run(&device(), &g, &SccConfig::trimmed());
            assert_eq!(base.labels, trimmed.labels, "{name}");
        }
    }

    #[test]
    fn trimming_removes_dag_work_entirely() {
        // A pure DAG trims to nothing: zero propagation updates.
        let g = directed(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let r = run(&device(), &g, &SccConfig::trimmed());
        assert_eq!(r.num_sccs(), 6);
        assert_eq!(r.counters.max_tally.updated(), 0);
        assert_eq!(r.outer_iterations, 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4, true);
        let r = run(&device(), &g, &SccConfig::original());
        assert_eq!(r.num_sccs(), 4);
        assert_eq!(r.outer_iterations, 1);
    }

    #[test]
    fn self_loops_are_fine_for_scc() {
        let g = directed(3, &[(0, 0), (0, 1), (1, 2), (2, 1)]);
        let r = run(&device(), &g, &SccConfig::original());
        assert_eq!(r.min_labels(), ecl_ref::strongly_connected_components(&g));
    }

    #[test]
    fn profile_off_still_correct() {
        let g = ecl_graphgen::mesh::toroid_hex(8, 8, 23);
        let cfg = SccConfig { mode: ProfileMode::Off, ..SccConfig::original() };
        let r = run(&device(), &g, &cfg);
        assert_eq!(r.min_labels(), ecl_ref::strongly_connected_components(&g));
        assert_eq!(r.counters.max_tally.attempted(), 0);
        assert!(r.counters.series.steps().is_empty());
    }

    #[test]
    #[should_panic(expected = "directed")]
    fn rejects_undirected() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 1);
        run(&device(), &b.build(), &SccConfig::original());
    }
}
