//! ECL-MST: minimum spanning tree/forest on the GPU execution model.
//!
//! Port of the algorithm of Fallin et al. \[17\] as reviewed in §2.4:
//! edge-centric Borůvka over a worklist of unique edges.
//!
//! - **Initialization** — every vertex is its own disjoint set; the
//!   worklist holds all unique edges, split by a weight threshold into
//!   a *light* and a *heavy* part.
//! - **Construction rounds** — each round's main kernel (K1) lets one
//!   thread per worklist edge elect the lightest edge of each incident
//!   component: a non-atomic check against the current minimum
//!   followed by an `atomicMin` of the packed `(weight, edge id)` key.
//!   The selection kernel (K2) marks edges that won at least one
//!   endpoint, merges their components, and compacts the worklist.
//!   **Regular** iterations process light edges; when they run dry, a
//!   **Filter** iteration processes the heavy edges, discarding those
//!   whose endpoints already share a component (§2.4's "filtering step
//!   removes redundant edges early").
//!
//! Instrumentation (§6.1.4, Figure 2): per-iteration percentages of
//! threads with work, conflicting threads (several threads electing on
//! the same component), and useless atomics (`atomicMin` with no
//! effect); plus the §6.2.3 launch-configuration experiment — the
//! baseline launches every kernel with blocks covering the *initial*
//! worklist size, the fixed variant recomputes blocks per launch at
//! the price of a host round-trip ([`MstConfig::fixed_launch`]).

pub mod kernel;
pub mod union_find;

use ecl_gpusim::schedule::{KnobDomain, KnobSpec, BLOCK_SIZES};
use ecl_gpusim::Device;
use ecl_graph::{EdgeId, WeightedCsr};
use ecl_profiling::Counter::{self, Count, Sketch, Table};
use ecl_profiling::{AtomicTally, ConvergenceTrace, IterationBars, LogSketch, ProfileMode};

/// The schedule knobs [`MstConfig::apply_schedule`] consumes, with
/// their admissible values; the defaults reproduce
/// [`MstConfig::default`] (the stale launch configuration).
pub const KNOBS: [KnobSpec; 3] = [
    KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 2 },
    KnobSpec { name: "fixed_launch", domain: KnobDomain::Bool, default_ix: 0 },
    KnobSpec {
        name: "light_fraction",
        domain: KnobDomain::Floats(&[0.25, 0.5, 0.75]),
        default_ix: 1,
    },
];

/// Configuration of one ECL-MST run.
#[derive(Clone, Copy, Debug)]
pub struct MstConfig {
    /// Threads per block.
    pub block_size: usize,
    /// Recompute the launch configuration before every kernel launch
    /// (the §6.2.3 correction). The baseline (false) keeps the initial
    /// configuration, launching idle tail threads as the worklist
    /// shrinks.
    pub fixed_launch: bool,
    /// Fraction of edges classified light (processed in Regular
    /// iterations); the rest wait for Filter iterations.
    pub light_fraction: f64,
    /// Whether counters record.
    pub mode: ProfileMode,
}

impl Default for MstConfig {
    fn default() -> Self {
        Self { block_size: 256, fixed_launch: false, light_fraction: 0.5, mode: ProfileMode::On }
    }
}

impl MstConfig {
    /// The baseline (stale launch configuration).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// The §6.2.3 corrected launch configuration.
    pub fn fixed() -> Self {
        Self { fixed_launch: true, ..Self::default() }
    }

    /// Overrides fields named in a tuning [`Schedule`]
    /// (`block_size`, `fixed_launch`, `light_fraction`); absent knobs
    /// leave the current value untouched.
    pub fn apply_schedule(&mut self, s: &ecl_gpusim::Schedule) {
        if let Some(bs) = s.int_knob("block_size") {
            self.block_size = bs.max(1) as usize;
        }
        if let Some(fixed) = s.bool_knob("fixed_launch") {
            self.fixed_launch = fixed;
        }
        if let Some(frac) = s.float_knob("light_fraction") {
            self.light_fraction = frac.clamp(0.0, 1.0);
        }
    }
}

/// Counters of the main computation kernel (Figure 2 plus cumulative
/// tallies).
#[derive(Debug)]
pub struct MstCounters {
    /// Per-iteration bars: threads-with-work %, conflicts %, useless
    /// atomics %, tagged Regular/Filter.
    pub bars: IterationBars,
    /// Cumulative `atomicMin` outcomes across all iterations.
    pub atomics: AtomicTally,
    /// Worklist edges surviving after each iteration's compaction.
    pub worklist_per_iteration: ConvergenceTrace,
    /// Streaming distribution of worklist sizes the K1/K2 launches
    /// actually covered — with the stale baseline launch config the
    /// gap between this sketch's quantiles and the shrinking
    /// `worklist_per_iteration` trace is exactly the §6.2.3 wasted
    /// coverage.
    pub launch_coverage: LogSketch,
}

impl MstCounters {
    /// Fresh counters.
    pub fn new() -> Self {
        Self {
            bars: IterationBars::new(),
            atomics: AtomicTally::new(),
            worklist_per_iteration: ConvergenceTrace::new(),
            launch_coverage: LogSketch::new(),
        }
    }
}

impl Default for MstCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of an ECL-MST run.
#[derive(Debug)]
pub struct MstResult {
    /// Ids of the chosen edges (see
    /// [`WeightedCsr::unique_edges`]).
    pub edges: Vec<EdgeId>,
    /// Sum of chosen edge weights.
    pub total_weight: u64,
    /// Trees in the resulting forest.
    pub num_trees: usize,
    /// Collected counters.
    pub counters: MstCounters,
}

impl MstResult {
    /// The run's named counters, in the fixed order `ecl-run` prints
    /// them; the first is the sketch a profile manifest leads with.
    pub fn counters(&self) -> Vec<(&'static str, Counter)> {
        let c = &self.counters;
        vec![
            ("mst/launch_coverage", Sketch(c.launch_coverage.snapshot())),
            ("mst/iterations", Table(c.bars.to_table("ECL-MST per-iteration metrics"))),
            ("mst/atomics_attempted", Count(c.atomics.attempted())),
            ("mst/atomics_useless", Count(c.atomics.useless())),
        ]
    }
}

/// Runs ECL-MST on a weighted undirected graph. Ties are broken by
/// edge id, so the result matches Kruskal's with the same tie-break
/// edge-for-edge.
///
/// # Panics
/// Panics if the graph is directed or has `u32::MAX` arcs or more.
pub fn run(device: &Device, g: &WeightedCsr, config: &MstConfig) -> MstResult {
    assert!(!g.csr().is_directed(), "ECL-MST consumes undirected graphs");
    kernel::minimum_spanning_forest(device, g, config)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;
    use ecl_profiling::series::IterationKind;

    fn device() -> Device {
        Device::test_small()
    }

    fn weighted(n: usize, edges: &[(u32, u32, u32)]) -> WeightedCsr {
        let mut b = GraphBuilder::new_undirected(n);
        for &(u, v, w) in edges {
            b.add_weighted_edge(u, v, w);
        }
        b.build_weighted()
    }

    #[test]
    fn triangle() {
        let g = weighted(3, &[(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        let r = run(&device(), &g, &MstConfig::baseline());
        assert_eq!(r.total_weight, 3);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.num_trees, 1);
    }

    #[test]
    fn matches_kruskal_exactly() {
        for seed in 0..6 {
            let base = ecl_graphgen::random::erdos_renyi(300, 5.0, seed);
            let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, seed);
            let expect = ecl_ref::kruskal(&g);
            let r = run(&device(), &g, &MstConfig::baseline());
            assert_eq!(r.total_weight, expect.total_weight, "seed {seed}");
            assert_eq!(r.num_trees, expect.num_trees, "seed {seed}");
            let mut got = r.edges.clone();
            got.sort_unstable();
            let mut want = expect.edges.clone();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn fixed_launch_same_result() {
        let base = ecl_graphgen::grid::torus_2d(16, 16);
        let g = ecl_graphgen::with_hashed_weights(base, 1000, 9);
        let a = run(&device(), &g, &MstConfig::baseline());
        let b = run(&device(), &g, &MstConfig::fixed());
        assert_eq!(a.total_weight, b.total_weight);
        let (mut ea, mut eb) = (a.edges.clone(), b.edges.clone());
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
    }

    #[test]
    fn disconnected_forest() {
        let g = weighted(6, &[(0, 1, 1), (1, 2, 5), (3, 4, 2), (4, 5, 3)]);
        let r = run(&device(), &g, &MstConfig::baseline());
        assert_eq!(r.num_trees, 2);
        assert_eq!(r.edges.len(), 4);
        assert_eq!(r.total_weight, 11);
    }

    #[test]
    fn empty_and_singleton() {
        let g = weighted(4, &[]);
        let r = run(&device(), &g, &MstConfig::baseline());
        assert_eq!(r.edges.len(), 0);
        assert_eq!(r.num_trees, 4);
        assert_eq!(r.total_weight, 0);
    }

    #[test]
    fn equal_weights_tie_broken_by_id() {
        let g = weighted(4, &[(0, 1, 7), (1, 2, 7), (2, 3, 7), (3, 0, 7)]);
        let r = run(&device(), &g, &MstConfig::baseline());
        let expect = ecl_ref::kruskal(&g);
        assert_eq!(r.total_weight, expect.total_weight);
        let mut got = r.edges.clone();
        got.sort_unstable();
        assert_eq!(got, expect.edges);
    }

    #[test]
    fn iteration_bars_recorded() {
        let base = ecl_graphgen::powerlaw::preferential_attachment(500, 4.0, 3);
        let g = ecl_graphgen::with_hashed_weights(base, 1 << 14, 3);
        let r = run(&device(), &g, &MstConfig::baseline());
        let bars = r.counters.bars.bars();
        assert!(!bars.is_empty());
        assert!(bars.iter().any(|b| b.kind == IterationKind::Regular));
        // Percentages stay within range.
        for b in &bars {
            assert!((0.0..=100.0).contains(&b.threads_with_work_pct));
            assert!((0.0..=100.0).contains(&b.conflicts_pct));
            assert!((0.0..=100.0).contains(&b.useless_atomics_pct));
        }
    }

    #[test]
    fn filter_iterations_appear_with_heavy_edges() {
        let base = ecl_graphgen::random::erdos_renyi(400, 6.0, 8);
        let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, 8);
        let r = run(&device(), &g, &MstConfig::baseline());
        assert!(
            !r.counters.bars.of_kind(IterationKind::Filter).is_empty(),
            "expected at least one Filter iteration"
        );
    }

    #[test]
    fn useful_work_fraction_decays() {
        // Figure 2's headline: after the first Regular iteration the
        // fraction of threads with work collapses.
        let base = ecl_graphgen::powerlaw::preferential_attachment(2000, 6.0, 5);
        let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, 5);
        let r = run(&device(), &g, &MstConfig::baseline());
        let regs = r.counters.bars.of_kind(IterationKind::Regular);
        assert!(regs.len() >= 2);
        let first = regs[0].threads_with_work_pct;
        let later = regs.last().unwrap().threads_with_work_pct;
        assert!(later < first, "work fraction should decay: first {first}%, later {later}%");
    }

    #[test]
    fn atomics_tally_populated() {
        let base = ecl_graphgen::random::erdos_renyi(300, 6.0, 2);
        let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, 2);
        let r = run(&device(), &g, &MstConfig::baseline());
        assert!(r.counters.atomics.attempted() > 0);
        assert!(r.counters.atomics.updated() > 0);
    }

    #[test]
    fn profile_off_same_result() {
        let base = ecl_graphgen::grid::torus_2d(12, 12);
        let g = ecl_graphgen::with_hashed_weights(base, 100, 4);
        let on = run(&device(), &g, &MstConfig::baseline());
        let off =
            run(&device(), &g, &MstConfig { mode: ProfileMode::Off, ..MstConfig::baseline() });
        assert_eq!(on.total_weight, off.total_weight);
        assert!(off.counters.bars.bars().is_empty());
        assert_eq!(off.counters.atomics.attempted(), 0);
    }

    #[test]
    fn parallel_heavy_path_still_exact() {
        // All edges heavy (light_fraction 0): everything flows through
        // Filter iterations.
        let base = ecl_graphgen::random::erdos_renyi(200, 4.0, 12);
        let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, 12);
        let cfg = MstConfig { light_fraction: 0.0, ..MstConfig::baseline() };
        let r = run(&device(), &g, &cfg);
        assert_eq!(r.total_weight, ecl_ref::kruskal(&g).total_weight);
    }

    #[test]
    fn all_light_path_still_exact() {
        let base = ecl_graphgen::random::erdos_renyi(200, 4.0, 13);
        let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, 13);
        let cfg = MstConfig { light_fraction: 1.0, ..MstConfig::baseline() };
        let r = run(&device(), &g, &cfg);
        assert_eq!(r.total_weight, ecl_ref::kruskal(&g).total_weight);
    }
}
