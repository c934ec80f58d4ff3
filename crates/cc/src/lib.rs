//! ECL-CC: connected components on the GPU execution model.
//!
//! Port of the algorithm of Jaiganesh & Burtscher \[22\] as reviewed in
//! §2.1 of the paper. Three stages:
//!
//! 1. **Initialization** — each vertex's label starts at the id of the
//!    first (i.e. smallest, lists are sorted) neighbor with a smaller
//!    id, or its own id. The baseline scans the adjacency list until a
//!    smaller neighbor is found — which, with sorted lists, means a
//!    *full* scan whenever none exists. The §6.2.2 optimization checks
//!    only the first neighbor ([`CcConfig::optimized_init`]).
//! 2. **Computation** — three degree-binned kernels (low / medium /
//!    high) perform union-find hooking with `atomicCAS` and
//!    intermediate pointer jumping, asynchronously and lock-free.
//! 3. **Finalization** — a last pointer-jumping pass makes every label
//!    point at its component representative (the minimum id of the
//!    component).
//!
//! Instrumentation (§6.1.3): vertices initialized, vertices traversed
//! during init, `representative()` call counts and return-value
//! comparisons, and hooking CAS outcomes.

pub mod counters;
pub mod kernels;

use ecl_gpusim::schedule::{KnobDomain, KnobSpec, BLOCK_SIZES};
use ecl_gpusim::Device;
use ecl_graph::Csr;
use ecl_profiling::ProfileMode;

pub use counters::CcCounters;

/// Degree thresholds of the three compute kernels (ECL-CC customizes
/// kernels "for different vertex degrees (low, medium, and high) to
/// balance the load across the threads", §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeBins {
    /// Degrees below this go to the thread-per-vertex kernel.
    pub low_below: usize,
    /// Degrees below this (and >= low) go to the warp-group kernel;
    /// the rest go to the block-group kernel.
    pub medium_below: usize,
}

impl Default for DegreeBins {
    fn default() -> Self {
        // The ECL-CC thresholds: low < 16, medium < 352.
        Self { low_below: 16, medium_below: 352 }
    }
}

/// The schedule knobs [`CcConfig::apply_schedule`] consumes, with
/// their admissible values; the defaults reproduce
/// [`CcConfig::default`] (the paper's profiled baseline).
pub const KNOBS: [KnobSpec; 4] = [
    KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 2 },
    KnobSpec { name: "optimized_init", domain: KnobDomain::Bool, default_ix: 0 },
    KnobSpec { name: "low_bin", domain: KnobDomain::Ints(&[8, 16, 32]), default_ix: 1 },
    KnobSpec { name: "medium_bin", domain: KnobDomain::Ints(&[176, 352, 704]), default_ix: 1 },
];

/// Configuration of one ECL-CC run.
#[derive(Clone, Copy, Debug)]
pub struct CcConfig {
    /// Apply the §6.2.2 first-neighbor-only init optimization.
    pub optimized_init: bool,
    /// Degree binning of the compute kernels.
    pub bins: DegreeBins,
    /// Threads per block for all kernels.
    pub block_size: usize,
    /// Whether counters record.
    pub mode: ProfileMode,
}

impl Default for CcConfig {
    fn default() -> Self {
        Self {
            optimized_init: false,
            bins: DegreeBins::default(),
            block_size: 256,
            mode: ProfileMode::On,
        }
    }
}

impl CcConfig {
    /// The baseline configuration (full init scan).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// The §6.2.2-optimized configuration (first-neighbor-only init).
    pub fn optimized() -> Self {
        Self { optimized_init: true, ..Self::default() }
    }

    /// Overrides fields named in a tuning [`Schedule`]
    /// (`block_size`, `optimized_init`, `low_bin`, `medium_bin`);
    /// absent knobs leave the current value untouched.
    pub fn apply_schedule(&mut self, s: &ecl_gpusim::Schedule) {
        if let Some(bs) = s.int_knob("block_size") {
            self.block_size = bs.max(1) as usize;
        }
        if let Some(opt) = s.bool_knob("optimized_init") {
            self.optimized_init = opt;
        }
        if let Some(low) = s.int_knob("low_bin") {
            self.bins.low_below = low.max(1) as usize;
        }
        if let Some(med) = s.int_knob("medium_bin") {
            self.bins.medium_below = med.max(1) as usize;
        }
    }
}

/// Result of an ECL-CC run.
#[derive(Debug)]
pub struct CcResult {
    /// Component label per vertex: the minimum vertex id of its
    /// component.
    pub labels: Vec<u32>,
    /// Collected counters.
    pub counters: CcCounters,
}

impl CcResult {
    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.labels.iter().enumerate().filter(|&(v, &l)| v as u32 == l).count()
    }
}

/// Runs ECL-CC on an undirected graph.
///
/// # Panics
/// Panics if `g` is directed (connected components are defined on
/// undirected graphs here, matching the paper's inputs).
pub fn run(device: &Device, g: &Csr, config: &CcConfig) -> CcResult {
    assert!(!g.is_directed(), "ECL-CC consumes undirected graphs");
    let counters = CcCounters::new(config.mode);
    let labels = kernels::connected_components(device, g, config, &counters);
    CcResult { labels, counters }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    fn device() -> Device {
        Device::test_small()
    }

    fn undirected(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut b = GraphBuilder::new_undirected(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn two_components() {
        let g = undirected(6, &[(0, 1), (1, 2), (4, 5)]);
        let r = run(&device(), &g, &CcConfig::baseline());
        assert_eq!(r.labels, vec![0, 0, 0, 3, 4, 4]);
        assert_eq!(r.num_components(), 3);
    }

    #[test]
    fn matches_reference_on_small_graphs() {
        for seed in 0..5 {
            let g = ecl_graphgen::random::erdos_renyi(300, 3.0, seed);
            let expect = ecl_ref::connected_components(&g);
            let r = run(&device(), &g, &CcConfig::baseline());
            assert_eq!(r.labels, expect, "seed {seed}");
        }
    }

    #[test]
    fn optimized_init_same_labels() {
        for seed in 0..5 {
            let g = ecl_graphgen::random::erdos_renyi(300, 4.0, seed + 100);
            let a = run(&device(), &g, &CcConfig::baseline());
            let b = run(&device(), &g, &CcConfig::optimized());
            assert_eq!(a.labels, b.labels, "seed {seed}");
        }
    }

    #[test]
    fn init_counters_baseline_traversal() {
        // Path 0-1-2-3: vertex 0 has no smaller neighbor (scans its
        // whole 1-entry list); 1,2,3 find one immediately.
        let g = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = run(&device(), &g, &CcConfig::baseline());
        assert_eq!(r.counters.vertices_initialized.get(), 4);
        // v0: scans 1 neighbor; v1..v3: 1 each => 4 total.
        assert_eq!(r.counters.vertices_traversed.get(), 4);
    }

    #[test]
    fn init_traversal_gap_on_hub() {
        // Star with center 0: center scans all 5 neighbors fruitlessly,
        // leaves find the center at once.
        let g = undirected(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let base = run(&device(), &g, &CcConfig::baseline());
        assert_eq!(base.counters.vertices_traversed.get(), 5 + 5);
        let opt = run(&device(), &g, &CcConfig::optimized());
        // Optimized touches exactly one neighbor per non-isolated vertex.
        assert_eq!(opt.counters.vertices_traversed.get(), 6);
        assert_eq!(base.labels, opt.labels);
    }

    #[test]
    fn isolated_vertices() {
        let g = Csr::empty(5, false);
        let r = run(&device(), &g, &CcConfig::baseline());
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.num_components(), 5);
        assert_eq!(r.counters.vertices_traversed.get(), 0);
    }

    #[test]
    fn high_degree_vertices_exercise_all_bins() {
        // A hub of degree 400 exercises the high kernel; its leaves the
        // low kernel; a mid-degree clique the medium kernel.
        let mut b = GraphBuilder::new_undirected(500);
        for v in 1..=400u32 {
            b.add_edge(0, v);
        }
        for u in 450..470u32 {
            for v in (u + 1)..470 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let r = run(&device(), &g, &CcConfig::baseline());
        assert_eq!(r.labels, ecl_ref::connected_components(&g));
    }

    #[test]
    fn profile_off_still_correct() {
        let g = ecl_graphgen::grid::torus_2d(8, 8);
        let cfg = CcConfig { mode: ProfileMode::Off, ..CcConfig::baseline() };
        let r = run(&device(), &g, &cfg);
        assert_eq!(r.labels, ecl_ref::connected_components(&g));
        // Counters stay silent when profiling is off.
        assert_eq!(r.counters.vertices_initialized.get(), 0);
        assert_eq!(r.counters.find_calls.get(), 0);
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn rejects_directed_graph() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1);
        run(&device(), &b.build(), &CcConfig::baseline());
    }

    #[test]
    fn find_call_counters_active() {
        // A hub whose smaller neighbors are all distinct roots: init
        // links the hub to root 0 only, so compute must hook the other
        // nine roots.
        let mut b = GraphBuilder::new_undirected(101);
        for i in 0..10u32 {
            b.add_edge(i * 10, 100);
        }
        let g = b.build();
        let r = run(&device(), &g, &CcConfig::baseline());
        assert!(r.counters.find_calls.get() > 0);
        // Hook CAS operations happened and mostly succeeded.
        assert!(r.counters.hook_cas.attempted() > 0);
        assert!(r.counters.hook_cas.updated() > 0);
    }

    #[test]
    fn torus_init_heuristic_needs_no_hooks() {
        // On a torus every vertex except 0 has a smaller neighbor, so
        // the init forest already has a single root — the §2.1 claim
        // that the heuristic "leads to less work in the next phase".
        let g = ecl_graphgen::grid::torus_2d(6, 6);
        let r = run(&device(), &g, &CcConfig::baseline());
        assert_eq!(r.num_components(), 1);
        assert_eq!(r.counters.hook_cas.attempted(), 0);
    }

    #[test]
    fn kernel_profile_breakdown() {
        let g = ecl_graphgen::random::erdos_renyi(2000, 6.0, 7);
        let device = std::sync::Arc::new(device());
        let profile = std::sync::Arc::new(ecl_gpusim::KernelProfile::new(device.clone()));
        let id = ecl_gpusim::observe::install(profile.clone());
        let r = run(&device, &g, &CcConfig::baseline());
        ecl_gpusim::observe::uninstall(id);
        assert_eq!(r.labels, ecl_ref::connected_components(&g));
        // All five phases recorded, and together they are the run.
        let records = profile.records();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["init", "compute-low", "compute-medium", "compute-high", "finalize"]);
        assert!((profile.total_modeled() - device.modeled_time()).abs() < 1e-9);
        // The §6.1.3 ballpark: init is a real but minority share.
        let init = records[0].modeled_time / profile.total_modeled();
        assert!((0.01..0.7).contains(&init), "init share {init} outside the plausible band");
    }

    #[test]
    fn modeled_cost_lower_with_optimized_init_on_gap_input() {
        // Torus: no vertex except id-0-row finds a smaller first
        // neighbor cheaply? Actually in a torus many vertices have a
        // smaller neighbor; use a graph with big init gap: grid where
        // adjacency of low-id vertices is all larger (vertex 0 of each
        // component). A long path ordered backwards maximizes the gap.
        let n = 2000u32;
        let mut b = GraphBuilder::new_undirected(n as usize);
        // Vertex v adjacent to v+1: vertex ids ascending along the
        // path, so every vertex's list starts with the smaller one...
        // invert: connect v to n-1-v pattern to create fruitless scans.
        for v in 0..n / 2 {
            b.add_edge(v, n - 1 - v);
        }
        let g = b.build();
        let d1 = Device::test_small();
        let d2 = Device::test_small();
        run(&d1, &g, &CcConfig::baseline());
        run(&d2, &g, &CcConfig::optimized());
        assert!(d2.modeled_time() <= d1.modeled_time());
    }
}
