//! ECL-GC: graph coloring on the GPU execution model.
//!
//! Port of the algorithm of Alabandi, Powers & Burtscher \[3\] as
//! reviewed in §2.2:
//!
//! - **Initialization** — a Largest-Degree-First (LDF) priority order
//!   turns the undirected input into a DAG whose arcs point from
//!   higher- to lower-priority vertices. Each vertex receives a bitmap
//!   of `indegree + 1` possible colors.
//! - **Coloring** — Jones-Plassmann in rounds, accelerated by two
//!   shortcuts: **shortcut 1** colors a vertex as soon as its best
//!   possible color is no longer under consideration by any
//!   higher-priority neighbor; **shortcut 2** drops a dependency arc
//!   when the two endpoints' possible-color sets become disjoint.
//!
//! Vertices with degree ≤ 31 run in the register-resident kernel;
//! higher-degree vertices take the `runLarge` path with multi-word
//! bitmaps, where the paper's Table 5 counters live: per-vertex "best
//! available color changed" and "color assignment not yet possible".

pub mod bitmap;
pub mod counters;
pub mod kernel;
pub mod priority;

use ecl_gpusim::schedule::{KnobDomain, KnobSpec, BLOCK_SIZES};
use ecl_gpusim::Device;
use ecl_graph::Csr;
use ecl_profiling::Counter::{self, Count, Sketch};
use ecl_profiling::ProfileMode;

pub use counters::GcCounters;

/// Degree threshold above which a vertex is handled by the `runLarge`
/// kernel (the paper instruments "the runLarge kernel, which colors
/// high-degree vertices (degree > 31)").
pub const LARGE_DEGREE: usize = 31;

/// The schedule knobs [`GcConfig::apply_schedule`] consumes, with
/// their admissible values; the defaults reproduce
/// [`GcConfig::default`].
pub const KNOBS: [KnobSpec; 3] = [
    KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 2 },
    KnobSpec { name: "shortcut1", domain: KnobDomain::Bool, default_ix: 1 },
    KnobSpec { name: "shortcut2", domain: KnobDomain::Bool, default_ix: 1 },
];

/// Configuration of one ECL-GC run.
#[derive(Clone, Copy, Debug)]
pub struct GcConfig {
    /// Threads per block.
    pub block_size: usize,
    /// Enable shortcut 1 (early coloring when the best color is free).
    pub shortcut1: bool,
    /// Enable shortcut 2 (dependency removal on disjoint bitmaps).
    pub shortcut2: bool,
    /// Whether counters record.
    pub mode: ProfileMode,
}

impl Default for GcConfig {
    fn default() -> Self {
        Self { block_size: 256, shortcut1: true, shortcut2: true, mode: ProfileMode::On }
    }
}

impl GcConfig {
    /// Plain Jones-Plassmann without either shortcut (the ablation
    /// baseline).
    pub fn no_shortcuts() -> Self {
        Self { shortcut1: false, shortcut2: false, ..Self::default() }
    }

    /// Overrides fields named in a tuning [`Schedule`]
    /// (`block_size`, `shortcut1`, `shortcut2`); absent knobs leave
    /// the current value untouched.
    pub fn apply_schedule(&mut self, s: &ecl_gpusim::Schedule) {
        if let Some(bs) = s.int_knob("block_size") {
            self.block_size = bs.max(1) as usize;
        }
        if let Some(s1) = s.bool_knob("shortcut1") {
            self.shortcut1 = s1;
        }
        if let Some(s2) = s.bool_knob("shortcut2") {
            self.shortcut2 = s2;
        }
    }
}

/// Result of an ECL-GC run.
#[derive(Debug)]
pub struct GcResult {
    /// Color per vertex, starting at 0.
    pub colors: Vec<u32>,
    /// Collected counters.
    pub counters: GcCounters,
    /// Coloring rounds until quiescence.
    pub rounds: u32,
}

impl GcResult {
    /// Number of distinct colors used.
    pub fn num_colors(&self) -> usize {
        let mut cs = self.colors.clone();
        cs.sort_unstable();
        cs.dedup();
        cs.len()
    }

    /// The run's named counters, in the fixed order `ecl-run` prints
    /// them; the first is the sketch a profile manifest leads with.
    /// `g` is the colored graph: the `large_*` distributions cover
    /// its vertices of degree above [`LARGE_DEGREE`], Table 5's
    /// runLarge vertices. A sketch keeps sum, count and max exactly, so
    /// their avg and max equal [`GcCounters::large_vertex_summaries`].
    pub fn counters(&self, g: &Csr) -> Vec<(&'static str, Counter)> {
        let c = &self.counters;
        let large = |v: usize| g.degree(v as u32) > LARGE_DEGREE;
        vec![
            ("gc/scan_per_visit", Sketch(c.scan_per_visit.snapshot())),
            ("gc/large_best_changed", Sketch(c.best_changed.sketch(large))),
            ("gc/large_not_yet_possible", Sketch(c.not_yet_possible.sketch(large))),
            ("gc/shortcut2_removals", Count(c.shortcut2_removals.get())),
            ("gc/not_yet_possible", Sketch(c.not_yet_possible.sketch(|_| true))),
        ]
    }
}

/// Runs ECL-GC on an undirected, self-loop-free graph.
///
/// # Panics
/// Panics if `g` is directed or has self-loops (a self-looped vertex
/// cannot be properly colored).
pub fn run(device: &Device, g: &Csr, config: &GcConfig) -> GcResult {
    assert!(!g.is_directed(), "ECL-GC consumes undirected graphs");
    assert!(
        ecl_graph::validate::check_no_self_loops(g).is_ok(),
        "ECL-GC requires self-loop-free inputs"
    );
    kernel::color(device, g, config)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;
    use ecl_ref::is_proper_coloring;

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
    fn triangle_three_colors() {
        let g = undirected(3, &[(0, 1), (1, 2), (0, 2)]);
        let r = run(&device(), &g, &GcConfig::default());
        assert!(is_proper_coloring(&g, &r.colors));
        assert_eq!(r.num_colors(), 3);
    }

    #[test]
    fn bipartite_two_colors() {
        let g = undirected(6, &[(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]);
        let r = run(&device(), &g, &GcConfig::default());
        assert!(is_proper_coloring(&g, &r.colors));
        assert!(r.num_colors() <= 3);
    }

    #[test]
    fn empty_graph_single_color() {
        let g = Csr::empty(7, false);
        let r = run(&device(), &g, &GcConfig::default());
        assert!(is_proper_coloring(&g, &r.colors));
        assert_eq!(r.num_colors(), 1);
    }

    #[test]
    fn proper_on_generated_families() {
        for (name, g) in [
            ("torus", ecl_graphgen::grid::torus_2d(12, 12)),
            ("er", ecl_graphgen::random::erdos_renyi(400, 6.0, 21)),
            ("pa", ecl_graphgen::powerlaw::preferential_attachment(400, 4.0, 22)),
            ("overlay", ecl_graphgen::powerlaw::clique_overlay(300, 200, 6, 23)),
        ] {
            let r = run(&device(), &g, &GcConfig::default());
            assert!(is_proper_coloring(&g, &r.colors), "{name} improper");
        }
    }

    #[test]
    fn color_count_bounded_by_max_degree_plus_one() {
        let g = ecl_graphgen::powerlaw::preferential_attachment(300, 5.0, 31);
        let r = run(&device(), &g, &GcConfig::default());
        let max_deg = (0..300u32).map(|v| g.degree(v)).max().unwrap();
        assert!(r.num_colors() <= max_deg + 1);
    }

    #[test]
    fn deterministic_coloring() {
        // ECL-GC's result does not depend on timing: every vertex's
        // color is forced by the priority DAG.
        let g = ecl_graphgen::random::erdos_renyi(300, 5.0, 17);
        let first = run(&device(), &g, &GcConfig::default());
        for _ in 0..3 {
            let again = run(&device(), &g, &GcConfig::default());
            assert_eq!(first.colors, again.colors);
        }
    }

    #[test]
    fn shortcuts_do_not_change_colors() {
        // The shortcuts "increase parallelism ... without compromising
        // coloring quality" (§2.2): same coloring, fewer rounds.
        let g = ecl_graphgen::random::erdos_renyi(400, 6.0, 29);
        let with = run(&device(), &g, &GcConfig::default());
        let without = run(&device(), &g, &GcConfig::no_shortcuts());
        assert_eq!(with.colors, without.colors);
        assert!(with.rounds <= without.rounds);
    }

    #[test]
    fn shortcuts_reduce_total_rounds() {
        // The shortcuts exist to "increase parallelism" (§2.2): across
        // several dense random graphs they must strictly lower the
        // total number of coloring rounds.
        let mut with_total = 0u32;
        let mut without_total = 0u32;
        for seed in 0..5 {
            let g = ecl_graphgen::random::erdos_renyi(400, 10.0, seed);
            let with = run(&device(), &g, &GcConfig::default());
            let without = run(&device(), &g, &GcConfig::no_shortcuts());
            assert!(is_proper_coloring(&g, &with.colors));
            assert_eq!(with.colors, without.colors);
            with_total += with.rounds;
            without_total += without.rounds;
        }
        assert!(
            with_total < without_total,
            "shortcut rounds {with_total} !< plain rounds {without_total}"
        );
    }

    #[test]
    fn table5_counters_track_large_vertices() {
        // A dense overlay has degree->31 vertices whose best color gets
        // invalidated repeatedly.
        let g = ecl_graphgen::powerlaw::clique_overlay(400, 600, 8, 5);
        let r = run(&device(), &g, &GcConfig::default());
        let (bc, nyp) = r.counters.large_vertex_summaries(&g, LARGE_DEGREE);
        assert!(bc.count > 0, "no large vertices generated");
        // Dense inputs must show nonzero invalidations / stalls.
        assert!(bc.avg + nyp.avg > 0.0);
    }

    #[test]
    fn sparse_input_low_table5_counts() {
        // internet-like inputs yield ~0 average counts (Table 5).
        let g = ecl_graphgen::powerlaw::preferential_attachment(500, 1.55, 9);
        let r = run(&device(), &g, &GcConfig::default());
        let (bc, _) = r.counters.large_vertex_summaries(&g, LARGE_DEGREE);
        assert!(bc.avg < 2.0, "sparse input should rarely invalidate, avg {}", bc.avg);
    }

    #[test]
    fn profile_off_still_proper() {
        let g = ecl_graphgen::grid::torus_2d(8, 8);
        let cfg = GcConfig { mode: ProfileMode::Off, ..GcConfig::default() };
        let r = run(&device(), &g, &cfg);
        assert!(is_proper_coloring(&g, &r.colors));
        assert_eq!(r.counters.best_changed.total(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        run(&device(), &b.build(), &GcConfig::default());
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn rejects_directed() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1);
        run(&device(), &b.build(), &GcConfig::default());
    }
}
