//! ECL-MIS: maximal independent set on the GPU execution model.
//!
//! Port of the algorithm of Burtscher et al. \[12\] as reviewed in §2.3:
//!
//! - **Initialization** — each vertex gets a compact one-byte value
//!   encoding both status and priority. Undecided vertices hold a
//!   priority in `1..=253` derived from the degree (low degree →
//!   high priority) with vertex ids breaking ties; `IN` and `OUT` are
//!   reserved encodings. See [`status`].
//! - **Selection** — persistent threads process their round-robin
//!   vertex share asynchronously: a vertex whose priority is highest
//!   among its undecided neighbors goes *in* and its neighbors go
//!   *out*. Updates are monotonic (undecided → decided only), so no
//!   synchronization is required; short-circuit checks cut work.
//!
//! The asynchronous spin of a CUDA persistent thread is simulated as a
//! sequence of *rounds*: each round every thread makes one pass over
//! its still-undecided vertices; a thread's **iteration count** is the
//! number of rounds in which it still had undecided work — the Table 2
//! metric. Within a round, threads run concurrently and observe each
//! other's partial updates, which makes the intermediate counts
//! timing-dependent (Table 3) while the final set stays deterministic
//! (the §3 observation).

pub mod kernel;
pub mod status;

use ecl_gpusim::schedule::{KnobDomain, KnobSpec};
use ecl_gpusim::Device;
use ecl_graph::Csr;
use ecl_profiling::Counter::{self, Sketch};
use ecl_profiling::{ConvergenceTrace, LogSketch, PerThreadCounter, ProfileMode};

/// The schedule knobs [`MisConfig::apply_schedule`] consumes, with
/// the values a search may try; the defaults reproduce
/// [`MisConfig::default`]. (A serving job's seed-derived `tie_salt`
/// is applied directly and need not be one of the searched salts.)
pub const KNOBS: [KnobSpec; 2] = [
    KnobSpec {
        name: "priority",
        domain: KnobDomain::Choice(&["degree", "random", "id"]),
        default_ix: 0,
    },
    KnobSpec {
        name: "tie_salt",
        domain: KnobDomain::Ints(&[0, 0x9E37, 0x85EB, 0xC2B2]),
        default_ix: 0,
    },
];

/// Configuration of one ECL-MIS run.
#[derive(Clone, Copy, Debug)]
pub struct MisConfig {
    /// Whether counters record.
    pub mode: ProfileMode,
    /// Selection-priority policy (ECL-MIS default: degree-based).
    pub priority: status::PriorityPolicy,
    /// Salt folded into the hashed-id tie-break
    /// ([`status::beats_salted`]). 0 (the default) is the historical
    /// permutation; a per-job seed maps to a salt so repeated requests
    /// with the same seed are byte-identical while different seeds
    /// explore different (equally valid) maximal sets.
    pub tie_salt: u32,
}

impl Default for MisConfig {
    fn default() -> Self {
        Self { mode: ProfileMode::On, priority: status::PriorityPolicy::DegreeBased, tie_salt: 0 }
    }
}

impl MisConfig {
    /// The ablation variant with the given priority policy.
    pub fn with_priority(priority: status::PriorityPolicy) -> Self {
        Self { priority, ..Self::default() }
    }

    /// The default policy with the tie-break permutation selected by a
    /// 64-bit job seed (folded to a salt; seed 0 is the historical
    /// permutation).
    pub fn seeded(seed: u64) -> Self {
        Self { tie_salt: (seed ^ (seed >> 32)) as u32, ..Self::default() }
    }

    /// Overrides fields named in a tuning [`Schedule`] (`priority`:
    /// degree|random|id, `tie_salt`); absent knobs leave the current
    /// value untouched. Callers that derive the salt from a job seed
    /// should apply the schedule first and the seed after, so the seed
    /// keeps result-cache semantics.
    pub fn apply_schedule(&mut self, s: &ecl_gpusim::Schedule) {
        match s.str_knob("priority") {
            Some("degree") => self.priority = status::PriorityPolicy::DegreeBased,
            Some("random") => self.priority = status::PriorityPolicy::RandomPermutation,
            Some("id") => self.priority = status::PriorityPolicy::IdOrder,
            _ => {}
        }
        if let Some(salt) = s.int_knob("tie_salt") {
            self.tie_salt = salt as u32;
        }
    }
}

/// Per-thread counters of the main kernel (Table 2).
#[derive(Debug)]
pub struct MisCounters {
    /// Rounds in which the thread still had undecided vertices
    /// ("Iterations").
    pub iterations: PerThreadCounter,
    /// Vertices assigned to the thread ("Vertices": n/T ± 1 by
    /// round-robin).
    pub assigned: PerThreadCounter,
    /// Vertices the thread marked `in` ("Finalized").
    pub finalized: PerThreadCounter,
    /// Undecided vertices remaining after each round.
    pub undecided_per_round: ConvergenceTrace,
    /// Streaming distribution of per-thread spins per round — the
    /// percentile view of `iterations`: Table 2 reports the total, the
    /// sketch's p99/max exposes the straggler threads that gate each
    /// round.
    pub spins_per_round: LogSketch,
}

impl MisCounters {
    /// Counters sized for `num_threads` persistent threads.
    pub fn new(num_threads: usize) -> Self {
        Self {
            iterations: PerThreadCounter::new(num_threads),
            assigned: PerThreadCounter::new(num_threads),
            finalized: PerThreadCounter::new(num_threads),
            undecided_per_round: ConvergenceTrace::new(),
            spins_per_round: LogSketch::new(),
        }
    }
}

/// Result of an ECL-MIS run.
#[derive(Debug)]
pub struct MisResult {
    /// Membership bitmap: `true` for vertices in the MIS.
    pub in_set: Vec<bool>,
    /// Per-thread counters.
    pub counters: MisCounters,
    /// Total selection rounds executed (grid-wide).
    pub rounds: u32,
}

impl MisResult {
    /// Size of the selected set.
    pub fn set_size(&self) -> usize {
        self.in_set.iter().filter(|&&b| b).count()
    }

    /// The run's named counters, in the fixed order `ecl-run` prints
    /// them; the first is the sketch a profile manifest leads with.
    pub fn counters(&self) -> Vec<(&'static str, Counter)> {
        let c = &self.counters;
        vec![
            ("mis/spins_per_round", Sketch(c.spins_per_round.snapshot())),
            ("mis/iterations", Sketch(c.iterations.sketch(|_| true))),
            ("mis/assigned", Sketch(c.assigned.sketch(|_| true))),
            ("mis/finalized", Sketch(c.finalized.sketch(|_| true))),
        ]
    }
}

/// Runs ECL-MIS on an undirected graph using the device's persistent
/// thread count.
///
/// # Panics
/// Panics if `g` is directed or contains self-loops (a self-looped
/// vertex can never be independent; the ECL inputs contain none).
pub fn run(device: &Device, g: &Csr, config: &MisConfig) -> MisResult {
    assert!(!g.is_directed(), "ECL-MIS consumes undirected graphs");
    kernel::maximal_independent_set(device, g, config)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;
    use ecl_ref::is_maximal_independent_set;

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
    fn path_graph_valid_mis() {
        let g = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = run(&device(), &g, &MisConfig::default());
        assert!(is_maximal_independent_set(&g, &r.in_set));
        assert!(r.set_size() >= 2);
    }

    #[test]
    fn clique_selects_exactly_one() {
        let mut b = GraphBuilder::new_undirected(8);
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let r = run(&device(), &g, &MisConfig::default());
        assert!(is_maximal_independent_set(&g, &r.in_set));
        assert_eq!(r.set_size(), 1);
    }

    #[test]
    fn empty_graph_selects_all() {
        let g = Csr::empty(10, false);
        let r = run(&device(), &g, &MisConfig::default());
        assert_eq!(r.set_size(), 10);
        assert!(r.rounds >= 1);
    }

    #[test]
    fn valid_on_generated_families() {
        for (name, g) in [
            ("torus", ecl_graphgen::grid::torus_2d(12, 12)),
            ("er", ecl_graphgen::random::erdos_renyi(400, 5.0, 3)),
            ("pa", ecl_graphgen::powerlaw::preferential_attachment(400, 3.0, 4)),
        ] {
            let r = run(&device(), &g, &MisConfig::default());
            assert!(is_maximal_independent_set(&g, &r.in_set), "{name} invalid");
        }
    }

    #[test]
    fn final_set_deterministic_across_runs() {
        // The paper: "deterministic in their final results but exhibit
        // internal non-determinism".
        let g = ecl_graphgen::random::erdos_renyi(500, 6.0, 7);
        let first = run(&device(), &g, &MisConfig::default());
        for _ in 0..4 {
            let again = run(&device(), &g, &MisConfig::default());
            assert_eq!(first.in_set, again.in_set);
        }
    }

    #[test]
    fn low_degree_vertices_preferred() {
        // Star: the hub has maximal degree, so all leaves should win.
        let g = undirected(9, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8)]);
        let r = run(&device(), &g, &MisConfig::default());
        assert!(!r.in_set[0], "hub should lose to its leaves");
        assert_eq!(r.set_size(), 8);
    }

    #[test]
    fn assignment_is_round_robin_balanced() {
        let g = Csr::empty(1000, false);
        let d = device();
        let r = run(&d, &g, &MisConfig::default());
        let s = r.counters.assigned.summary();
        // All threads get n/T ± 1 vertices.
        assert!(s.max - s.min <= 1.0, "assignment imbalance: {s:?}");
        assert_eq!(s.sum as usize, 1000);
    }

    #[test]
    fn finalized_totals_match_set_size() {
        let g = ecl_graphgen::random::erdos_renyi(300, 4.0, 11);
        let r = run(&device(), &g, &MisConfig::default());
        assert_eq!(r.counters.finalized.total() as usize, r.set_size());
    }

    #[test]
    fn iterations_recorded_with_spin_semantics() {
        let g = ecl_graphgen::random::erdos_renyi(500, 5.0, 13);
        let r = run(&device(), &g, &MisConfig::default());
        let s = r.counters.iterations.summary();
        // Every thread with work iterates at least once per round it
        // was active in; blocked threads spin more.
        assert!(s.max >= r.rounds as f64 - 1.0, "max {} rounds {}", s.max, r.rounds);
        assert!(s.max >= 1.0);
    }

    #[test]
    fn small_skewed_input_spins_more_than_large_uniform() {
        // The §6.1.1 surprise: the *maximum* iteration count is higher
        // on a small input than on a much larger one, because threads
        // with a single cheap vertex spin rapidly while a heavy
        // straggler thread finishes its pass.
        // internet-like: tiny, power-law; europe_osm-like: much
        // larger, uniform low degree (the paper's contrast: internet
        // max 52 vs europe_osm max 15 despite the size difference).
        let small_skewed = ecl_graphgen::powerlaw::preferential_attachment(300, 1.55, 2);
        let large_uniform = ecl_graphgen::grid::roadmap(36, 36, 8, 2);
        assert!(large_uniform.num_vertices() > 20 * small_skewed.num_vertices());
        let r_small = run(&device(), &small_skewed, &MisConfig::default());
        let r_large = run(&device(), &large_uniform, &MisConfig::default());
        let max_small = r_small.counters.iterations.summary().max;
        let max_large = r_large.counters.iterations.summary().max;
        assert!(
            max_small > max_large,
            "small skewed input should spin more: {max_small} vs {max_large}"
        );
    }

    #[test]
    fn profile_off_still_valid() {
        let g = ecl_graphgen::grid::torus_2d(10, 10);
        let r = run(&device(), &g, &MisConfig { mode: ProfileMode::Off, ..MisConfig::default() });
        assert!(is_maximal_independent_set(&g, &r.in_set));
        assert_eq!(r.counters.iterations.total(), 0);
    }

    #[test]
    fn all_priority_policies_yield_valid_mis() {
        use status::PriorityPolicy;
        let g = ecl_graphgen::random::erdos_renyi(500, 5.0, 21);
        for policy in [
            PriorityPolicy::DegreeBased,
            PriorityPolicy::RandomPermutation,
            PriorityPolicy::IdOrder,
        ] {
            let r = run(&device(), &g, &MisConfig::with_priority(policy));
            assert!(
                is_maximal_independent_set(&g, &r.in_set),
                "{policy:?} produced an invalid MIS"
            );
        }
    }

    #[test]
    fn degree_priority_boosts_mis_size() {
        // The §2.3 claim: favoring low-degree vertices yields larger
        // sets than a degree-blind permutation. Compare across several
        // skewed graphs; degree-based must win in aggregate.
        use status::PriorityPolicy;
        let mut degree_total = 0usize;
        let mut random_total = 0usize;
        for seed in 0..5 {
            let g = ecl_graphgen::powerlaw::preferential_attachment(800, 4.0, seed);
            degree_total += run(&device(), &g, &MisConfig::default()).set_size();
            random_total +=
                run(&device(), &g, &MisConfig::with_priority(PriorityPolicy::RandomPermutation))
                    .set_size();
        }
        assert!(
            degree_total > random_total,
            "degree-based MIS ({degree_total}) should exceed random ({random_total})"
        );
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn rejects_directed() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1);
        run(&device(), &b.build(), &MisConfig::default());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        run(&device(), &b.build(), &MisConfig::default());
    }
}
