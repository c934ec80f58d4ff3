//! Deterministic schedule search.
//!
//! Two strategies, chosen by comparing the searchable-space size to
//! the evaluation budget:
//!
//! - **exhaustive**: when the product of the searchable knob domains
//!   fits the budget, enumerate every combination in odometer order.
//!   Ties go to the earliest candidate, so the winner is stable.
//! - **coordinate descent**: otherwise, start from the default
//!   schedule and repeatedly scan one knob's domain at a time (knob
//!   order is a seeded permutation), keeping strict improvements. An
//!   early-abandon rule prunes a domain scan after
//!   [`SearchConfig::abandon_after`] consecutive candidates worse than
//!   `best × abandon_ratio` — the classic autotuner trick for skipping
//!   hopeless regions without losing determinism.
//!
//! The searched space is the algorithm's knob table
//! ([`Algorithm::knobs`]), and every emitted schedule assigns each of
//! its knobs. Host dispatch is not searched: every candidate is
//! evaluated in order (see [`crate::eval`]).
//!
//! Every distinct candidate is evaluated exactly once (memoized by
//! canonical JSON), and all evaluation times are recorded into an
//! `ecl-profiling` log sketch for manifest provenance.

use std::collections::BTreeMap;

use ecl_algos::cells::Input;
use ecl_algos::Algorithm;
use ecl_gpusim::Schedule;
use ecl_profiling::{LogSketch, SketchSnapshot};

use crate::eval::evaluate;

/// Search driver configuration.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Maximum distinct candidate evaluations.
    pub budget: usize,
    /// Seed for the coordinate-descent knob permutation.
    pub seed: u64,
    /// Abandon a domain scan after this many consecutive candidates
    /// beyond the abandon ratio.
    pub abandon_after: usize,
    /// "Hopeless" multiple of the best-known time.
    pub abandon_ratio: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { budget: 128, seed: 42, abandon_after: 2, abandon_ratio: 1.25 }
    }
}

/// The outcome of one (algorithm, input) search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Best complete schedule found (every knob of the table).
    pub best: Schedule,
    /// Modeled time of `best`.
    pub best_time: f64,
    /// Modeled time of the default schedule.
    pub default_time: f64,
    /// Distinct candidates evaluated.
    pub evaluations: usize,
    /// Size of the searchable space (domain product).
    pub space: usize,
    /// `"exhaustive"` or `"coordinate_descent"`.
    pub method: &'static str,
    /// Sketch over all evaluation times (cost units), for manifest
    /// provenance.
    pub eval_sketch: SketchSnapshot,
}

/// Splitmix-style step for the knob permutation.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

/// Memoizing evaluator: distinct candidates run once, repeats are
/// free.
struct Memo<'a> {
    algo: &'a dyn Algorithm,
    input: &'a Input,
    cache: BTreeMap<String, f64>,
    evaluations: usize,
    sketch: LogSketch,
}

impl Memo<'_> {
    fn time(&mut self, s: &Schedule, budget: usize) -> Result<Option<f64>, String> {
        let key = s.to_json();
        if let Some(&t) = self.cache.get(&key) {
            return Ok(Some(t));
        }
        if self.evaluations >= budget {
            return Ok(None);
        }
        let out = evaluate(self.algo, self.input, s)?;
        self.evaluations += 1;
        self.sketch.record(out.modeled_time.max(0.0).round() as u64);
        self.cache.insert(key, out.modeled_time);
        Ok(Some(out.modeled_time))
    }
}

/// Runs the search for `algo` on `input`.
pub fn search(
    algo: &dyn Algorithm,
    input: &Input,
    cfg: &SearchConfig,
) -> Result<SearchResult, String> {
    let searchable = algo.knobs();
    let space = searchable.iter().map(|k| k.domain.len()).fold(1usize, |a, b| a.saturating_mul(b));

    let mut memo =
        Memo { algo, input, cache: BTreeMap::new(), evaluations: 0, sketch: LogSketch::new() };

    let default = algo.default_schedule();
    let default_time = memo
        .time(&default, cfg.budget.max(1))?
        .ok_or("budget must admit at least the default evaluation")?;

    let mut best = default.clone();
    let mut best_time = default_time;

    let method = if space <= cfg.budget {
        // Exhaustive: odometer over searchable domains.
        let mut indices = vec![0usize; searchable.len()];
        loop {
            let mut candidate = default.clone();
            for (knob, &ix) in searchable.iter().zip(&indices) {
                candidate.set(knob.name, knob.domain.value(ix));
            }
            if let Some(t) = memo.time(&candidate, cfg.budget)? {
                if t < best_time {
                    best_time = t;
                    best = candidate;
                }
            }
            // Advance the odometer (most-significant knob last, so
            // enumeration order is registry order on the lowest knob).
            let mut pos = 0;
            loop {
                if pos == indices.len() {
                    return Ok(finish(memo, best, best_time, default_time, space, "exhaustive"));
                }
                indices[pos] += 1;
                if indices[pos] < searchable[pos].domain.len() {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    } else {
        // Coordinate descent over a seeded knob permutation.
        let mut order: Vec<usize> = (0..searchable.len()).collect();
        let mut rng = cfg.seed ^ 0x5EED_7A11;
        for i in (1..order.len()).rev() {
            let j = (lcg_next(&mut rng) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        const MAX_ROUNDS: usize = 4;
        'rounds: for _ in 0..MAX_ROUNDS {
            let mut improved = false;
            for &ki in &order {
                let knob = &searchable[ki];
                let mut hopeless = 0usize;
                for vi in 0..knob.domain.len() {
                    let candidate = best.clone().with(knob.name, knob.domain.value(vi));
                    let Some(t) = memo.time(&candidate, cfg.budget)? else {
                        break 'rounds;
                    };
                    if t < best_time {
                        best_time = t;
                        best = candidate;
                        improved = true;
                        hopeless = 0;
                    } else if t > best_time * cfg.abandon_ratio {
                        hopeless += 1;
                        if hopeless >= cfg.abandon_after {
                            break; // early-abandon this domain scan
                        }
                    } else {
                        hopeless = 0;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        "coordinate_descent"
    };
    Ok(finish(memo, best, best_time, default_time, space, method))
}

fn finish(
    memo: Memo<'_>,
    best: Schedule,
    best_time: f64,
    default_time: f64,
    space: usize,
    method: &'static str,
) -> SearchResult {
    SearchResult {
        best,
        best_time,
        default_time,
        evaluations: memo.evaluations,
        space,
        method,
        eval_sketch: memo.sketch.snapshot(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn internet() -> Input {
        Input::from_registry("internet", 0.002, 7).unwrap()
    }

    fn algo(name: &str) -> &'static dyn Algorithm {
        ecl_algos::find(name).unwrap()
    }

    #[test]
    fn search_never_loses_to_default() {
        let input = internet();
        for name in ["cc", "gc", "mis", "mst"] {
            let r = search(algo(name), &input, &SearchConfig::default()).unwrap();
            assert!(r.best_time <= r.default_time, "{name}: tuned must not regress");
            assert!(r.evaluations >= 1 && r.evaluations <= 128);
        }
    }

    #[test]
    fn search_is_deterministic() {
        let input = internet();
        let a = search(algo("cc"), &input, &SearchConfig::default()).unwrap();
        let b = search(algo("cc"), &input, &SearchConfig::default()).unwrap();
        assert_eq!(a.best.to_json(), b.best.to_json());
        assert_eq!(a.best_time.to_bits(), b.best_time.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn cc_search_rediscovers_first_neighbor_init() {
        // The §6.2.2 finding: on a low-diameter power-law input the
        // first-neighbor-only init wins. The search must find it
        // without being told.
        let r = search(algo("cc"), &internet(), &SearchConfig::default()).unwrap();
        assert_eq!(r.best.bool_knob("optimized_init"), Some(true), "{}", r.best.to_json());
        assert!(r.best_time < r.default_time);
    }

    #[test]
    fn mst_search_rediscovers_fixed_launch() {
        // The §6.2.3 finding (Table 8): recomputing the launch
        // configuration wins on high-diameter meshes whose worklists
        // shrink over many iterations (delaunay, roadmaps) and loses
        // on low-diameter inputs like internet. The search must find
        // both sides without being told.
        let mesh = Input::from_registry("delaunay_n24", 0.001, 7).unwrap();
        let r = search(algo("mst"), &mesh, &SearchConfig::default()).unwrap();
        assert_eq!(r.best.bool_knob("fixed_launch"), Some(true), "{}", r.best.to_json());
        assert!(r.best_time < r.default_time);

        let r = search(algo("mst"), &internet(), &SearchConfig::default()).unwrap();
        assert_eq!(r.best.bool_knob("fixed_launch"), Some(false), "{}", r.best.to_json());
    }

    #[test]
    fn scc_search_matches_brute_force_block_size() {
        // The §6.2.1 finding: the winning SCC block size is
        // input-dependent. Whatever the search picks must equal the
        // brute-force winner over the block-size domain.
        let input = Input::from_registry("klein-bottle", 0.002, 7).unwrap();
        let r = search(algo("scc"), &input, &SearchConfig::default()).unwrap();
        let mut brute_best = (f64::INFINITY, 0i64);
        for &bs in &[64i64, 128, 256, 512, 1024] {
            for trim in [false, true] {
                let s = algo("scc")
                    .default_schedule()
                    .with("block_size", ecl_gpusim::KnobValue::Int(bs))
                    .with("trim", ecl_gpusim::KnobValue::Bool(trim));
                let t = evaluate(algo("scc"), &input, &s).unwrap().modeled_time;
                if t < brute_best.0 {
                    brute_best = (t, bs);
                }
            }
        }
        assert_eq!(r.best_time.to_bits(), brute_best.0.to_bits());
        assert_eq!(r.best.int_knob("block_size"), Some(brute_best.1));
    }

    #[test]
    fn tiny_budget_falls_back_to_coordinate_descent() {
        let input = internet();
        let cfg = SearchConfig { budget: 12, ..SearchConfig::default() };
        let r = search(algo("cc"), &input, &cfg).unwrap();
        assert_eq!(r.method, "coordinate_descent");
        assert!(r.evaluations <= 12);
        assert!(r.best_time <= r.default_time);
    }

    #[test]
    fn best_schedule_passes_registry_validation() {
        let input = internet();
        let r = search(algo("gc"), &input, &SearchConfig::default()).unwrap();
        assert!(r.best.check_against_registry(algo("gc").knobs()).is_ok());
        assert_eq!(r.best.len(), algo("gc").knobs().len());
    }

    #[test]
    fn sketch_records_every_evaluation() {
        let input = internet();
        let r = search(algo("gc"), &input, &SearchConfig::default()).unwrap();
        assert_eq!(r.eval_sketch.count as usize, r.evaluations);
        assert!(r.eval_sketch.p50 > 0);
    }
}
