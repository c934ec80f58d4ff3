//! Exact order statistics over the samples of one run. Every quantile
//! is computed from the full sample `Vec` (no sketch, no buckets).

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two closest ranks. `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// First and third quartile of an ascending slice of at least two
/// values, as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method: rank `q (n + 1)`, clamped to the data):
/// the spread the ledger reports is the one the benchmark's contract
/// is checked with.
pub fn quartiles_exclusive(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |q: f64| {
        let rank = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = rank.floor() as usize;
        sorted[lo] + (sorted[(lo + 1).min(n - 1)] - sorted[lo]) * (rank - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// Sorts a copy of `samples` ascending (NaNs are not expected).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Count, quartiles and upper percentiles of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            p90: quantile(&s, 0.9),
            p99: quantile(&s, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 1.0), 40.0);
        assert_eq!(quantile(&s, 0.5), 25.0);
        assert!((quantile(&s, 0.9) - 37.0).abs() < 1e-9);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&s), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles_exclusive(&[10.0, 20.0, 40.0]), (10.0, 40.0));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!((s.p90 - 4.6).abs() < 1e-9);
    }

    #[test]
    fn p90_of_a_one_in_five_slow_class_is_that_class_median() {
        // 80 fast jobs and 20 slow ones: the p90 sits mid-way through
        // the slow class, which is why `lat_p90_ms` reads the slowest
        // algorithm (batch) or the misses (serve-mix).
        let mut v: Vec<f64> = (0..80).map(|i| 1.0 + i as f64 * 0.001).collect();
        v.extend((0..20).map(|i| 100.0 + i as f64));
        let s = Summary::of(&v);
        assert!((109.0..=111.0).contains(&s.p90), "{}", s.p90);
    }
}
