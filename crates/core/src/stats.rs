//! Summary statistics and correlation over counter values.

/// Average / maximum / minimum / standard deviation of a metric across
/// threads (or vertices), the aggregate form the paper's tables use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sum of samples.
    pub sum: f64,
    /// Arithmetic mean (0 for an empty sample set).
    pub avg: f64,
    /// Maximum (0 for an empty sample set).
    pub max: f64,
    /// Minimum (0 for an empty sample set).
    pub min: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Summary {
    /// Summary of `u64` samples (per-thread counter slots).
    pub fn of_u64(values: &[u64]) -> Self {
        let values = values.iter().map(|&v| v as f64);
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for v in values.clone() {
            count += 1;
            sum += v;
            max = max.max(v);
            min = min.min(v);
        }
        if count == 0 {
            return Self { count: 0, sum: 0.0, avg: 0.0, max: 0.0, min: 0.0, std: 0.0 };
        }
        let avg = sum / count as f64;
        let var = values.map(|v| (v - avg) * (v - avg)).sum::<f64>() / count as f64;
        Self { count, sum, avg, max, min, std: var.sqrt() }
    }
}

/// Pearson correlation coefficient between two equally long sample
/// vectors. Returns 0 when either vector is constant or the vectors are
/// shorter than 2 (no linear relationship measurable).
///
/// The paper uses this to relate per-thread iteration counts to graph
/// degree skew (r = 0.64), vertex counts (r = −0.37, r ≥ 0.98), and GC
/// invalidation counts to average degree (r ≈ 0.62) — §6.1.
///
/// # Panics
/// Panics if the vectors differ in length.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation requires equal-length vectors");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Median of a sample set (averaging the two middle elements for even
/// counts). The paper reports the run with the median runtime out of
/// nine (§5.2). Returns 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of_u64(&[1, 2, 3, 4]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10.0);
        assert_eq!(s.avg, 2.5);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.min, 1.0);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of_u64(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.avg, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn summary_single() {
        let s = Summary::of_u64(&[7]);
        assert_eq!(s.avg, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 7.0);
    }

    #[test]
    fn pearson_perfect_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_constant() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn pearson_short_vectors() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn pearson_length_mismatch_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
