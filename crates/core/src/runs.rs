//! Run-to-run aggregation for internally non-deterministic codes.
//!
//! ECL-MIS is deterministic in its final result but its intermediate
//! behavior depends on thread timing (§3, §6.1.1), so the paper profiles
//! it several times and reports each run side by side (Table 3). This
//! module collects per-run summaries and quantifies their stability.

use crate::stats::{median, Summary};

/// Per-run summaries of one metric across repeated executions.
#[derive(Clone, Debug, Default)]
pub struct MultiRun {
    runs: Vec<Summary>,
}

impl MultiRun {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one run's metric summary.
    pub fn push(&mut self, summary: Summary) {
        self.runs.push(summary);
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The summary of run `i`.
    pub fn run(&self, i: usize) -> &Summary {
        &self.runs[i]
    }

    /// All run summaries.
    pub fn runs(&self) -> &[Summary] {
        &self.runs
    }

    /// Relative spread of the per-run averages:
    /// `(max avg − min avg) / median avg`. Small values mean the metric
    /// is stable despite internal non-determinism — the Table 3 finding
    /// ("the iteration counts are a little different for every run, but
    /// the general trends remain the same").
    pub fn avg_spread(&self) -> f64 {
        self.spread(|s| s.avg)
    }

    /// Like [`MultiRun::avg_spread`] but over the per-run maxima, which
    /// vary more (Table 3's Max columns).
    pub fn max_spread(&self) -> f64 {
        self.spread(|s| s.max)
    }

    /// `(max − min) / median` of one field over the runs; 0 when empty
    /// or when the median is 0.
    fn spread(&self, field: impl Fn(&Summary) -> f64) -> f64 {
        let values: Vec<f64> = self.runs.iter().map(field).collect();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mid = median(&values);
        if mid == 0.0 {
            0.0
        } else {
            (hi - lo) / mid
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn s(avg: f64, max: f64) -> Summary {
        Summary { count: 10, sum: avg * 10.0, avg, max, min: 0.0, std: 0.0 }
    }

    #[test]
    fn collects_runs() {
        let mut m = MultiRun::new();
        m.push(s(2.28, 42.0));
        m.push(s(2.32, 49.0));
        m.push(s(2.26, 37.0));
        assert_eq!(m.len(), 3);
        assert_eq!(m.run(1).avg, 2.32);
    }

    #[test]
    fn stable_runs_have_small_spread() {
        let mut m = MultiRun::new();
        m.push(s(2.28, 42.0));
        m.push(s(2.32, 49.0));
        m.push(s(2.26, 37.0));
        assert!(m.avg_spread() < 0.05, "avg spread {}", m.avg_spread());
        assert!(m.max_spread() < 0.35, "max spread {}", m.max_spread());
    }

    #[test]
    fn unstable_runs_have_large_spread() {
        let mut m = MultiRun::new();
        m.push(s(1.0, 10.0));
        m.push(s(9.0, 90.0));
        assert!(m.avg_spread() > 1.0);
    }

    #[test]
    fn empty_multirun() {
        let m = MultiRun::new();
        assert!(m.is_empty());
        assert_eq!(m.avg_spread(), 0.0);
    }

    #[test]
    fn zero_average_spread_guard() {
        let mut m = MultiRun::new();
        m.push(s(0.0, 0.0));
        m.push(s(0.0, 0.0));
        assert_eq!(m.avg_spread(), 0.0);
        assert_eq!(m.max_spread(), 0.0);
    }
}
