//! Convergence traces: one scalar per round/iteration.
//!
//! Iterative irregular algorithms converge by shrinking something —
//! undecided vertices (MIS), uncolored vertices (GC), components
//! (MST), surviving edges (SCC). Recording that scalar per round is
//! the cheapest possible progress instrumentation and immediately
//! shows convergence pathologies (plateaus, slow tails) that aggregate
//! counters hide.

use parking_lot::Mutex;

/// An append-only series of per-round scalars.
#[derive(Debug, Default)]
pub struct ConvergenceTrace {
    points: Mutex<Vec<u64>>,
}

impl ConvergenceTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the value observed at the end of a round.
    pub fn push(&self, value: u64) {
        self.points.lock().push(value);
    }

    /// The recorded series.
    pub fn values(&self) -> Vec<u64> {
        self.points.lock().clone()
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.points.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.lock().is_empty()
    }

    /// True if the series never increases — the expected shape for a
    /// monotonically shrinking quantity.
    pub fn is_non_increasing(&self) -> bool {
        let pts = self.points.lock();
        pts.windows(2).all(|w| w[0] >= w[1])
    }

    /// Renders the trace as a one-line-per-round bar chart.
    pub fn render(&self, title: &str, width: usize) -> String {
        let pts = self.points.lock();
        let entries: Vec<(String, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("round {:>3}", i + 1), v as f64))
            .collect();
        crate::chart::bar_chart(title, &entries, width)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let t = ConvergenceTrace::new();
        t.push(100);
        t.push(40);
        t.push(5);
        assert_eq!(t.values(), vec![100, 40, 5]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn monotonicity_check() {
        let t = ConvergenceTrace::new();
        for v in [50, 30, 30, 10] {
            t.push(v);
        }
        assert!(t.is_non_increasing());
        t.push(12);
        assert!(!t.is_non_increasing());
    }

    #[test]
    fn renders_rounds() {
        let t = ConvergenceTrace::new();
        t.push(10);
        t.push(3);
        let s = t.render("undecided", 20);
        assert!(s.contains("round   1"));
        assert!(s.contains("round   2"));
    }

    #[test]
    fn concurrent_pushes_all_land() {
        let t = ConvergenceTrace::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for v in 0..100 {
                        t.push(v);
                    }
                });
            }
        });
        assert_eq!(t.len(), 800);
    }
}
