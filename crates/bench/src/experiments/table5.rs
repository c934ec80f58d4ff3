//! Table 5: ECL-GC runLarge per-vertex statistics.
//!
//! Per input with high-degree vertices: "best available color changed"
//! and "color assignment not yet possible" (avg/max over vertices of
//! degree > 31). Also reproduces the §6.1.5 correlation of the
//! averages with the input's average degree (r ≈ 0.62 in the paper).

use ecl_algos::cells::{Input, Key, Run};
use ecl_gc::LARGE_DEGREE;
use ecl_graph::DegreeStats;
use ecl_profiling::{pearson, SketchSnapshot, Table};

use super::{general, sketch};

/// One input's runLarge statistics.
#[derive(Clone, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Best-available-color-changed counts of the large vertices.
    pub best_changed: SketchSnapshot,
    /// Color-assignment-not-yet-possible counts of the large vertices.
    pub not_yet_possible: SketchSnapshot,
    /// Degree statistics of the generated input.
    pub stats: DegreeStats,
}

/// ECL-GC under its default schedule on every general input that has
/// runLarge vertices at this scale (the paper likewise "excludes inputs
/// that only have vertices with degrees below this threshold").
pub fn keys(input: &Input) -> Option<Vec<Key>> {
    let large = || DegreeStats::of(input.graph()).d_max > LARGE_DEGREE;
    (general(input) && large()).then(|| vec![Key::new("gc", &[])])
}

/// The run's large-vertex counters and the graph's degree statistics.
pub fn row(input: &Input, runs: &[&Run]) -> Row {
    Row {
        name: input.spec.name,
        best_changed: sketch(runs[0], "gc/large_best_changed"),
        not_yet_possible: sketch(runs[0], "gc/large_not_yet_possible"),
        stats: DegreeStats::of(input.graph()),
    }
}

/// Correlation of the two averages with the input's average degree:
/// `(best_changed_vs_davg, not_yet_possible_vs_davg)`.
pub fn degree_correlations(rows: &[Row]) -> (f64, f64) {
    let davg: Vec<f64> = rows.iter().map(|r| r.stats.d_avg).collect();
    let bc: Vec<f64> = rows.iter().map(|r| r.best_changed.mean()).collect();
    let nyp: Vec<f64> = rows.iter().map(|r| r.not_yet_possible.mean()).collect();
    (pearson(&davg, &bc), pearson(&davg, &nyp))
}

/// Renders the paper-shaped table and the §6.1.5 correlations.
pub fn render(scale: f64, rows: &[Row]) -> String {
    let mut t = Table::new(
        &format!("Table 5: ECL-GC runLarge per-vertex statistics (scale {scale})"),
        &["Graph", "BestChg Avg", "BestChg Max", "NotYet Avg", "NotYet Max"],
    );
    for r in rows {
        t.row(&[
            r.name,
            &format!("{:.2}", r.best_changed.mean()),
            &r.best_changed.max.to_string(),
            &format!("{:.2}", r.not_yet_possible.mean()),
            &r.not_yet_possible.max.to_string(),
        ]);
    }
    let (c_bc, c_nyp) = degree_correlations(rows);
    format!(
        "{}\nCorrelation with average degree: best-changed r = {c_bc:.2}, \
         not-yet-possible r = {c_nyp:.2} (paper ~0.62 for both).\n",
        t.render()
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiments::visited;

    #[test]
    fn dense_inputs_dominate() {
        let rs = visited(keys, row, 0.004, 3);
        assert!(!rs.is_empty(), "no inputs had runLarge vertices");
        // coPapersDBLP (densest) should show higher stall counts than
        // a sparse input, when both appear.
        let dense = rs.iter().find(|r| r.name == "coPapersDBLP");
        let sparse = rs.iter().find(|r| r.name == "amazon0601");
        if let (Some(d), Some(s)) = (dense, sparse) {
            assert!(
                d.not_yet_possible.mean() >= s.not_yet_possible.mean(),
                "coPapersDBLP {} < amazon0601 {}",
                d.not_yet_possible.mean(),
                s.not_yet_possible.mean()
            );
        }
    }

    #[test]
    fn correlation_with_density_positive() {
        let rs = visited(keys, row, 0.004, 3);
        if rs.len() >= 4 {
            let (bc, nyp) = degree_correlations(&rs);
            assert!(bc > 0.0, "best-changed vs d-avg correlation {bc} not positive");
            assert!(nyp > 0.0, "not-yet-possible vs d-avg correlation {nyp} not positive");
        }
    }
}
