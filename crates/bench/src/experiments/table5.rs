//! Table 5: ECL-GC runLarge per-vertex statistics.
//!
//! Per input with high-degree vertices: "best available color changed"
//! and "color assignment not yet possible" (avg/max over vertices of
//! degree > 31). Also reproduces the §6.1.5 correlation of the
//! averages with the input's average degree (r ≈ 0.62 in the paper).

use ecl_gc::{GcConfig, LARGE_DEGREE};
use ecl_graph::DegreeStats;
use ecl_graphgen::general_inputs;
use ecl_profiling::{pearson, Summary, Table};

use super::run_cells;
use crate::{scaled_device, Inputs};

/// One input's runLarge statistics.
#[derive(Clone, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Best-available-color-changed summary over large vertices.
    pub best_changed: Summary,
    /// Color-assignment-not-yet-possible summary over large vertices.
    pub not_yet_possible: Summary,
    /// Degree statistics of the generated input.
    pub stats: DegreeStats,
}

/// Runs ECL-GC on every general input that has runLarge vertices at
/// this scale (the paper likewise "excludes inputs that only have
/// vertices with degrees below this threshold"), one cell per input.
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    let rows = run_cells(general_inputs(), |spec| {
        let g = inputs.graph(spec);
        let stats = DegreeStats::of(g);
        if stats.d_max <= LARGE_DEGREE {
            return None;
        }
        let device = scaled_device(inputs.scale());
        let r = ecl_gc::run(&device, g, &GcConfig::default());
        let (best_changed, not_yet_possible) = r.counters.large_vertex_summaries(g, LARGE_DEGREE);
        Some(Row { name: spec.name, best_changed, not_yet_possible, stats })
    });
    rows.into_iter().flatten().collect()
}

/// Correlation of the two averages with the input's average degree:
/// `(best_changed_vs_davg, not_yet_possible_vs_davg)`.
pub fn degree_correlations(rows: &[Row]) -> (f64, f64) {
    let davg: Vec<f64> = rows.iter().map(|r| r.stats.d_avg).collect();
    let bc: Vec<f64> = rows.iter().map(|r| r.best_changed.avg).collect();
    let nyp: Vec<f64> = rows.iter().map(|r| r.not_yet_possible.avg).collect();
    (pearson(&davg, &bc), pearson(&davg, &nyp))
}

/// Renders the paper-shaped table and the §6.1.5 correlations.
pub fn render(inputs: &Inputs) -> String {
    let (scale, rs) = (inputs.scale(), rows(inputs));
    let mut t = Table::new(
        &format!("Table 5: ECL-GC runLarge per-vertex statistics (scale {scale})"),
        &["Graph", "BestChg Avg", "BestChg Max", "NotYet Avg", "NotYet Max"],
    );
    for r in &rs {
        t.row(&[
            r.name,
            &format!("{:.2}", r.best_changed.avg),
            &format!("{:.0}", r.best_changed.max),
            &format!("{:.2}", r.not_yet_possible.avg),
            &format!("{:.0}", r.not_yet_possible.max),
        ]);
    }
    let (c_bc, c_nyp) = degree_correlations(&rs);
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

    #[test]
    fn dense_inputs_dominate() {
        let rs = rows(&Inputs::new(0.004, 3));
        assert!(!rs.is_empty(), "no inputs had runLarge vertices");
        // coPapersDBLP (densest) should show higher stall counts than
        // a sparse input, when both appear.
        let dense = rs.iter().find(|r| r.name == "coPapersDBLP");
        let sparse = rs.iter().find(|r| r.name == "amazon0601");
        if let (Some(d), Some(s)) = (dense, sparse) {
            assert!(
                d.not_yet_possible.avg >= s.not_yet_possible.avg,
                "coPapersDBLP {} < amazon0601 {}",
                d.not_yet_possible.avg,
                s.not_yet_possible.avg
            );
        }
    }

    #[test]
    fn correlation_with_density_positive() {
        let rs = rows(&Inputs::new(0.004, 3));
        if rs.len() >= 4 {
            let (bc, nyp) = degree_correlations(&rs);
            assert!(bc > 0.0, "best-changed vs d-avg correlation {bc} not positive");
            assert!(nyp > 0.0, "not-yet-possible vs d-avg correlation {nyp} not positive");
        }
    }
}
