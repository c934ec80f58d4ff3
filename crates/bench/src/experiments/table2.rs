//! Table 2: ECL-MIS per-thread metrics.
//!
//! For every undirected input: iterations (avg/max), vertices assigned
//! per thread (avg), vertices finalized (avg/max) — measured over the
//! persistent threads of the scaled device. Also reproduces the §6.1.1
//! correlation analysis: avg iterations vs. degree skew (r = 0.64 in
//! the paper), max iterations vs. |V| (r = −0.37), finalized vs. |V|
//! (r ≥ 0.98).

use ecl_graph::DegreeStats;
use ecl_graphgen::general_inputs;
use ecl_mis::MisConfig;
use ecl_profiling::{pearson, Summary, Table};

use super::run_cells;
use crate::{scaled_device, Inputs};

/// One input's measured metrics.
#[derive(Clone, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Per-thread iteration counts.
    pub iterations: Summary,
    /// Per-thread assigned-vertex counts.
    pub assigned: Summary,
    /// Per-thread finalized-vertex counts.
    pub finalized: Summary,
    /// Degree statistics of the generated input.
    pub stats: DegreeStats,
}

/// Runs ECL-MIS on every general input, one cell each.
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    run_cells(general_inputs(), |spec| {
        let g = inputs.graph(spec);
        let device = scaled_device(inputs.scale());
        let r = ecl_mis::run(&device, g, &MisConfig::default());
        Row {
            name: spec.name,
            iterations: r.counters.iterations.summary(),
            assigned: r.counters.assigned.summary(),
            finalized: r.counters.finalized.summary(),
            stats: DegreeStats::of(g),
        }
    })
}

/// The §6.1.1 correlations over a set of measured rows:
/// `(avg_iter_vs_skew, max_iter_vs_vertices, finalized_avg_vs_vertices)`.
pub fn correlations(rows: &[Row]) -> (f64, f64, f64) {
    let skew: Vec<f64> = rows.iter().map(|r| r.stats.skew).collect();
    let nv: Vec<f64> = rows.iter().map(|r| r.stats.num_vertices as f64).collect();
    let avg_it: Vec<f64> = rows.iter().map(|r| r.iterations.avg).collect();
    let max_it: Vec<f64> = rows.iter().map(|r| r.iterations.max).collect();
    let fin_avg: Vec<f64> = rows.iter().map(|r| r.finalized.avg).collect();
    (pearson(&skew, &avg_it), pearson(&nv, &max_it), pearson(&nv, &fin_avg))
}

/// Renders the paper-shaped table and the §6.1.1 correlations.
pub fn render(inputs: &Inputs) -> String {
    let (scale, rs) = (inputs.scale(), rows(inputs));
    let mut t = Table::new(
        &format!("Table 2: ECL-MIS metrics (scale {scale})"),
        &["Graph", "Iter Avg", "Iter Max", "Vertices Avg", "Final Avg", "Final Max"],
    );
    for r in &rs {
        t.row(&[
            r.name,
            &format!("{:.2}", r.iterations.avg),
            &format!("{:.0}", r.iterations.max),
            &format!("{:.2}", r.assigned.avg),
            &format!("{:.2}", r.finalized.avg),
            &format!("{:.0}", r.finalized.max),
        ]);
    }
    let (r_skew, r_maxnv, r_finnv) = correlations(&rs);
    format!(
        "{}\nCorrelations: avg-iterations vs skew r = {r_skew:.2} (paper 0.64), \
         max-iterations vs |V| r = {r_maxnv:.2} (paper -0.37), \
         finalized vs |V| r = {r_finnv:.2} (paper >= 0.98).\n",
        t.render()
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn correlations_have_paper_signs() {
        // Small scale keeps this test fast; the signs are the claim.
        let rs = rows(&Inputs::new(0.002, 7));
        assert_eq!(rs.len(), 17);
        let (iter_skew, max_nv, fin_nv) = correlations(&rs);
        assert!(
            iter_skew > 0.0,
            "avg iterations should correlate positively with degree skew (paper r = 0.64), \
             got {iter_skew}"
        );
        assert!(
            max_nv < 0.2,
            "max iterations should anti-correlate with |V| (paper r = -0.37), got {max_nv}"
        );
        assert!(
            fin_nv > 0.9,
            "finalized counts should track vertex counts strongly (paper r >= 0.98), got {fin_nv}"
        );
    }

    #[test]
    fn assigned_is_balanced_per_input() {
        for r in rows(&Inputs::new(0.002, 3)).iter().take(4) {
            assert!(
                r.assigned.max - r.assigned.min <= 1.0,
                "{}: round-robin should balance within 1, got {:?}",
                r.name,
                r.assigned
            );
        }
    }
}
