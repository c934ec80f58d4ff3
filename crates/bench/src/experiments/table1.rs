//! Table 1: the input-graph inventory.
//!
//! Prints the generated synthetic analogue of every paper input with
//! the same columns (Edges, Vertices, Type, d-avg, d-max) plus the
//! paper's values for comparison.

use ecl_graph::DegreeStats;
use ecl_graphgen::{all_inputs, InputSpec};
use ecl_profiling::Table;

/// One generated row.
#[derive(Clone, Debug)]
pub struct Row {
    /// The input's registry entry.
    pub spec: &'static InputSpec,
    /// Degree statistics of the generated graph.
    pub stats: DegreeStats,
}

/// Generates every input at `scale` and measures it.
pub fn rows(scale: f64, seed: u64) -> Vec<Row> {
    all_inputs()
        .iter()
        .map(|spec| {
            let spec: &'static InputSpec =
                ecl_graphgen::registry::find(spec.name).expect("registry lookup of its own entry");
            let g = spec.generate(scale, seed);
            Row { spec, stats: DegreeStats::of(&g) }
        })
        .collect()
}

/// Renders the rows as the paper-shaped table.
pub fn render(scale: f64, seed: u64) -> String {
    let mut t = Table::new(
        &format!("Table 1: input graphs (synthetic analogues, scale {scale})"),
        &[
            "Graph Name",
            "Edges",
            "Vertices",
            "Type",
            "d-avg",
            "d-max",
            "paper d-avg",
            "paper d-max",
        ],
    );
    for r in rows(scale, seed) {
        t.row(&[
            r.spec.name,
            &r.stats.num_arcs.to_string(),
            &r.stats.num_vertices.to_string(),
            r.spec.graph_type,
            &format!("{:.1}", r.stats.d_avg),
            &r.stats.d_max.to_string(),
            &format!("{:.1}", r.spec.paper_d_avg),
            &r.spec.paper_d_max.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_22_inputs() {
        let text = render(0.002, 1);
        assert_eq!(text.lines().count(), 4 + 22, "title, rule, header, rule, one row per input");
        assert!(all_inputs().iter().all(|spec| text.contains(spec.name)));
    }

    #[test]
    fn grid_row_degree_exact() {
        let rs = rows(0.002, 1);
        let grid = rs.iter().find(|r| r.spec.name == "2d-2e20.sym").unwrap();
        assert_eq!(grid.stats.d_max, 4);
        assert!((grid.stats.d_avg - 4.0).abs() < 1e-9);
    }
}
