//! Table 1: the input-graph inventory.
//!
//! Prints the generated synthetic analogue of every paper input with
//! the same columns (Edges, Vertices, Type, d-avg, d-max) plus the
//! paper's values for comparison.

use ecl_graph::DegreeStats;
use ecl_graphgen::{all_inputs, InputSpec};
use ecl_profiling::Table;

use super::run_cells;
use crate::Inputs;

/// One generated row.
#[derive(Clone, Debug)]
pub struct Row {
    /// The input's registry entry.
    pub spec: &'static InputSpec,
    /// Degree statistics of the generated graph.
    pub stats: DegreeStats,
}

/// Measures every input, one cell each.
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    run_cells(all_inputs(), |spec| Row { spec, stats: DegreeStats::of(inputs.graph(spec)) })
}

/// Renders the rows as the paper-shaped table.
pub fn render(inputs: &Inputs) -> String {
    let scale = inputs.scale();
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
    for r in rows(inputs) {
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
        let text = render(&Inputs::new(0.002, 1));
        assert_eq!(text.lines().count(), 4 + 22, "title, rule, header, rule, one row per input");
        assert!(all_inputs().all(|spec| text.contains(spec.name)));
    }

    #[test]
    fn grid_row_degree_exact() {
        let rs = rows(&Inputs::new(0.002, 1));
        let grid = rs.iter().find(|r| r.spec.name == "2d-2e20.sym").unwrap();
        assert_eq!(grid.stats.d_max, 4);
        assert!((grid.stats.d_avg - 4.0).abs() < 1e-9);
    }
}
