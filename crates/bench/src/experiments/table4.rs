//! Table 4: ECL-CC init-kernel profiling data.
//!
//! Per input: vertices initialized (= |V|) and vertices traversed
//! while searching for the first smaller neighbor. A large gap flags
//! the §6.2.2 wasted work (fruitless full scans of sorted lists).

use ecl_algos::cells::{Input, Key, Run};
use ecl_profiling::table::sci;
use ecl_profiling::Table;

use super::{count, general};

/// One input's init-kernel counters.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Vertices initialized (equals |V|).
    pub initialized: u64,
    /// Neighbors examined during initialization.
    pub traversed: u64,
}

impl Row {
    /// The traversal overhead ratio (1.0 = no wasted work).
    pub fn gap(&self) -> f64 {
        if self.initialized == 0 {
            0.0
        } else {
            self.traversed as f64 / self.initialized as f64
        }
    }
}

/// The baseline ECL-CC (default schedule) on every general input —
/// Table 7's baseline cell.
pub fn keys(input: &Input) -> Option<Vec<Key>> {
    general(input).then(|| vec![Key::new("cc", &[])])
}

/// The run's init counters.
pub fn row(input: &Input, runs: &[&Run]) -> Row {
    Row {
        name: input.spec.name,
        initialized: count(runs[0], "cc/vertices_initialized"),
        traversed: count(runs[0], "cc/vertices_traversed"),
    }
}

/// Renders the paper-shaped table.
pub fn render(scale: f64, rows: &[Row]) -> String {
    let mut t = Table::new(
        &format!("Table 4: ECL-CC init kernel (scale {scale})"),
        &["Graph", "Vertices initialized", "Vertices traversed", "traversed/initialized"],
    );
    for r in rows {
        t.row(&[
            r.name,
            &sci(r.initialized as f64),
            &sci(r.traversed as f64),
            &format!("{:.2}", r.gap()),
        ]);
    }
    t.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiments::visited;

    fn rows() -> Vec<Row> {
        visited(keys, row, 0.002, 5)
    }

    #[test]
    fn initialized_equals_vertex_count() {
        for r in rows().iter().take(6) {
            let g = ecl_graphgen::registry::find(r.name).unwrap().generate(0.002, 5);
            assert_eq!(r.initialized as usize, g.num_vertices(), "{}", r.name);
        }
    }

    #[test]
    fn traversed_at_least_initialized_minus_isolated() {
        for r in rows() {
            assert!(r.traversed >= r.initialized / 2, "{}: {:?}", r.name, r);
        }
    }

    #[test]
    fn grid_gap_exceeds_skewed_graph_gap() {
        // Paper: cit-Patents/grids show big gaps, as-skitter nearly
        // none. Our torus vs PA graph must show the same contrast.
        let rs = rows();
        let grid = rs.iter().find(|r| r.name == "2d-2e20.sym").unwrap();
        let skitter = rs.iter().find(|r| r.name == "as-skitter").unwrap();
        assert!(
            grid.gap() > skitter.gap(),
            "grid gap {} should exceed as-skitter gap {}",
            grid.gap(),
            skitter.gap()
        );
    }
}
