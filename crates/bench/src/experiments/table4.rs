//! Table 4: ECL-CC init-kernel profiling data.
//!
//! Per input: vertices initialized (= |V|) and vertices traversed
//! while searching for the first smaller neighbor. A large gap flags
//! the §6.2.2 wasted work (fruitless full scans of sorted lists).

use ecl_cc::CcConfig;
use ecl_graphgen::general_inputs;
use ecl_profiling::table::sci;
use ecl_profiling::Table;

use super::run_cells;
use crate::{scaled_device, Inputs};

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

/// Runs the baseline ECL-CC on every general input, one cell each.
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    run_cells(general_inputs(), |spec| {
        let device = scaled_device(inputs.scale());
        let r = ecl_cc::run(&device, inputs.graph(spec), &CcConfig::baseline());
        Row {
            name: spec.name,
            initialized: r.counters.vertices_initialized.get(),
            traversed: r.counters.vertices_traversed.get(),
        }
    })
}

/// Renders the paper-shaped table.
pub fn render(inputs: &Inputs) -> String {
    let (scale, rs) = (inputs.scale(), rows(inputs));
    let mut t = Table::new(
        &format!("Table 4: ECL-CC init kernel (scale {scale})"),
        &["Graph", "Vertices initialized", "Vertices traversed", "traversed/initialized"],
    );
    for r in &rs {
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

    #[test]
    fn initialized_equals_vertex_count() {
        let inputs = Inputs::new(0.002, 5);
        for r in rows(&inputs).iter().take(6) {
            let g = inputs.graph(ecl_graphgen::registry::find(r.name).unwrap());
            assert_eq!(r.initialized as usize, g.num_vertices(), "{}", r.name);
        }
    }

    #[test]
    fn traversed_at_least_initialized_minus_isolated() {
        for r in rows(&Inputs::new(0.002, 5)) {
            assert!(r.traversed >= r.initialized / 2, "{}: {:?}", r.name, r);
        }
    }

    #[test]
    fn grid_gap_exceeds_skewed_graph_gap() {
        // Paper: cit-Patents/grids show big gaps, as-skitter nearly
        // none. Our torus vs PA graph must show the same contrast.
        let rs = rows(&Inputs::new(0.002, 5));
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
