//! Table 7: ECL-CC speedup of the first-neighbor-only init.
//!
//! §6.2.2: the optimization avoids fruitless adjacency scans; inputs
//! with a large Table 4 gap benefit. Speedups are modeled-cost ratios
//! of the full run (baseline / optimized).

use ecl_cc::CcConfig;
use ecl_graphgen::general_inputs;
use ecl_profiling::Table;

use super::run_cells;
use crate::{scaled_device, Inputs};

/// One input's speedup.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Modeled-cost speedup of the optimized init.
    pub speedup: f64,
    /// The Table 4 traversal gap (traversed / initialized) for
    /// cross-referencing.
    pub gap: f64,
}

/// Runs both variants on every general input, one cell per input.
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    run_cells(general_inputs(), |spec| {
        let g = inputs.graph(spec);
        let d_base = scaled_device(inputs.scale());
        let r = ecl_cc::run(&d_base, g, &CcConfig::baseline());
        let gap = if r.counters.vertices_initialized.get() == 0 {
            0.0
        } else {
            r.counters.vertices_traversed.get() as f64
                / r.counters.vertices_initialized.get() as f64
        };
        let d_opt = scaled_device(inputs.scale());
        let r_opt = ecl_cc::run(&d_opt, g, &CcConfig::optimized());
        assert_eq!(r.labels, r_opt.labels, "{}: optimization changed the result", spec.name);
        Row { name: spec.name, speedup: d_base.modeled_time() / d_opt.modeled_time(), gap }
    })
}

/// Renders the paper-shaped table. The paper lists only inputs with a
/// noticeable speedup; we print all, flagging the >2% ones.
pub fn render(inputs: &Inputs) -> String {
    let (scale, rs) = (inputs.scale(), rows(inputs));
    let mut t = Table::new(
        &format!("Table 7: ECL-CC first-neighbor init speedup (scale {scale}, modeled cost)"),
        &["Graph", "Speedup", "Init gap", "Noticeable"],
    );
    for r in &rs {
        t.row(&[
            r.name,
            &format!("{:.3}", r.speedup),
            &format!("{:.2}", r.gap),
            if r.speedup > 1.02 { "yes" } else { "" },
        ]);
    }
    t.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn optimization_never_slower_much() {
        for r in rows(&Inputs::new(0.002, 9)) {
            assert!(
                r.speedup > 0.95,
                "{}: optimized init should not slow the run down: {}",
                r.name,
                r.speedup
            );
        }
    }

    #[test]
    fn big_gap_inputs_speed_up_more() {
        let rs = rows(&Inputs::new(0.002, 9));
        let max_gap = rs.iter().cloned().fold(rs[0], |a, b| if b.gap > a.gap { b } else { a });
        let min_gap = rs.iter().cloned().fold(rs[0], |a, b| if b.gap < a.gap { b } else { a });
        assert!(
            max_gap.speedup >= min_gap.speedup * 0.99,
            "gap {} input ({}) should benefit at least as much as gap {} input ({})",
            max_gap.gap,
            max_gap.speedup,
            min_gap.gap,
            min_gap.speedup
        );
    }
}
