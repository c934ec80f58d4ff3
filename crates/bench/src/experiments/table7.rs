//! Table 7: ECL-CC speedup of the first-neighbor-only init.
//!
//! §6.2.2: the optimization avoids fruitless adjacency scans; inputs
//! with a large Table 4 gap benefit. Speedups are modeled-cost ratios
//! of the full run (baseline / optimized).

use ecl_algos::cells::{Input, Key, Run};
use ecl_gpusim::KnobValue;
use ecl_profiling::Table;

use super::{general, table4};

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

/// Both variants on every general input: the baseline (Table 4's cell)
/// and `optimized_init`.
pub fn keys(input: &Input) -> Option<Vec<Key>> {
    let optimized = Key::new("cc", &[("optimized_init", KnobValue::Bool(true))]);
    general(input).then(|| vec![Key::new("cc", &[]), optimized])
}

/// The optimization's speedup; it must not change the components.
pub fn row(input: &Input, runs: &[&Run]) -> Row {
    let (base, opt, name) = (runs[0], runs[1], input.spec.name);
    assert_eq!(
        base.outcome.aggregates, opt.outcome.aggregates,
        "{name}: optimization changed the result"
    );
    let gap = table4::row(input, runs).gap();
    Row { name, speedup: base.modeled_time / opt.modeled_time, gap }
}

/// Renders the paper-shaped table. The paper lists only inputs with a
/// noticeable speedup; we print all, flagging the >2% ones.
pub fn render(scale: f64, rows: &[Row]) -> String {
    let mut t = Table::new(
        &format!("Table 7: ECL-CC first-neighbor init speedup (scale {scale}, modeled cost)"),
        &["Graph", "Speedup", "Init gap", "Noticeable"],
    );
    for r in rows {
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
    use crate::experiments::visited;

    #[test]
    fn optimization_never_slower_much() {
        for r in visited(keys, row, 0.002, 9) {
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
        let rs = visited(keys, row, 0.002, 9);
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
