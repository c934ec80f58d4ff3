//! Table 8: ECL-MST runtime change with the corrected launch
//! configuration.
//!
//! §6.2.3: recomputing the grid before every launch removes the idle
//! tail threads but pays a host round-trip per launch; the paper found
//! the net effect near-neutral (−3.35% … +3.33%). Reported as percent
//! change in modeled cost (positive = the fix helped).

use ecl_graphgen::general_inputs;
use ecl_mst::MstConfig;
use ecl_profiling::Table;

use super::run_cells;
use crate::{scaled_device, Inputs};

/// One input's runtime change.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Percent change of modeled cost, positive = improvement.
    pub pct_change: f64,
}

/// Runs both variants on every general input's weighted view, one cell
/// per (input, variant).
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    let variants = [MstConfig::baseline(), MstConfig::fixed()];
    let cells = general_inputs().iter().flat_map(|spec| variants.iter().map(move |v| (spec, v)));
    let runs = run_cells(cells, |(spec, variant)| {
        let device = scaled_device(inputs.scale());
        let r = ecl_mst::run(&device, inputs.weighted(spec), variant);
        (r.total_weight, device.modeled_time())
    });
    general_inputs()
        .iter()
        .zip(runs.chunks(variants.len()))
        .map(|(spec, runs)| {
            let ((base_weight, t0), (fixed_weight, t1)) = (runs[0], runs[1]);
            assert_eq!(
                base_weight, fixed_weight,
                "{}: launch fix changed the MST weight",
                spec.name
            );
            Row { name: spec.name, pct_change: 100.0 * (t0 - t1) / t0 }
        })
        .collect()
}

/// Renders the paper-shaped table.
pub fn render(inputs: &Inputs) -> String {
    let (scale, rs) = (inputs.scale(), rows(inputs));
    let mut t = Table::new(
        &format!("Table 8: ECL-MST corrected launch config (scale {scale}, modeled cost)"),
        &["Graph", "Runtime % change"],
    );
    for r in &rs {
        t.row(&[r.name, &format!("{:+.2}", r.pct_change)]);
    }
    t.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn changes_are_modest() {
        // The experiment's point: the fix is nearly performance
        // neutral. Allow a loose band — the shape claim is "no
        // dramatic win", not an exact number.
        for r in rows(&Inputs::new(0.002, 13)) {
            assert!(
                r.pct_change.abs() < 60.0,
                "{}: launch-config change should be modest, got {:+.2}%",
                r.name,
                r.pct_change
            );
        }
    }

    #[test]
    fn both_signs_possible() {
        // Paper Table 8 mixes small wins and small losses. At tiny
        // scale at least one input should not benefit dramatically;
        // assert the average stays near zero rather than exact signs.
        let rs = rows(&Inputs::new(0.002, 13));
        let avg: f64 = rs.iter().map(|r| r.pct_change).sum::<f64>() / rs.len() as f64;
        assert!(avg.abs() < 40.0, "average change {avg:+.2}% is not near-neutral");
    }
}
