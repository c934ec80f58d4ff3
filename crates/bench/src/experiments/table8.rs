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

use crate::scaled_device;

/// Weight range used for the MST inputs.
pub const MAX_WEIGHT: u32 = 1 << 20;

/// One input's runtime change.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// Percent change of modeled cost, positive = improvement.
    pub pct_change: f64,
}

/// Runs both variants on every general input (weighted).
pub fn rows(scale: f64, seed: u64) -> Vec<Row> {
    general_inputs()
        .iter()
        .map(|spec| {
            let g = spec.generate_weighted(scale, seed, MAX_WEIGHT);
            let d_base = scaled_device(scale);
            let base = ecl_mst::run(&d_base, &g, &MstConfig::baseline());
            let d_fixed = scaled_device(scale);
            let fixed = ecl_mst::run(&d_fixed, &g, &MstConfig::fixed());
            assert_eq!(
                base.total_weight, fixed.total_weight,
                "{}: launch fix changed the MST weight",
                spec.name
            );
            let t0 = d_base.modeled_time();
            let t1 = d_fixed.modeled_time();
            Row { name: spec.name, pct_change: 100.0 * (t0 - t1) / t0 }
        })
        .collect()
}

/// Renders the paper-shaped table.
pub fn render(scale: f64, seed: u64) -> String {
    let rs = rows(scale, seed);
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
    use crate::experiments::in_order;

    #[test]
    fn changes_are_modest() {
        // The experiment's point: the fix is nearly performance
        // neutral. Allow a loose band — the shape claim is "no
        // dramatic win", not an exact number.
        for r in in_order(|| rows(0.002, 13)) {
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
        let rs = in_order(|| rows(0.002, 13));
        let avg: f64 = rs.iter().map(|r| r.pct_change).sum::<f64>() / rs.len() as f64;
        assert!(avg.abs() < 40.0, "average change {avg:+.2}% is not near-neutral");
    }
}
