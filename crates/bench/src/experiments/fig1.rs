//! Figure 1: ECL-SCC code progression on the `star` mesh.
//!
//! Reproduces the four panels: per-block signature-update counts for
//! an early and a late propagation iteration (n) of the first two
//! outer iterations (m). The textual rendering prints summary
//! statistics per panel plus a column chart of the per-block counts —
//! the shape to look for is the §6.1.2 one: updates shrink and
//! localize to ever fewer blocks as n grows.

use ecl_algos::cells::{Input, Key, Run};
use ecl_gpusim::Device;
use ecl_profiling::chart::column_chart;
use ecl_profiling::{BlockSeries, Table};
use ecl_scc::{SccConfig, SccResult};

/// The four (m, n) panels of the figure, resolved against a recorded
/// series: (m=1, n=1), (m=1, late n), (m=2, n=1), (m=2, second-to-last
/// n) — matching "the 1st and 27th [of 43]" and "the second-to-last
/// iteration".
pub fn panels(series: &BlockSeries) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for m in [1u32, 2] {
        let last = series.inner_iterations(m);
        if last == 0 {
            continue;
        }
        out.push((m, 1));
        let late = if m == 1 {
            // ~60% through, like 27 of 43.
            ((last as f64 * 0.63).round() as u32).clamp(1, last)
        } else {
            last.saturating_sub(1).max(1)
        };
        if late != 1 {
            out.push((m, late));
        }
    }
    out
}

/// Only the star mesh is read, with no cell: the figure's per-block
/// series is not part of an `Outcome`.
pub fn keys(input: &Input) -> Option<Vec<Key>> {
    (input.spec.name == "star").then(Vec::new)
}

/// ECL-SCC's original configuration on the resident graph, in order,
/// on the one device preset (the series lives in
/// `result.counters.series`).
pub fn row(input: &Input, _: &[&Run]) -> SccResult {
    let scc = ecl_algos::find("scc").expect("scc registered");
    let device = Device::new(ecl_algos::device_config(scc, input.scale));
    ecl_scc::run(&device, input.graph(), &SccConfig::original())
}

/// Renders the figure from the one run: a summary table over the four
/// panels, then each panel's per-block column chart (the terminal
/// equivalent of the paper's scatter plots).
pub fn render(scale: f64, rows: &[SccResult]) -> String {
    let r = &rows[0];
    let series = &r.counters.series;
    let mut t = Table::new(
        &format!(
            "Figure 1: ECL-SCC block updates on star (scale {scale}; m up to {}, grid {} blocks)",
            r.outer_iterations,
            series.num_blocks()
        ),
        &["m", "n", "active blocks", "total updates", "max/block", "inner iters of m"],
    );
    let panels = panels(series);
    for &(m, n) in &panels {
        let row = series.row(m, n).unwrap_or_default();
        let max = row.iter().copied().max().unwrap_or(0);
        t.row(&[
            &m.to_string(),
            &n.to_string(),
            &series.active_blocks(m, n).to_string(),
            &series.total_updates(m, n).to_string(),
            &max.to_string(),
            &series.inner_iterations(m).to_string(),
        ]);
    }
    let mut out = t.render();
    for (m, n) in panels {
        let values = series.row(m, n).unwrap_or_default();
        out += "\n";
        out += &column_chart(&format!("updates per block, m={m}, n={n}"), &values, 72, 8);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiments::visited;

    fn star() -> SccResult {
        visited(keys, row, 0.002, 3).pop().unwrap()
    }

    #[test]
    fn star_progresses_over_many_outer_iterations() {
        let r = star();
        // The registry's star has 10 layers -> ~10 outer iterations.
        assert!(r.outer_iterations >= 8, "expected deep peeling, got m = {}", r.outer_iterations);
        assert_eq!(r.num_sccs(), 10);
    }

    #[test]
    fn updates_localize_late_in_m1() {
        let r = star();
        let s = &r.counters.series;
        let last = s.inner_iterations(1);
        assert!(last >= 2, "need at least two inner iterations, got {last}");
        assert!(
            s.active_blocks(1, last) <= s.active_blocks(1, 1),
            "late iterations should have no more active blocks"
        );
        assert!(s.total_updates(1, last) < s.total_updates(1, 1));
    }

    #[test]
    fn panels_are_well_formed() {
        let r = star();
        let ps = panels(&r.counters.series);
        assert!(ps.len() >= 2);
        assert!(ps.iter().all(|&(m, n)| m >= 1 && n >= 1));
        let text = crate::experiments::render("fig1", 0.002, 3).unwrap();
        assert_eq!(text.matches("updates per block").count(), ps.len());
    }
}
