//! Figure 2: ECL-MST per-iteration profiling bars on amazon0601.
//!
//! For each Regular/Filter iteration of the main kernel: % of launched
//! threads with work, % of conflicting threads, % of useless atomics.
//! The §6.1.4 shapes: useful work collapses after the first iteration
//! of each kind, conflicts decrease with iteration count, useless
//! atomics increase.

use ecl_graphgen::registry::find;
use ecl_mst::{MstConfig, MstResult};
use ecl_profiling::chart::bar_chart;
use ecl_profiling::series::IterationKind;

use super::in_order;
use crate::{scaled_device, Inputs};

/// Runs the baseline ECL-MST in order on the amazon0601 analogue's
/// weighted view.
pub fn run_amazon(inputs: &Inputs) -> MstResult {
    let g = inputs.weighted(find("amazon0601").expect("amazon0601 registered"));
    let device = scaled_device(inputs.scale());
    in_order(|| ecl_mst::run(&device, g, &MstConfig::baseline()))
}

/// Renders the figure from one run: the bar table, then grouped text
/// bars per iteration.
pub fn render(inputs: &Inputs) -> String {
    let (scale, bars) = (inputs.scale(), run_amazon(inputs).counters.bars);
    let mut entries = Vec::new();
    for b in bars.bars() {
        let kind = match b.kind {
            IterationKind::Regular => "R",
            IterationKind::Filter => "F",
        };
        entries.push((format!("{kind}{} work%", b.index), b.threads_with_work_pct));
        entries.push((format!("{kind}{} conflict%", b.index), b.conflicts_pct));
        entries.push((format!("{kind}{} useless%", b.index), b.useless_atomics_pct));
    }
    let title = format!("Figure 2: ECL-MST iteration metrics on amazon0601 (scale {scale})");
    format!(
        "{}\n{}",
        bars.to_table(&title).render(),
        bar_chart("per-iteration metrics (percent)", &entries, 50)
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use ecl_profiling::series::IterationBar;

    use super::*;

    fn bars(scale: f64, seed: u64) -> Vec<IterationBar> {
        run_amazon(&Inputs::new(scale, seed)).counters.bars.bars()
    }

    #[test]
    fn regular_and_percentages_sane() {
        let bs = bars(0.002, 5);
        assert!(!bs.is_empty());
        assert!(bs.iter().any(|b| b.kind == IterationKind::Regular));
        for b in &bs {
            assert!((0.0..=100.0).contains(&b.threads_with_work_pct), "{b:?}");
            assert!((0.0..=100.0).contains(&b.conflicts_pct), "{b:?}");
            assert!((0.0..=100.0).contains(&b.useless_atomics_pct), "{b:?}");
        }
    }

    #[test]
    fn useful_work_collapses_after_first_regular_iteration() {
        let bs = bars(0.004, 5);
        let regs: Vec<_> = bs.iter().filter(|b| b.kind == IterationKind::Regular).collect();
        if regs.len() >= 2 {
            assert!(
                regs.last().unwrap().threads_with_work_pct < regs[0].threads_with_work_pct,
                "useful-work fraction should decay: {:?}",
                regs.iter().map(|b| b.threads_with_work_pct).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn conflicts_trend_downward_across_regular_iterations() {
        let bs = bars(0.004, 5);
        let regs: Vec<_> = bs.iter().filter(|b| b.kind == IterationKind::Regular).collect();
        if regs.len() >= 3 {
            assert!(
                regs.last().unwrap().conflicts_pct <= regs[0].conflicts_pct,
                "conflicts should not grow: {:?}",
                regs.iter().map(|b| b.conflicts_pct).collect::<Vec<_>>()
            );
        }
    }
}
