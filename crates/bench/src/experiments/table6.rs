//! Table 6: ECL-SCC speedups for different thread-block sizes.
//!
//! §6.2.1: block-size tuning trades block-local spin cost (large
//! blocks keep idle threads alive through block-wide syncs) against
//! grid-level relaunch cost (small blocks push propagation to outer
//! passes). Speedups are modeled-cost ratios against the original 512
//! threads/block configuration, evaluated on the five SCC meshes.

use ecl_graphgen::scc_inputs;
use ecl_profiling::Table;
use ecl_scc::SccConfig;

use super::run_cells;
use crate::{scaled_device_min, Inputs};

/// Block sizes swept by the paper (original = 512).
pub const BLOCK_SIZES: [usize; 4] = [64, 128, 256, 1024];

/// The baseline block size.
pub const ORIGINAL: usize = 512;

/// One mesh's speedups.
#[derive(Clone, Debug)]
pub struct Row {
    /// Mesh name.
    pub name: &'static str,
    /// Modeled time of the original configuration.
    pub baseline_cost: f64,
    /// Speedup (baseline cost / this cost) per swept block size,
    /// aligned with [`BLOCK_SIZES`].
    pub speedups: Vec<f64>,
}

/// Sweeps the block sizes over every mesh, one cell per (mesh, block
/// size), the original size first.
pub fn rows(inputs: &Inputs) -> Vec<Row> {
    let sizes = [ORIGINAL].into_iter().chain(BLOCK_SIZES);
    let cells = scc_inputs().iter().flat_map(|spec| sizes.clone().map(move |bs| (spec, bs)));
    let costs = run_cells(cells, |(spec, block_size)| {
        let device = scaled_device_min(inputs.scale(), crate::SCC_MIN_SMS);
        let r = ecl_scc::run(&device, inputs.graph(spec), &SccConfig::with_block_size(block_size));
        // Critical-path (parallel) time, divided by achievable SM
        // occupancy: blocks are scheduled whole, so 1024-thread blocks
        // leave a third of each 1536-thread SM idle — a hardware effect
        // the work tally cannot see.
        r.modeled_parallel_time / device.config().occupancy(block_size)
    });
    scc_inputs()
        .iter()
        .zip(costs.chunks(1 + BLOCK_SIZES.len()))
        .map(|(spec, costs)| {
            let baseline = costs[0];
            let speedups = costs[1..].iter().map(|cost| baseline / cost).collect();
            Row { name: spec.name, baseline_cost: baseline, speedups }
        })
        .collect()
}

/// Renders the paper-shaped table.
pub fn render(inputs: &Inputs) -> String {
    let (scale, rs) = (inputs.scale(), rows(inputs));
    let mut t = Table::new(
        &format!("Table 6: ECL-SCC block-size speedups vs 512 (scale {scale}, modeled cost)"),
        &["Graph", "64", "128", "256", "1024"],
    );
    for r in &rs {
        let mut cells = vec![r.name.to_string()];
        cells.extend(r.speedups.iter().map(|s| format!("{s:.2}")));
        t.row_owned(cells);
    }
    t.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_meshes_with_positive_speedups() {
        let rs = rows(&Inputs::new(0.002, 3));
        assert_eq!(rs.len(), 5);
        for r in &rs {
            assert_eq!(r.speedups.len(), 4);
            assert!(r.speedups.iter().all(|&s| s > 0.0), "{}: {:?}", r.name, r.speedups);
            assert!(r.baseline_cost > 0.0);
        }
    }

    #[test]
    fn sweet_spot_is_interior() {
        // The Table 6 shape: the optimum block size is moderate — the
        // extremes (64 and 1024) lose to the interior sizes (128, 256,
        // or the 512 baseline itself, whose speedup is 1 by
        // definition). The paper's sweet spot sits at 128/256; ours
        // lands at 256/512 (see EXPERIMENTS.md), but in both the
        // interior beats the extremes. The margins are modeled time,
        // so the claim is about the in-order schedule every cell runs.
        let rs = rows(&Inputs::new(0.002, 3));
        let avg = |idx: usize| rs.iter().map(|r| r.speedups[idx]).sum::<f64>() / rs.len() as f64;
        let interior_best = avg(1).max(avg(2)).max(1.0);
        let extreme_best = avg(0).max(avg(3));
        assert!(
            interior_best > extreme_best,
            "interior sizes ({interior_best:.3}) should beat the extremes ({extreme_best:.3}); \
             64: {:.3}, 128: {:.3}, 256: {:.3}, 1024: {:.3}",
            avg(0),
            avg(1),
            avg(2),
            avg(3)
        );
        // 256 must also beat 64 outright.
        assert!(avg(2) > avg(0), "256 ({:.3}) should beat 64 ({:.3})", avg(2), avg(0));
    }
}
