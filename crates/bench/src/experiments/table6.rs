//! Table 6: ECL-SCC speedups for different thread-block sizes.
//!
//! §6.2.1: block-size tuning trades block-local spin cost (large
//! blocks keep idle threads alive through block-wide syncs) against
//! grid-level relaunch cost (small blocks push propagation to outer
//! passes). Speedups are modeled-cost ratios against the original 512
//! threads/block configuration, evaluated on the five SCC meshes.

use ecl_algos::cells::{Input, Key, Run};
use ecl_gpusim::KnobValue;
use ecl_profiling::{Counter, Table};

use super::counter;

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

/// The sizes each mesh runs: the original, then the sweep largest
/// first. Larger blocks run longest (§6.2.1) and the runner starts the
/// cells in the order they are declared, so the long ones start first.
const RUN_ORDER: [usize; 5] = [ORIGINAL, 1024, 256, 128, 64];

/// ECL-SCC at each block size on every mesh.
pub fn keys(input: &Input) -> Option<Vec<Key>> {
    let key = |bs: usize| Key::new("scc", &[("block_size", KnobValue::Int(bs as i64))]);
    input.spec.directed.then(|| RUN_ORDER.map(key).to_vec())
}

/// Each size's speedup over the original.
pub fn row(input: &Input, runs: &[&Run]) -> Row {
    let scc = ecl_algos::find("scc").expect("scc registered");
    let device = ecl_algos::device_config(scc, input.scale);
    // Critical-path (parallel) time, divided by achievable SM
    // occupancy: blocks are scheduled whole, so 1024-thread blocks leave
    // a third of each 1536-thread SM idle — a hardware effect the work
    // tally cannot see.
    let cost = |bs: usize| {
        let run = runs[RUN_ORDER.iter().position(|&size| size == bs).expect("a swept size")];
        let Counter::Time(time) = counter(run, "scc/modeled_parallel_time") else {
            panic!("the critical path is a time")
        };
        time / device.occupancy(bs)
    };
    let baseline = cost(ORIGINAL);
    let speedups = BLOCK_SIZES.iter().map(|&bs| baseline / cost(bs)).collect();
    Row { name: input.spec.name, baseline_cost: baseline, speedups }
}

/// Renders the paper-shaped table.
pub fn render(scale: f64, rows: &[Row]) -> String {
    let mut t = Table::new(
        &format!("Table 6: ECL-SCC block-size speedups vs 512 (scale {scale}, modeled cost)"),
        &["Graph", "64", "128", "256", "1024"],
    );
    for r in rows {
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
    use crate::experiments::visited;

    #[test]
    fn covers_all_meshes_with_positive_speedups() {
        let rs = visited(keys, row, 0.002, 3);
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
        let rs = visited(keys, row, 0.002, 3);
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
