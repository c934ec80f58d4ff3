//! Seeded-defect fixture kernels.
//!
//! Each fixture launches a tiny kernel constructed to trip exactly one
//! rule (or to be provably clean). They are the detector's regression
//! harness: if a fixture stops producing its finding, the sanitizer
//! or linter lost sensitivity and CI fails — the same role seeded
//! faults play for a test suite. Detection is structural (per-epoch
//! agent sets, not timing), so every fixture is deterministic.

use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::{launch_blocks_named, launch_flat_named, Device, LaunchConfig};

use crate::region::CheckedSlice;

/// Intentional write/write race: 64 threads store into 8 cells, so
/// every cell is written by 8 distinct agents in one epoch.
pub fn racy_write_write(device: &Device) {
    let cells = atomic_u32_array(8, |_| 0);
    let cells = CheckedSlice::new(device, "fixture.ww-cells", &cells);
    launch_flat_named(device, "fixture.ww-race", LaunchConfig::new(4, 16), |t| {
        cells[t.global % 8].store(t.global as u32, t.hooks);
    });
}

/// Intentional read/write race: every thread reads cell 0, thread 0
/// also writes it non-atomically.
pub fn racy_read_write(device: &Device) {
    let cells = atomic_u32_array(4, |_| 7);
    let cells = CheckedSlice::new(device, "fixture.rw-cells", &cells);
    launch_flat_named(device, "fixture.rw-race", LaunchConfig::new(2, 16), |t| {
        let v = cells[0].load(t.hooks);
        if t.global == 0 {
            cells[0].store(v + 1, t.hooks);
        }
    });
}

/// The write/write race again, but on a benign-allowlisted region —
/// the finding must come back *suppressed*.
pub fn benign_racy_write_write(device: &Device) {
    let cells = atomic_u32_array(8, |_| 0);
    let cells = CheckedSlice::benign(
        device,
        "fixture.benign-cells",
        &cells,
        "all writers store the same value; last-write-wins is the algorithm",
    );
    launch_flat_named(device, "fixture.benign-ww", LaunchConfig::new(4, 16), |t| {
        cells[t.global % 8].store(1, t.hooks);
    });
}

/// Intentionally over-launched grid: 8 blocks of 32 threads for 16
/// items of work — 7 of 8 blocks never touch anything, the shape of
/// ECL-MST's stale `cover(worklist_capacity)` launches (§6.3).
pub fn over_launched(device: &Device) {
    let cells = atomic_u32_array(16, |_| 0);
    let cells = CheckedSlice::new(device, "fixture.ol-cells", &cells);
    launch_flat_named(device, "fixture.over-launch", LaunchConfig::new(8, 32), |t| {
        if t.global < 16 {
            cells[t.global].store(1, t.hooks);
        }
    });
}

/// A correctly sized grid over the same work: every block touches
/// work, every cell has exactly one writer — clean under all rules.
pub fn exactly_launched(device: &Device) {
    let cells = atomic_u32_array(16, |_| 0);
    let cells = CheckedSlice::new(device, "fixture.el-cells", &cells);
    launch_flat_named(device, "fixture.exact-launch", LaunchConfig::cover(16, 8), |t| {
        if t.global < 16 {
            cells[t.global].store(1, t.hooks);
        }
    });
}

/// Divergent per-lane barrier: only even lanes arrive — the
/// `__syncthreads()`-under-divergence defect.
pub fn divergent_sync(device: &Device) {
    launch_blocks_named(device, "fixture.divergent-sync", LaunchConfig::new(2, 8), |blk| {
        for t in blk.threads() {
            if t.lane % 2 == 0 {
                blk.lane_sync(t);
            }
        }
    });
}

/// Uniform per-lane barrier: every lane arrives twice — clean.
pub fn uniform_sync(device: &Device) {
    launch_blocks_named(device, "fixture.uniform-sync", LaunchConfig::new(2, 8), |blk| {
        for _round in 0..2 {
            for t in blk.threads() {
                blk.lane_sync(t);
            }
        }
    });
}

/// Block-sync waste: 64-lane blocks spin 50 barrier rounds while only
/// one lane per block performs an effective update each round — the
/// ECL-SCC oversized-block signal (§6.2.1).
pub fn sync_storm(device: &Device) {
    let cells = atomic_u32_array(4, |_| 0);
    let cells = CheckedSlice::new(device, "fixture.storm-cells", &cells);
    launch_blocks_named(device, "fixture.sync-storm", LaunchConfig::new(4, 64), |blk| {
        for round in 0..50u32 {
            cells[blk.block].fetch_max(round + 1, None, blk.hooks);
            blk.sync();
        }
    });
}

/// Busy barriers: every lane of every block performs an effective
/// update each round, so barrier slots are fully utilized — clean.
pub fn busy_sync(device: &Device) {
    let cells = atomic_u32_array(4 * 64, |_| 0);
    let cells = CheckedSlice::new(device, "fixture.busy-cells", &cells);
    launch_blocks_named(device, "fixture.busy-sync", LaunchConfig::new(4, 64), |blk| {
        for round in 0..50u32 {
            for t in blk.threads() {
                cells[t.global].fetch_max(round + 1, None, t.hooks);
            }
            blk.sync();
        }
    });
}

/// Low-occupancy launch: 1024-thread blocks on a device whose SM
/// cannot fit them without stranding thread slots (any
/// `threads_per_sm < 1024 / occupancy_min`, e.g. the RTX 4090's 1536
/// — the Table 6 block-size cliff).
pub fn low_occupancy(device: &Device) {
    let cells = atomic_u32_array(2048, |_| 0);
    let cells = CheckedSlice::new(device, "fixture.occ-cells", &cells);
    launch_flat_named(device, "fixture.low-occupancy", LaunchConfig::new(2, 1024), |t| {
        cells[t.global].store(1, t.hooks);
    });
}
