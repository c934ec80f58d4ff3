//! The ECL-SCC kernels: signature init, block-local max propagation,
//! and edge pruning.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use ecl_check::register_region;
use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::{
    launch_blocks_named, launch_flat_named, CostKind, CountedU32, Device, Hooks, LaunchConfig,
};
use ecl_graph::Csr;

use crate::counters::SccCounters;
use crate::{SccConfig, SccResult};

/// Runs the full ECL-SCC pipeline.
pub fn strongly_connected_components(device: &Device, g: &Csr, config: &SccConfig) -> SccResult {
    let n = g.num_vertices();
    // Grid size follows the original: enough blocks to fill the
    // device's persistent threads, fixed for the whole run (Figure 1
    // plots the same 384 blocks in every iteration).
    let total_threads = device.resident_threads();
    let num_blocks = (total_threads / config.block_size).max(1);
    let counters = SccCounters::new(num_blocks, config.mode);
    let params = *device.params();
    // Critical-path accumulator: per launch, slowest block + launch
    // overhead.
    let mut parallel_time = 0.0f64;

    let v_in = atomic_u32_array(n, |i| i as u32);
    let v_out = atomic_u32_array(n, |i| i as u32);
    // Signatures are *not* benign-allowlisted: init stores are
    // per-vertex exclusive and propagation only ever combines plain
    // loads with counted fetch_max atomics, so the checker must see
    // these regions fully race-free.
    let _v_in_region = register_region(device, "scc.v-in", &v_in);
    let _v_out_region = register_region(device, "scc.v-out", &v_out);

    // The current (pruned) edge list. Pruning is host-side compaction;
    // the removal test itself runs as a kernel.
    let mut edges: Vec<(u32, u32)> = g.arcs().collect();

    // Optional trimming extension: vertices with zero in- or
    // out-degree are singleton SCCs; peeling them (and repeating, as
    // removals expose new zero-degree vertices) shrinks the edge list
    // before any propagation work. Trimmed vertices keep
    // v_in = v_out = id, which is already their correct label.
    if config.trim {
        let trimmed = trim_edges(device, n, &mut edges);
        if counters.enabled() {
            counters.edges_removed.add(trimmed);
        }
    }

    let mut m = 0u32;
    loop {
        m += 1;
        ecl_gpusim::observe::round(device, m);
        // Stage 1: signature initialization.
        ecl_gpusim::observe::phase_start(device, "signature-init");
        let cfg_v = LaunchConfig::cover(n, config.block_size);
        launch_flat_named(device, "scc.signature-init", cfg_v, |t| {
            if t.global >= n {
                device.charge(CostKind::IdleCheck, 1);
                return;
            }
            device.charge(CostKind::ThreadWork, 1);
            v_in[t.global].store(t.global as u32, t.hooks);
            v_out[t.global].store(t.global as u32, t.hooks);
        });
        parallel_time +=
            params.kernel_launch + n.div_ceil(num_blocks.max(1)) as f64 * params.thread_work;
        ecl_gpusim::observe::phase_end(device, "signature-init");

        // Stage 2: max propagation to a fixed point.
        ecl_gpusim::observe::phase_start(device, "propagate");
        parallel_time += propagate(device, config, &counters, &edges, &v_in, &v_out, num_blocks, m);
        ecl_gpusim::observe::phase_end(device, "propagate");

        // Stage 3: edge removal.
        ecl_gpusim::observe::phase_start(device, "prune");
        let before = edges.len();
        prune(device, config, &edges);
        parallel_time += params.kernel_launch
            + edges.len().div_ceil(num_blocks.max(1)) as f64 * params.thread_work;
        edges.retain(|&(u, v)| {
            v_in[u as usize].load(Hooks::OFF) == v_in[v as usize].load(Hooks::OFF)
                && v_out[u as usize].load(Hooks::OFF) == v_out[v as usize].load(Hooks::OFF)
        });
        if counters.enabled() {
            counters.edges_removed.add((before - edges.len()) as u64);
            counters.edges_per_outer.push(edges.len() as u64);
        }
        ecl_gpusim::observe::phase_end(device, "prune");

        // Converged when every vertex has matching signatures.
        let done = (0..n).all(|v| v_in[v].load(Hooks::OFF) == v_out[v].load(Hooks::OFF));
        if done {
            break;
        }
        assert!(
            before > edges.len(),
            "no progress in outer iteration {m}: pruning removed nothing yet \
             signatures disagree — algorithm invariant violated"
        );
    }

    let labels = v_in.iter().map(|s| s.load(Hooks::OFF)).collect();
    SccResult { labels, counters, outer_iterations: m, modeled_parallel_time: parallel_time }
}

/// Block-local propagation: each block re-scans its contiguous edge
/// slice while any of its threads performed an update (inner
/// iterations `n`, recorded per block); the grid relaunches while any
/// block updated. Cost: every local iteration charges the full block
/// width for the block-wide synchronization — the §6.2.1 overhead that
/// makes oversized blocks slow — and every grid relaunch rescans every
/// slice, which is what punishes undersized blocks.
#[allow(clippy::too_many_arguments)]
fn propagate(
    device: &Device,
    config: &SccConfig,
    counters: &SccCounters,
    edges: &[(u32, u32)],
    v_in: &[CountedU32],
    v_out: &[CountedU32],
    num_blocks: usize,
    m: u32,
) -> f64 {
    let len = edges.len();
    let cfg = LaunchConfig::new(num_blocks, config.block_size);
    // Cumulative inner-iteration index per block, persisted across
    // grid relaunches so Figure 1's n keeps counting.
    let base_n: Vec<AtomicU32> = (0..num_blocks).map(|_| AtomicU32::new(0)).collect();
    let profiling = counters.enabled();
    let params = *device.params();
    // Per-pass block costs (f64 bits) for the critical-path model.
    let block_cost: Vec<AtomicU64> = (0..num_blocks).map(|_| AtomicU64::new(0)).collect();
    let mut parallel_time = 0.0f64;

    loop {
        let grid_updated = AtomicBool::new(false);
        for c in &block_cost {
            c.store(0, Ordering::Relaxed);
        }
        launch_blocks_named(device, "scc.propagate", cfg, |blk| {
            let (lo, hi) = partition_bounds(len, num_blocks, blk.block);
            let slice = &edges[lo..hi];
            let mut block_updated = false;
            let mut my_cost = 0.0f64;
            loop {
                // One local iteration: the block's threads sweep the
                // slice (in-order here; the update counts are what
                // matters, not intra-block interleaving). The sweep is
                // the hot loop: unswitched, it runs a copy with no hook
                // test when nothing listens.
                let updates = blk.hooks.unswitch(
                    #[inline(always)]
                    |h| {
                        let mut updates = 0u64;
                        for &(u, v) in slice {
                            // v_out flows backward along the edge...
                            let ov = v_out[v as usize].load(h);
                            let old_u = v_out[u as usize].fetch_max(ov, None, h);
                            if ov > old_u {
                                updates += 1;
                            }
                            // ...and v_in flows forward.
                            let iu = v_in[u as usize].load(h);
                            let old_v = v_in[v as usize].fetch_max(iu, None, h);
                            if iu > old_v {
                                updates += 1;
                            }
                        }
                        updates
                    },
                );
                // Bulk accounting once per sweep: per-edge updates to
                // the shared tallies would serialize the blocks on
                // counter cache lines.
                device.charge(CostKind::ThreadWork, slice.len() as u64);
                device.charge(CostKind::Atomic, 2 * slice.len() as u64);
                if let Some(t) = counters.tally() {
                    t.record_many(ecl_profiling::AtomicOutcome::Updated, updates);
                    t.record_many(
                        ecl_profiling::AtomicOutcome::NoEffect,
                        2 * slice.len() as u64 - updates,
                    );
                }
                // Block-wide or-reduction: every thread of the block
                // participates in the sync even when idle.
                blk.sync();
                // One local iteration's *latency*: the block's threads
                // sweep their slice shares in parallel, so the sweep
                // term is per-thread (slice / width); the block-wide
                // barrier costs grow logarithmically with the block
                // width (tree reduction). A single straggler thread
                // thus re-pays the whole-block barrier every local
                // iteration — §6.2.1's "many idle threads ...
                // participate in block-wide synchronizations".
                let per_thread_edges = slice.len() as f64 / blk.block_size as f64;
                let sync_latency = params.block_sync * (blk.block_size as f64).log2().max(1.0);
                my_cost +=
                    per_thread_edges * (params.thread_work + 2.0 * params.atomic) + sync_latency;
                let n = base_n[blk.block].fetch_add(1, Ordering::Relaxed) + 1;
                if profiling {
                    counters.series.record(m, n, blk.block, updates);
                    counters.updates_per_sweep.record(updates);
                }
                if updates == 0 {
                    break;
                }
                block_updated = true;
            }
            block_cost[blk.block].store(my_cost.to_bits(), Ordering::Relaxed);
            if block_updated {
                grid_updated.store(true, Ordering::Relaxed);
            }
        });
        let slowest = block_cost
            .iter()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .fold(0.0f64, f64::max);
        parallel_time += params.kernel_launch + slowest;
        if !grid_updated.load(Ordering::Relaxed) {
            break;
        }
        if profiling {
            counters.grid_relaunches.inc();
        }
    }
    parallel_time
}

/// Bounds of part `i` when `0..len` is split into `parts` contiguous
/// ranges of `div_ceil(len, parts)` items (the trailing parts may be
/// empty). The naive `len * (i + 1) / parts` arithmetic overflows for
/// edge counts anywhere near `usize::MAX / parts`; saturating on the
/// (already clamped-to-`len`) products keeps every intermediate in
/// range while the bounds still tile `0..len` exactly: consecutive
/// parts share an endpoint, part 0 starts at 0, and the last part
/// ends at `len` because `chunk * parts >= len` by construction.
fn partition_bounds(len: usize, parts: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < parts, "part index {i} out of {parts}");
    let chunk = len.div_ceil(parts.max(1));
    (chunk.saturating_mul(i).min(len), chunk.saturating_mul(i + 1).min(len))
}

/// Iterative trimming: repeatedly drop edges incident to vertices
/// with zero in- or out-degree in the current edge list, until no
/// such vertex remains. Returns the number of edges removed. Each
/// pass is charged like a degree-counting + filtering kernel.
fn trim_edges(device: &Device, n: usize, edges: &mut Vec<(u32, u32)>) -> u64 {
    let mut removed = 0u64;
    let mut in_deg = vec![0u32; n];
    let mut out_deg = vec![0u32; n];
    loop {
        in_deg.iter_mut().for_each(|d| *d = 0);
        out_deg.iter_mut().for_each(|d| *d = 0);
        for &(u, v) in edges.iter() {
            out_deg[u as usize] += 1;
            in_deg[v as usize] += 1;
        }
        // Degree-count + filter kernels.
        device.charge(CostKind::KernelLaunch, 2);
        device.charge(CostKind::ThreadWork, 2 * edges.len() as u64);
        let before = edges.len();
        edges.retain(|&(u, v)| {
            in_deg[u as usize] > 0
                && out_deg[u as usize] > 0
                && in_deg[v as usize] > 0
                && out_deg[v as usize] > 0
        });
        if edges.len() == before {
            return removed;
        }
        removed += (before - edges.len()) as u64;
    }
}

/// The removal-test kernel: charges the per-edge signature comparison
/// (the actual compaction happens host-side right after).
fn prune(device: &Device, config: &SccConfig, edges: &[(u32, u32)]) {
    let len = edges.len();
    let cfg = LaunchConfig::cover(len, config.block_size);
    launch_flat_named(device, "scc.prune", cfg, |t| {
        if t.global >= len {
            device.charge(CostKind::IdleCheck, 1);
        } else {
            device.charge(CostKind::ThreadWork, 1);
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    #[test]
    fn two_cycle_converges_first_iteration() {
        let device = Device::test_small();
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        let r = strongly_connected_components(&device, &g, &SccConfig::original());
        assert_eq!(r.labels, vec![1, 1]);
        assert_eq!(r.outer_iterations, 1);
    }

    #[test]
    fn masked_cycle_needs_second_iteration() {
        // Cycle {0,1} with an arc from high-id vertex 2 into it: v_in
        // of the cycle gets polluted by 2, so m=1 only resolves vertex
        // 2; the cycle resolves in m=2 after the arc is pruned.
        let device = Device::test_small();
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 0);
        let g = b.build();
        let r = strongly_connected_components(&device, &g, &SccConfig::original());
        assert_eq!(r.labels, vec![1, 1, 2]);
        assert_eq!(r.outer_iterations, 2);
    }

    #[test]
    fn propagation_reaches_fixed_point_along_long_path() {
        // A long path: v_out of the head must absorb the max id at the
        // tail, which takes many propagation iterations when the path
        // spans block slices.
        let device = Device::test_small();
        let n = 300;
        let mut b = GraphBuilder::new_directed(n);
        for v in 0..(n as u32 - 1) {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let r = strongly_connected_components(&device, &g, &SccConfig::with_block_size(32));
        assert_eq!(r.num_sccs(), n);
        // The grid had to relaunch: slices are smaller than the path.
        assert!(r.counters.grid_relaunches.get() > 0);
    }

    /// Asserts the partition tiles `0..len` exactly: starts at 0,
    /// ends at len, consecutive parts share endpoints (no gap, no
    /// overlap), every part is well-formed.
    fn assert_tiles(len: usize, parts: usize) {
        let (first_lo, _) = partition_bounds(len, parts, 0);
        assert_eq!(first_lo, 0, "len {len} parts {parts}");
        let (_, last_hi) = partition_bounds(len, parts, parts - 1);
        assert_eq!(last_hi, len, "len {len} parts {parts}");
        let mut prev_hi = 0;
        for i in 0..parts {
            let (lo, hi) = partition_bounds(len, parts, i);
            assert!(lo <= hi, "inverted part {i} for len {len} parts {parts}");
            assert_eq!(lo, prev_hi, "gap/overlap at part {i} for len {len} parts {parts}");
            prev_hi = hi;
        }
    }

    #[test]
    fn partition_covers_exactly_at_adversarial_sizes() {
        // The sizes where the old `len * (i + 1) / parts` arithmetic
        // wrapped: edge counts within a factor of `parts` of
        // usize::MAX. (A simulated edge list never reaches these, but
        // a 2^40-edge input times 384 blocks already overflows u64 —
        // the same arithmetic on a 32-bit host breaks at 11M edges.)
        for len in [0, 1, 5, 383, 384, 1000, usize::MAX / 384, usize::MAX - 3, usize::MAX] {
            for parts in [1, 2, 3, 7, 384, 1_000_000] {
                assert_tiles(len, parts);
            }
        }
    }

    #[test]
    fn partition_is_balanced_for_typical_grids() {
        // No part exceeds ceil(len / parts) items.
        let (len, parts) = (100_000usize, 384);
        let cap = len.div_ceil(parts);
        for i in 0..parts {
            let (lo, hi) = partition_bounds(len, parts, i);
            assert!(hi - lo <= cap);
        }
    }

    #[test]
    fn update_counts_consistent_with_tally() {
        let device = Device::test_small();
        let g = ecl_graphgen::mesh::toroid_wedge(8, 8, 1);
        let r = strongly_connected_components(&device, &g, &SccConfig::original());
        // Every effective atomicMax is an update; the tally's updated
        // count matches the series totals summed over all steps.
        let series_total: u64 = r
            .counters
            .series
            .steps()
            .iter()
            .map(|k| r.counters.series.total_updates(k.m, k.n))
            .sum();
        assert_eq!(series_total, r.counters.max_tally.updated());
    }
}
