//! The ECL-CC kernels: init, degree-binned compute, finalize.

use ecl_check::CheckedSlice;
use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::observe::phase_span;
use ecl_gpusim::{launch_flat_named, CostKind, CountedU32, Device, LaunchConfig};
use ecl_graph::Csr;

use crate::counters::CcCounters;
use crate::CcConfig;

/// Runs all three stages and returns the final labels. Each kernel is
/// one named phase, so a phase observer (`ecl_gpusim::KernelProfile`)
/// can attribute its cost — the §6.1.3 observation that "the init
/// kernel ... accounts for 10-20% of the total runtime" is checked
/// against that breakdown.
pub fn connected_components(
    device: &Device,
    g: &Csr,
    config: &CcConfig,
    counters: &CcCounters,
) -> Vec<u32> {
    let n = g.num_vertices();
    let nstat = atomic_u32_array(n, |i| i as u32);
    // Everything ECL-CC does to nstat is an intentional benign race:
    // hooking CASes to the minimum, and pointer jumping / finalize
    // shortcut stores that only ever rewrite a label to an equal-or-
    // smaller representative already reachable from it.
    let nstat = CheckedSlice::benign(
        "cc.nstat",
        &nstat,
        "monotonic label hooking + pointer jumping: stale reads only delay convergence (§2.1)",
    );
    phase_span("init", || init(device, g, config, counters, &nstat));

    let (low, medium, high) = partition_by_degree(g, config);
    // Group widths mirror ECL-CC's thread/warp/block specialization:
    // low-degree vertices get one thread, medium a warp-sized group,
    // high a block-sized group cooperating on the adjacency list.
    phase_span("compute-low", || {
        compute(device, "cc.compute-low", g, config, counters, &nstat, &low, 1)
    });
    phase_span("compute-medium", || {
        compute(device, "cc.compute-medium", g, config, counters, &nstat, &medium, 32)
    });
    phase_span("compute-high", || {
        compute(device, "cc.compute-high", g, config, counters, &nstat, &high, 256)
    });

    phase_span("finalize", || finalize(device, g, config, &nstat));
    nstat.iter().map(|a| a.load()).collect()
}

/// Initialization: label each vertex with the id of its first smaller
/// neighbor (or itself). The baseline scans until a smaller neighbor
/// appears — a full fruitless scan when none exists, since sorted
/// adjacency lists place the minimum first. The optimized variant
/// checks only the first neighbor (§6.2.2).
fn init(device: &Device, g: &Csr, config: &CcConfig, counters: &CcCounters, nstat: &[CountedU32]) {
    let n = g.num_vertices();
    let cfg = LaunchConfig::cover(n, config.block_size);
    launch_flat_named(device, "cc.init", cfg, |t| {
        if t.global >= n {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        let v = t.global as u32;
        let adj = g.neighbors(v);
        let mut label = v;
        let mut scanned = 0u64;
        if config.optimized_init {
            // Sorted lists: the first neighbor is the minimum, so it
            // alone decides whether a smaller neighbor exists.
            if let Some(&first) = adj.first() {
                device.charge(CostKind::ThreadWork, 1);
                scanned += 1;
                if counters.enabled() {
                    counters.vertices_traversed.inc();
                }
                if first < v {
                    label = first;
                }
            }
        } else {
            for &u in adj {
                device.charge(CostKind::ThreadWork, 1);
                scanned += 1;
                if counters.enabled() {
                    counters.vertices_traversed.inc();
                }
                if u < v {
                    label = u;
                    break;
                }
            }
        }
        nstat[t.global].store(label);
        if counters.enabled() {
            counters.vertices_initialized.inc();
            counters.traversal_len.record(scanned);
        }
    });
}

/// `representative()`: follows the label chain to the current root,
/// shortening the path with intermediate pointer jumping as it goes.
/// Chains strictly decrease, so the walk terminates even under
/// concurrent hooking.
fn representative(v: u32, nstat: &[CountedU32], device: &Device, counters: &CcCounters) -> u32 {
    let initial = nstat[v as usize].load();
    let mut curr = initial;
    if curr != v {
        let mut prev = v;
        let mut next = nstat[curr as usize].load();
        while curr > next {
            device.charge(CostKind::ThreadWork, 1);
            // Intermediate pointer jumping: shortcut prev directly to
            // next. next < curr < prev keeps chains decreasing.
            nstat[prev as usize].store(next);
            if counters.enabled() {
                counters.pointer_jumps.inc();
            }
            prev = curr;
            curr = next;
            next = nstat[curr as usize].load();
        }
    }
    if counters.enabled() {
        counters.find_calls.inc();
        if curr < initial {
            counters.find_smaller.inc();
        } else {
            counters.find_unchanged.inc();
        }
    }
    curr
}

/// Compute kernel: each vertex group processes the vertex's adjacency
/// list with `group` cooperating threads, hooking the roots of the two
/// endpoints with `atomicCAS` (smaller id wins, so the final root of a
/// component is its minimum vertex id). Each undirected edge is
/// processed from its larger endpoint only.
#[allow(clippy::too_many_arguments)]
fn compute(
    device: &Device,
    name: &str,
    g: &Csr,
    config: &CcConfig,
    counters: &CcCounters,
    nstat: &[CountedU32],
    verts: &[u32],
    group: usize,
) {
    let total = verts.len() * group;
    let cfg = LaunchConfig::cover(total, config.block_size);
    launch_flat_named(device, name, cfg, |t| {
        if t.global >= total {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        let v = verts[t.global / group];
        let lane = t.global % group;
        let adj = g.neighbors(v);
        let mut vstat = representative(v, nstat, device, counters);
        let mut idx = lane;
        while idx < adj.len() {
            let u = adj[idx];
            idx += group;
            device.charge(CostKind::ThreadWork, 1);
            if u >= v {
                // The smaller endpoint's thread owns this edge.
                continue;
            }
            let mut ostat = representative(u, nstat, device, counters);
            while vstat != ostat {
                device.charge(CostKind::Atomic, 1);
                if vstat < ostat {
                    let ret = nstat[ostat as usize].cas(ostat, vstat, counters.cas_tally());
                    if ret == ostat {
                        break;
                    }
                    ostat = ret;
                } else {
                    let ret = nstat[vstat as usize].cas(vstat, ostat, counters.cas_tally());
                    if ret == vstat {
                        break;
                    }
                    vstat = ret;
                }
            }
        }
    });
}

/// Finalization: one last pointer-jumping pass so every entry points
/// directly at its component representative.
fn finalize(device: &Device, g: &Csr, config: &CcConfig, nstat: &[CountedU32]) {
    let n = g.num_vertices();
    let cfg = LaunchConfig::cover(n, config.block_size);
    launch_flat_named(device, "cc.finalize", cfg, |t| {
        if t.global >= n {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        let mut curr = nstat[t.global].load();
        let mut next = nstat[curr as usize].load();
        while curr > next {
            device.charge(CostKind::ThreadWork, 1);
            curr = next;
            next = nstat[curr as usize].load();
        }
        nstat[t.global].store(curr);
    });
}

fn partition_by_degree(g: &Csr, config: &CcConfig) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut low = Vec::new();
    let mut medium = Vec::new();
    let mut high = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        let d = g.degree(v);
        if d < config.bins.low_below {
            low.push(v);
        } else if d < config.bins.medium_below {
            medium.push(v);
        } else {
            high.push(v);
        }
    }
    (low, medium, high)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;
    use ecl_profiling::ProfileMode;

    #[test]
    fn partition_respects_bins() {
        let mut b = GraphBuilder::new_undirected(40);
        // Vertex 0: degree 20 (medium); 21..39: degree 1 or 2 (low).
        for v in 1..=20u32 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let cfg = CcConfig::default();
        let (low, medium, high) = partition_by_degree(&g, &cfg);
        assert!(medium.contains(&0));
        assert!(low.contains(&1));
        assert!(high.is_empty());
        assert_eq!(low.len() + medium.len() + high.len(), 40);
    }

    #[test]
    fn representative_compresses_chain() {
        let device = Device::test_small();
        let counters = CcCounters::new(ProfileMode::On);
        // Chain 4 -> 3 -> 2 -> 1 -> 0.
        let nstat = atomic_u32_array(5, |i| i.saturating_sub(1) as u32);
        let r = representative(4, &nstat, &device, &counters);
        assert_eq!(r, 0);
        assert!(counters.pointer_jumps.get() > 0);
        // Path got shortened: following again is cheaper.
        let jumps_before = counters.pointer_jumps.get();
        let r2 = representative(4, &nstat, &device, &counters);
        assert_eq!(r2, 0);
        assert!(counters.pointer_jumps.get() - jumps_before <= jumps_before);
    }

    #[test]
    fn representative_of_root_is_identity() {
        let device = Device::test_small();
        let counters = CcCounters::new(ProfileMode::On);
        let nstat = atomic_u32_array(3, |i| i as u32);
        assert_eq!(representative(2, &nstat, &device, &counters), 2);
        assert_eq!(counters.find_unchanged.get(), 1);
    }

    #[test]
    fn full_pipeline_on_two_cliques() {
        let device = Device::test_small();
        let mut b = GraphBuilder::new_undirected(10);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        for u in 5..10u32 {
            for v in (u + 1)..10 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let counters = CcCounters::new(ProfileMode::On);
        let labels = connected_components(&device, &g, &CcConfig::default(), &counters);
        assert_eq!(labels, vec![0, 0, 0, 0, 0, 5, 5, 5, 5, 5]);
    }
}
