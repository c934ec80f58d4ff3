//! Sharded connected components: ECL-CC inside each shard, min-label
//! exchange across the cut.
//!
//! **Local phase.** Each shard runs `ecl_cc::run` on its local CSR.
//! Ghost slots are numbered after every owned vertex and carry no
//! adjacency, so ECL-CC's smaller-endpoint rule (an edge is hooked
//! from its larger endpoint, towards the smaller) never hooks across a
//! cut arc: every ghost stays its own root, and every other root is the
//! smallest owned local id — and so the smallest global id — of its
//! local component. The driver runs the phase in order, so ECL-CC's CAS
//! outcomes, and with them the modeled time, do not depend on the
//! pool's schedule.
//!
//! **Exchange.** Each local component carries one label, initially its
//! root's global id; each ghost slot mirrors its owner's label for that
//! vertex, initially the ghost's global id. Per superstep, every
//! boundary vertex pulls the minimum over its ghost neighbors' mirrors
//! into its component's next label (Jacobi: the sweep reads the
//! previous superstep's snapshot and merges through commutative
//! `fetch_min`). Owners broadcast a changed component label once per
//! mirrored boundary vertex of that component. At the fixpoint the
//! labels agree across every cut edge and within every local component,
//! and each is a global id of its component no larger than any other —
//! the component's minimum id, exactly the labels `ecl_cc::run`
//! produces, at every shard count.

use ecl_cc::CcConfig;
use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::{launch_flat_named, CostKind, Device, Hooks, LaunchConfig};
use ecl_graph::Csr;
use ecl_profiling::ProfileMode;

use crate::exchange::{Driver, Message, Outbox};
use crate::partition::{Partition, ShardGraph};
use crate::{ShardStats, BLOCK_SIZE};

/// Result of a sharded CC run.
#[derive(Debug)]
pub struct ShardCcResult {
    /// Component label per global vertex: the minimum vertex id of its
    /// component (identical to `ecl_cc::run` labels).
    pub labels: Vec<u32>,
    /// Run statistics.
    pub stats: ShardStats,
}

impl ShardCcResult {
    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.labels.iter().enumerate().filter(|&(v, &l)| v as u32 == l).count()
    }
}

/// The local phase on one shard: ECL-CC over the local CSR. Returns
/// the local root of every local slot (ghosts are their own).
fn local_roots(device: &Device, sg: &ShardGraph) -> Vec<u32> {
    let config = CcConfig { mode: ProfileMode::Off, ..CcConfig::baseline() };
    ecl_cc::run(device, &sg.csr, &config).labels
}

/// Runs sharded connected components over `part` with one device per
/// shard.
///
/// # Panics
/// Panics if `g` is directed or `devices.len() != part.shards`.
pub fn run_cc(devices: &[Device], g: &Csr, part: &Partition) -> ShardCcResult {
    assert!(!g.is_directed(), "connected components consume undirected graphs");
    let mut driver = Driver::new(devices, part);
    let graphs = part.shard_graphs(g);

    // `cur[l]`: a root's component label, another owned vertex's last
    // published label, or a ghost's mirror. `next` takes the minima.
    let labels = |sg: &ShardGraph| atomic_u32_array(sg.locals(), |l| sg.globals[l]);
    let (cur, next): (Vec<_>, Vec<_>) = graphs.iter().map(|sg| (labels(sg), labels(sg))).unzip();
    let boundary: Vec<Vec<u32>> = graphs
        .iter()
        .map(|sg| (0..sg.owned as u32).filter(|&v| sg.ghost_of[v as usize] != 0).collect())
        .collect();
    // Commit and publish: a boundary vertex whose component label
    // differs from the one it last sent tells its mirrors (ascending
    // order keeps the stream deterministic).
    let publish = |s: usize, roots: &[u32], out: &mut Outbox<'_>| {
        let sg = &graphs[s];
        for &v in &boundary[s] {
            let (v, r) = (v as usize, roots[v as usize] as usize);
            let label = next[s][r].load(Hooks::OFF);
            if label != cur[s][v].load(Hooks::OFF) {
                let msg = Message { vertex: sg.globals[v], payload: label as u64 };
                out.broadcast(sg.ghost_of[v], msg);
            }
            cur[s][v].store(label, Hooks::OFF);
            cur[s][r].store(label, Hooks::OFF);
        }
    };

    let mut roots: Vec<Vec<u32>> = vec![Vec::new(); graphs.len()];
    driver.step(&mut roots, |s, roots, device, _, out| {
        *roots = local_roots(device, &graphs[s]);
        publish(s, roots, out);
    });
    driver.step_to_fixpoint(&mut roots, |s, roots, device, inbox, out| {
        // Refresh ghost mirrors (host-side apply; the modeled transfer
        // cost lives in the clock's exchange term), then pull. Ghosts
        // sort after every owned local, so they are the tail of each
        // adjacency.
        let (sg, cur, next, boundary) = (&graphs[s], &cur[s], &next[s], &boundary[s]);
        for msg in inbox {
            let l = sg.ghost_local(msg.vertex).expect("update for a vertex not ghosted");
            cur[l].store(msg.payload as u32, Hooks::OFF);
        }
        let (roots, owned, n) = (&*roots, sg.owned, boundary.len());
        let config = LaunchConfig::cover(n, BLOCK_SIZE);
        launch_flat_named(device, "shard.cc.exchange", config, |t| {
            if t.global >= n {
                device.charge(CostKind::IdleCheck, 1);
                return;
            }
            let adj = sg.csr.neighbors(boundary[t.global]);
            let ghosts = &adj[adj.partition_point(|&u| (u as usize) < owned)..];
            let r = roots[boundary[t.global] as usize] as usize;
            let m = ghosts.iter().map(|&l| cur[l as usize].load(t.hooks)).min();
            device.charge(CostKind::ThreadWork, 1 + ghosts.len() as u64);
            if let Some(m) = m.filter(|&m| m < cur[r].load(t.hooks)) {
                device.charge(CostKind::Atomic, 1);
                next[r].fetch_min(m, None, t.hooks);
            }
        });
        publish(s, roots, out);
    });

    let mut labels = vec![0u32; g.num_vertices()];
    for (s, sg) in graphs.iter().enumerate() {
        for v in 0..sg.owned {
            labels[sg.globals[v] as usize] = cur[s][roots[s][v] as usize].load(Hooks::OFF);
        }
    }
    ShardCcResult { labels, stats: driver.stats(part) }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::devices_for;
    use crate::partition::Strategy;
    use ecl_gpusim::DeviceConfig;
    use ecl_graph::GraphBuilder;

    fn run_sharded(g: &Csr, shards: u32) -> ShardCcResult {
        let part = Partition::new(g, shards, Strategy::Contiguous);
        let devices = devices_for(DeviceConfig::test_small(), shards);
        run_cc(&devices, g, &part)
    }

    #[test]
    fn matches_reference_across_shard_counts() {
        let g = ecl_graphgen::random::erdos_renyi(400, 2.0, 11);
        let expect = ecl_ref::connected_components(&g);
        for shards in [1u32, 2, 3, 4] {
            let r = run_sharded(&g, shards);
            assert_eq!(r.labels, expect, "{shards} shards");
        }
    }

    #[test]
    fn local_phase_leaves_ghosts_alone_and_the_torus_exchange_is_short() {
        let mut b = GraphBuilder::new_undirected(8);
        for v in 0..7 {
            b.add_edge(v, v + 1);
        }
        let path = b.build();
        for sg in Partition::new(&path, 2, Strategy::Contiguous).shard_graphs(&path) {
            // One ghost each; the owned half is one component rooted
            // at local 0, and the ghost is its own root.
            let roots = local_roots(&Device::test_small(), &sg);
            assert_eq!((sg.owned, sg.ghosts()), (4, 1));
            assert_eq!(roots, vec![0, 0, 0, 0, 4], "shard {}", sg.shard);
        }
        let torus = ecl_graphgen::grid::torus_2d(32, 32);
        let single = ecl_cc::run(&Device::test_small(), &torus, &CcConfig::baseline());
        let (a, b) = (run_sharded(&torus, 4), run_sharded(&torus, 4));
        assert_eq!(a.labels, single.labels);
        assert!(a.stats.supersteps <= 8, "{} supersteps", a.stats.supersteps);
        assert_eq!(a.stats.modeled_time.to_bits(), b.stats.modeled_time.to_bits());
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let mut b = GraphBuilder::new_undirected(8);
        b.add_edge(0, 7); // spans the whole id range: always cut at 2+.
        b.add_edge(3, 4);
        let g = b.build();
        let r = run_sharded(&g, 4);
        assert_eq!(r.labels, vec![0, 1, 2, 3, 3, 5, 6, 0]);
        assert_eq!(r.num_components(), 6);
        assert!(r.stats.exchange_messages > 0, "cut edge must exchange");
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5, false);
        let r = run_sharded(&g, 2);
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.stats.exchange_messages, 0);
    }

    #[test]
    #[should_panic(expected = "one device per shard")]
    fn device_count_mismatch_rejected() {
        let g = Csr::empty(4, false);
        let part = Partition::new(&g, 2, Strategy::Contiguous);
        let devices = devices_for(DeviceConfig::test_small(), 1);
        run_cc(&devices, &g, &part);
    }
}
