//! Sharded strongly connected components: the ECL-SCC outer loop
//! (signature init → max propagation → edge pruning) with cross-shard
//! signature exchange.
//!
//! Arcs are owned by the owner of their source, so the forward sweep
//! (`v_in` flows along the arc) can hit remote heads: those
//! contributions accumulate in the head's local ghost slot via
//! commutative `fetch_max` and leave the shard as **candidate**
//! messages to the head's owner, which merges them by max. The
//! backward sweep (`v_out` flows against the arc) is a pull into the
//! owned source and reads remote heads through their ghost mirrors.
//! Owners broadcast changed `(v_in, v_out)` pairs — packed into one
//! `u64` payload — to every mirror holder after each superstep.
//!
//! Propagation runs to the *global* fixpoint (no shard changed an
//! owned signature and both mailbox planes are quiescent) before any
//! shard prunes, so pruning always compares fully converged
//! signatures — mirrors included. Max-propagation has a unique
//! fixpoint on a fixed arc set, pruning decisions are pointwise
//! functions of that fixpoint, and the termination test matches the
//! single-pool kernel's, so labels *and* outer iteration counts are
//! bit-identical to `ecl_scc::run` at every shard count.

use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::ctx::CtxGuard;
use ecl_gpusim::{launch_flat_named, CostKind, CountedU32, Device, LaunchConfig};
use ecl_graph::Csr;

use crate::exchange::{Mailboxes, Message};
use crate::partition::Partition;
use crate::time::ShardClock;
use crate::{check_devices, ShardStats, BLOCK_SIZE};

/// Result of a sharded SCC run.
#[derive(Debug)]
pub struct ShardSccResult {
    /// SCC label per global vertex: the maximum vertex id of its SCC
    /// (identical to `ecl_scc::run` labels).
    pub labels: Vec<u32>,
    /// Outer iterations until convergence (identical to the
    /// single-pool kernel's).
    pub outer_iterations: u32,
    /// Run statistics.
    pub stats: ShardStats,
}

impl ShardSccResult {
    /// Number of SCCs.
    pub fn num_sccs(&self) -> usize {
        self.labels.iter().enumerate().filter(|&(v, &l)| v as u32 == l).count()
    }
}

/// Packs a `(v_in, v_out)` signature pair into one mirror payload.
#[inline]
fn pack(v_in: u32, v_out: u32) -> u64 {
    (u64::from(v_in) << 32) | u64::from(v_out)
}

/// Unpacks a mirror payload.
#[inline]
fn unpack(payload: u64) -> (u32, u32) {
    ((payload >> 32) as u32, payload as u32)
}

/// Runs sharded SCC over `part` with one device per shard.
///
/// # Panics
/// Panics if `g` is undirected or `devices.len() != part.shards`.
pub fn run_scc(devices: &[Device], g: &Csr, part: &Partition) -> ShardSccResult {
    assert!(g.is_directed(), "SCC consumes directed graphs");
    check_devices(devices, part);
    let graphs = part.shard_graphs(g);
    let shards = part.shards as usize;
    let mut clock = ShardClock::new();
    let params = *devices[0].params();

    // Per-shard signature state (cur/next double buffers over owned +
    // ghost slots) and per-local-arc liveness.
    let mut cur_in: Vec<Vec<CountedU32>> = Vec::with_capacity(shards);
    let mut cur_out: Vec<Vec<CountedU32>> = Vec::with_capacity(shards);
    let mut next_in: Vec<Vec<CountedU32>> = Vec::with_capacity(shards);
    let mut next_out: Vec<Vec<CountedU32>> = Vec::with_capacity(shards);
    let mut alive: Vec<Vec<bool>> = Vec::with_capacity(shards);
    for sg in &graphs {
        let locals = sg.locals();
        cur_in.push(atomic_u32_array(locals, |_| 0));
        cur_out.push(atomic_u32_array(locals, |_| 0));
        next_in.push(atomic_u32_array(locals, |_| 0));
        next_out.push(atomic_u32_array(locals, |_| 0));
        alive.push(vec![true; sg.csr.num_arcs()]);
    }

    // Candidate plane (forward contributions to remote heads, merged
    // by the owner) and mirror plane (owner broadcasts of changed
    // signature pairs) are kept separate so payloads need no tag bits.
    let mut candidates = Mailboxes::new(shards);
    let mut mirrors = Mailboxes::new(shards);

    let mut m = 0u32;
    loop {
        m += 1;

        // Stage 1: signature init — every local slot (ghosts included:
        // the owner's init value is the global id, so mirrors start
        // consistent without an exchange).
        let mut init_max = 0.0f64;
        for (s, sg) in graphs.iter().enumerate() {
            let device = &devices[s];
            let before = device.modeled_time();
            let _guard = CtxGuard::shard(s as u32);
            let locals = sg.locals();
            for l in 0..locals {
                let id = sg.globals[l];
                cur_in[s][l].store(id);
                cur_out[s][l].store(id);
                next_in[s][l].store(id);
                next_out[s][l].store(id);
            }
            launch_flat_named(
                device,
                "shard.scc.signature-init",
                LaunchConfig::cover(locals, BLOCK_SIZE),
                |t| {
                    if t.global >= locals {
                        device.charge(CostKind::IdleCheck, 1);
                    } else {
                        device.charge(CostKind::ThreadWork, 1);
                    }
                },
            );
            init_max = init_max.max(device.modeled_time() - before);
        }
        clock.superstep(&params, init_max, 0);

        // Stage 2: max propagation to the global fixpoint.
        loop {
            let mut any_changed = false;
            let mut sweep_max = 0.0f64;
            for (s, sg) in graphs.iter().enumerate() {
                let device = &devices[s];
                let before = device.modeled_time();
                let _guard = CtxGuard::shard(s as u32);
                let owned = sg.owned;
                let mut touched = vec![false; owned];

                // Owner-side candidate merges (max, commutative).
                for msg in candidates.take_inbox(s as u32) {
                    let l = sg
                        .local_of(msg.vertex)
                        .expect("candidate for a vertex this shard does not know");
                    debug_assert!(!sg.is_ghost(l), "candidates are addressed to the owner");
                    let cand = msg.payload as u32;
                    if cand > cur_in[s][l].load() {
                        cur_in[s][l].store(cand);
                        next_in[s][l].store(cand);
                        touched[l] = true;
                        any_changed = true;
                    }
                }
                // Mirror refreshes from owners.
                for msg in mirrors.take_inbox(s as u32) {
                    let l = sg
                        .ghost_local(msg.vertex)
                        .expect("mirror update for a vertex this shard does not ghost");
                    let (v_in, v_out) = unpack(msg.payload);
                    cur_in[s][l].store(v_in);
                    cur_out[s][l].store(v_out);
                    // Re-baseline the candidate accumulator.
                    next_in[s][l].store(v_in);
                }

                let csr = &sg.csr;
                let (ci, co, ni, no) = (&cur_in[s], &cur_out[s], &next_in[s], &next_out[s]);
                let live = &alive[s];
                launch_flat_named(
                    device,
                    "shard.scc.propagate",
                    LaunchConfig::cover(owned, BLOCK_SIZE),
                    |t| {
                        if t.global >= owned {
                            device.charge(CostKind::IdleCheck, 1);
                            return;
                        }
                        let u = t.global;
                        let range = csr.arc_range(u as u32);
                        let heads = &csr.neighbor_array()[range.clone()];
                        let iu = ci[u].load();
                        let mut ou = co[u].load();
                        let mut work = 0u64;
                        for (a, &v) in range.zip(heads.iter()) {
                            if !live[a] {
                                continue;
                            }
                            work += 1;
                            // v_in flows forward: commutative max into
                            // the head's next slot (owned or ghost
                            // candidate accumulator).
                            ni[v as usize].fetch_max(iu, None);
                            // v_out flows backward: pull into u.
                            ou = ou.max(co[v as usize].load());
                        }
                        no[u].fetch_max(ou, None);
                        device.charge(CostKind::ThreadWork, 1 + work);
                        device.charge(CostKind::Atomic, 2 * work);
                    },
                );

                // Commit: fold next into cur for owned slots, queue
                // mirror broadcasts for changed boundary vertices, and
                // drain ghost accumulators into candidate messages —
                // all in ascending local order for determinism.
                for v in 0..owned {
                    let new_in = next_in[s][v].load();
                    let new_out = next_out[s][v].load();
                    if new_in != cur_in[s][v].load() || new_out != cur_out[s][v].load() {
                        cur_in[s][v].store(new_in);
                        cur_out[s][v].store(new_out);
                        touched[v] = true;
                        any_changed = true;
                    }
                }
                for (v, &was_touched) in touched.iter().enumerate() {
                    if was_touched && sg.ghost_of[v] != 0 {
                        mirrors.broadcast(
                            s as u32,
                            sg.ghost_of[v],
                            Message {
                                vertex: sg.globals[v],
                                payload: pack(cur_in[s][v].load(), cur_out[s][v].load()),
                            },
                        );
                    }
                }
                for gslot in owned..sg.locals() {
                    let cand = next_in[s][gslot].load();
                    if cand > cur_in[s][gslot].load() {
                        candidates.send(
                            s as u32,
                            sg.ghost_owner[gslot - owned],
                            Message { vertex: sg.globals[gslot], payload: u64::from(cand) },
                        );
                        // Reset so the next sweep re-accumulates
                        // against the (possibly refreshed) mirror.
                        next_in[s][gslot].store(cur_in[s][gslot].load());
                    }
                }
                sweep_max = sweep_max.max(device.modeled_time() - before);
            }
            let moved = candidates.flush() + mirrors.flush();
            clock.superstep(&params, sweep_max, moved);
            if !any_changed && candidates.quiescent() && mirrors.quiescent() {
                break;
            }
        }

        // Stage 3: prune arcs whose endpoint signature pairs differ
        // (mirrors are converged here, so remote comparisons are
        // exact).
        let mut removed = 0usize;
        let mut prune_max = 0.0f64;
        for (s, sg) in graphs.iter().enumerate() {
            let device = &devices[s];
            let before = device.modeled_time();
            let _guard = CtxGuard::shard(s as u32);
            let live_arcs = alive[s].iter().filter(|&&a| a).count();
            launch_flat_named(
                device,
                "shard.scc.prune",
                LaunchConfig::cover(live_arcs, BLOCK_SIZE),
                |t| {
                    if t.global >= live_arcs {
                        device.charge(CostKind::IdleCheck, 1);
                    } else {
                        device.charge(CostKind::ThreadWork, 1);
                    }
                },
            );
            let csr = &sg.csr;
            for u in 0..sg.owned {
                let range = csr.arc_range(u as u32);
                let heads = &csr.neighbor_array()[range.clone()];
                for (a, &v) in range.zip(heads.iter()) {
                    if alive[s][a]
                        && (cur_in[s][u].load() != cur_in[s][v as usize].load()
                            || cur_out[s][u].load() != cur_out[s][v as usize].load())
                    {
                        alive[s][a] = false;
                        removed += 1;
                    }
                }
            }
            prune_max = prune_max.max(device.modeled_time() - before);
        }
        clock.superstep(&params, prune_max, 0);

        let done = graphs
            .iter()
            .enumerate()
            .all(|(s, sg)| (0..sg.owned).all(|v| cur_in[s][v].load() == cur_out[s][v].load()));
        if done {
            break;
        }
        assert!(
            removed > 0,
            "no progress in outer iteration {m}: pruning removed nothing yet \
             signatures disagree — algorithm invariant violated"
        );
    }

    let mut labels = vec![0u32; g.num_vertices()];
    for (s, sg) in graphs.iter().enumerate() {
        for v in 0..sg.owned {
            labels[sg.globals[v] as usize] = cur_in[s][v].load();
        }
    }
    ShardSccResult {
        labels,
        outer_iterations: m,
        stats: ShardStats {
            shards: part.shards,
            strategy: part.strategy,
            cut_arcs: part.cut_arcs,
            total_arcs: part.total_arcs,
            supersteps: clock.supersteps(),
            exchange_messages: clock.messages(),
            modeled_time: clock.total(),
        },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::devices_for;
    use crate::partition::Strategy;
    use ecl_gpusim::DeviceConfig;
    use ecl_graph::GraphBuilder;

    fn run_sharded(g: &Csr, shards: u32) -> ShardSccResult {
        let part = Partition::new(g, shards, Strategy::Contiguous);
        let devices = devices_for(DeviceConfig::test_small(), shards);
        run_scc(&devices, g, &part)
    }

    #[test]
    fn single_cycle_across_shards() {
        let mut b = GraphBuilder::new_directed(6);
        for v in 0..6u32 {
            b.add_edge(v, (v + 1) % 6);
        }
        let g = b.build();
        for shards in [1u32, 2, 3] {
            let r = run_sharded(&g, shards);
            assert_eq!(r.labels, vec![5; 6], "{shards} shards");
            assert_eq!(r.num_sccs(), 1);
        }
    }

    #[test]
    fn matches_single_pool_kernel_on_meshes() {
        for (name, g) in [
            ("wedge", ecl_graphgen::mesh::toroid_wedge(10, 10, 1)),
            ("klein", ecl_graphgen::mesh::klein_bottle(8, 8, 3)),
            ("star", ecl_graphgen::mesh::star(4, 6, 4)),
        ] {
            let single = ecl_scc::run(&Device::test_small(), &g, &ecl_scc::SccConfig::original());
            for shards in [1u32, 2, 4] {
                let r = run_sharded(&g, shards);
                assert_eq!(r.labels, single.labels, "{name}, {shards} shards");
                assert_eq!(
                    r.outer_iterations, single.outer_iterations,
                    "{name}, {shards} shards: outer iteration count diverged"
                );
            }
        }
    }

    #[test]
    fn dag_all_singletons() {
        let mut b = GraphBuilder::new_directed(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let r = run_sharded(&g, 2);
        assert_eq!(r.labels, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.num_sccs(), 5);
    }

    #[test]
    fn masked_cycle_needs_second_outer_iteration() {
        // Mirror of the single-pool kernel test: an arc from high-id
        // vertex 2 into cycle {0,1} delays the cycle to m = 2.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 0);
        let g = b.build();
        let r = run_sharded(&g, 3);
        assert_eq!(r.labels, vec![1, 1, 2]);
        assert_eq!(r.outer_iterations, 2);
    }

    #[test]
    fn repeated_runs_bit_identical() {
        let g = ecl_graphgen::mesh::toroid_wedge(8, 8, 7);
        let a = run_sharded(&g, 4);
        let b = run_sharded(&g, 4);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.stats.supersteps, b.stats.supersteps);
        assert_eq!(a.stats.exchange_messages, b.stats.exchange_messages);
        assert_eq!(a.stats.modeled_time.to_bits(), b.stats.modeled_time.to_bits());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4, true);
        let r = run_sharded(&g, 2);
        assert_eq!(r.num_sccs(), 4);
        assert_eq!(r.outer_iterations, 1);
    }
}
