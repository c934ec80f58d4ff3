//! Sharded strongly connected components: the ECL-SCC outer loop
//! (signature init → max propagation → edge pruning) with each shard
//! propagating to a local fixpoint and only boundary changes crossing
//! the cut. Arcs belong to the owner of their source; ghost slots
//! mirror remote heads and have no adjacency.
//!
//! **Local phase.** Each superstep, each shard runs one launch,
//! `shard.scc.local-fixpoint`: `v_in` flows forward along live
//! out-arcs from a max-first worklist, then `v_out` backward along live
//! in-arcs (an in-arc index built once from the local CSR) from a
//! second one. Seeds go largest value first and values only grow, so a
//! slot is raised at most once, to its final value, and a slot popped
//! at its current value is final. An outer iteration's first superstep
//! seeds every slot; later ones seed owned vertices a candidate raised
//! and ghosts whose mirrored `v_out` rose. A shard with nothing seeded
//! launches nothing.
//! Cost per launch: `ThreadWork` 1 per pop and 1 per live arc examined,
//! `Atomic` 1 per arc examined (the atomicMax) and 1 per push, seeds
//! included (the tail-counter atomicAdd of a GPU worklist). It is one
//! thread and touches only its shard's state, so its charges do not
//! depend on the pool's schedule or on the shards running beside it.
//!
//! **Exchange.** A ghost the forward phase raised goes to its owner as
//! a **candidate**, merged by max; one the owner already meets changes
//! nothing, so nothing echoes back. Owners broadcast changed
//! `(v_in, v_out)` pairs, packed in one `u64`, to every mirror holder;
//! a ghost keeps the max of its mirror and its own raises. Both kinds
//! share one mailbox: a candidate lands on an owned slot, a mirror
//! update on a ghost slot. Propagation ends after a superstep that
//! sends nothing.
//!
//! **Not ECL-SCC's `propagate` per shard.** That prototype took
//! batch-shard4's `scc_ms` to 56.6 ms (2-CPU host) but raised its
//! modeled units 131 %: each superstep repays about five full grid
//! passes with 512-wide block syncs; the worklist touches what changed.
//!
//! **Determinism.** Max-propagation has a unique fixpoint on a fixed
//! arc set, pruning runs only at the global fixpoint (mirrors
//! included) and decides pointwise, and the termination test matches
//! the single-pool kernel's: labels *and* outer iteration counts are
//! bit-identical to `ecl_scc::run` at every shard count.

use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::{launch_flat_named, CostKind, CountedU32, Device, Hooks, LaunchConfig};
use ecl_graph::Csr;

use crate::exchange::{Driver, Message};
use crate::partition::{Partition, ShardGraph};
use crate::{ShardStats, BLOCK_SIZE};

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

/// A flat launch over `n` items charging one unit per thread.
fn flat_pass(device: &Device, name: &str, n: usize) {
    launch_flat_named(device, name, LaunchConfig::cover(n, BLOCK_SIZE), |t| {
        let kind = if t.global < n { CostKind::ThreadWork } else { CostKind::IdleCheck };
        device.charge(kind, 1);
    });
}

/// One shard's signatures, arc liveness and in-arc index.
struct ShardState<'g> {
    sg: &'g ShardGraph,
    v_in: Vec<CountedU32>,
    v_out: Vec<CountedU32>,
    alive: Vec<bool>,
    /// The local CSR transposed (in-arc sources per slot), and the
    /// local arc id of each of its entries.
    rev: Csr,
    rev_arc: Vec<u32>,
    /// Per slot, the pair last exchanged: an owned vertex's last
    /// broadcast, a ghost's mirror joined with the candidates it sent.
    sent: Vec<u64>,
    /// `(value, slot)` seeds of the next forward and backward drains.
    fwd: Vec<(u32, u32)>,
    bwd: Vec<(u32, u32)>,
    /// Arcs the last prune removed.
    pruned: usize,
}

impl<'g> ShardState<'g> {
    fn new(sg: &'g ShardGraph) -> ShardState<'g> {
        let rev = sg.csr.transpose();
        // `transpose` lists each head's in-arcs in ascending arc order.
        let mut cursor = rev.offsets().to_vec();
        let mut rev_arc = vec![0u32; sg.csr.num_arcs()];
        for (a, (_, v)) in sg.csr.arcs().enumerate() {
            rev_arc[cursor[v as usize]] = a as u32;
            cursor[v as usize] += 1;
        }
        let zeros = || atomic_u32_array(sg.locals(), |_| 0);
        let (alive, sent) = (vec![true; sg.csr.num_arcs()], vec![0; sg.locals()]);
        let (v_in, v_out, fwd, bwd) = (zeros(), zeros(), Vec::new(), Vec::new());
        ShardState { sg, v_in, v_out, alive, rev, rev_arc, sent, fwd, bwd, pruned: 0 }
    }

    /// Slot `l`'s signature pair, read on the host.
    fn pair(&self, l: usize) -> u64 {
        pack(self.v_in[l].load(Hooks::OFF), self.v_out[l].load(Hooks::OFF))
    }

    /// The local phase: `v_in` forward from `fwd`, then `v_out`
    /// backward from `bwd`, each seeded with `(value, slot)` entries.
    fn local_fixpoint(&self, device: &Device, fwd: &[(u32, u32)], bwd: &[(u32, u32)]) {
        let (csr, rev) = (&self.sg.csr, &self.rev);
        let config = LaunchConfig::new(1, 1);
        launch_flat_named(device, "shard.scc.local-fixpoint", config, |t| {
            let heads = csr.neighbor_array();
            let [f, b] = t.hooks.unswitch(
                #[inline(always)]
                |h| {
                    let f =
                        self.drain(&self.v_in, fwd, h, |u| csr.arc_range(u).map(|a| (a, heads[a])));
                    let b = self.drain(&self.v_out, bwd, h, |v| {
                        rev.arc_range(v)
                            .map(|i| (self.rev_arc[i] as usize, rev.neighbor_array()[i]))
                    });
                    [f, b]
                },
            );
            device.charge(CostKind::ThreadWork, f[0] + f[1] + b[0] + b[1]);
            device.charge(CostKind::Atomic, f[1] + f[2] + b[1] + b[2]);
        });
    }

    /// Max-propagates `sig` from `seeds` along the live `(arc, target)`
    /// pairs of `step`: seeds go largest value first, each flooding its
    /// value through a stack, so a slot is raised at most once — to its
    /// final value — and a seed an earlier flood raised is stale. Ghost
    /// targets are raised but not expanded. Returns `[pops, arcs
    /// examined, pushes]`.
    #[inline(always)]
    fn drain<I: Iterator<Item = (usize, u32)>>(
        &self,
        sig: &[CountedU32],
        seeds: &[(u32, u32)],
        h: Hooks,
        step: impl Fn(u32) -> I,
    ) -> [u64; 3] {
        let mut order = seeds.to_vec();
        order.sort_unstable_by(|a, b| b.cmp(a));
        let (mut stack, mut counts) = (Vec::new(), [0, 0, seeds.len() as u64]);
        for (val, seed) in order {
            stack.push(seed);
            while let Some(l) = stack.pop() {
                counts[0] += 1;
                if val != sig[l as usize].load(h) {
                    continue;
                }
                for (_, t) in step(l).filter(|&(a, _)| self.alive[a]) {
                    counts[1] += 1;
                    if sig[t as usize].fetch_max(val, None, h) < val
                        && !self.sg.is_ghost(t as usize)
                    {
                        stack.push(t);
                        counts[2] += 1;
                    }
                }
            }
        }
        counts
    }
}

/// Runs sharded SCC over `part` with one device per shard.
///
/// # Panics
/// Panics if `g` is undirected or `devices.len() != part.shards`.
pub fn run_scc(devices: &[Device], g: &Csr, part: &Partition) -> ShardSccResult {
    assert!(g.is_directed(), "SCC consumes directed graphs");
    let mut driver = Driver::new(devices, part);
    let graphs = part.shard_graphs(g);
    let mut states: Vec<ShardState> = graphs.iter().map(ShardState::new).collect();

    let mut m = 0u32;
    loop {
        m += 1;

        // Stage 1: signature init — every local slot (ghosts included:
        // the owner's init value is the global id, so mirrors start
        // consistent without an exchange) — seeding both drains with
        // every slot they expand from.
        driver.step(&mut states, |_, st, device, _, _| {
            for (l, &id) in st.sg.globals.iter().enumerate() {
                st.v_in[l].store(id, Hooks::OFF);
                st.v_out[l].store(id, Hooks::OFF);
                st.sent[l] = pack(id, id);
            }
            st.bwd = st.sg.globals.iter().copied().zip(0..).collect();
            st.fwd = st.bwd[..st.sg.owned].to_vec();
            flat_pass(device, "shard.scc.signature-init", st.sg.locals());
        });

        // Stage 2: worklist propagation to the global fixpoint.
        driver.step_to_fixpoint(&mut states, |_, st, device, inbox, out| {
            let sg = st.sg;
            let (mut fwd, mut bwd) = (std::mem::take(&mut st.fwd), std::mem::take(&mut st.bwd));
            for msg in inbox {
                let l = sg.local_of(msg.vertex).expect("message for a vertex this shard lacks");
                if sg.is_ghost(l) {
                    let v_out = msg.payload as u32;
                    st.v_in[l].fetch_max((msg.payload >> 32) as u32, None, Hooks::OFF);
                    if st.v_out[l].fetch_max(v_out, None, Hooks::OFF) < v_out {
                        bwd.push((v_out, l as u32));
                    }
                    st.sent[l] = st.pair(l);
                } else {
                    let cand = msg.payload as u32;
                    if st.v_in[l].fetch_max(cand, None, Hooks::OFF) < cand {
                        fwd.push((cand, l as u32));
                    }
                }
            }
            if !fwd.is_empty() || !bwd.is_empty() {
                st.local_fixpoint(device, &fwd, &bwd);
            }

            // Publish in ascending local order (determinism): changed
            // owned pairs to their mirror holders, raised ghosts to
            // their owners.
            for l in 0..sg.locals() {
                let pair = st.pair(l);
                if pair == st.sent[l] {
                    continue;
                }
                st.sent[l] = pair;
                let vertex = sg.globals[l];
                if sg.is_ghost(l) {
                    let owner = sg.ghost_owner[l - sg.owned];
                    out.send(owner, Message { vertex, payload: pair >> 32 });
                } else {
                    out.broadcast(sg.ghost_of[l], Message { vertex, payload: pair });
                }
            }
        });

        // Stage 3: prune arcs whose endpoint signature pairs differ
        // (mirrors are converged here, so remote comparisons are
        // exact).
        driver.step(&mut states, |_, st, device, _, _| {
            st.pruned = 0;
            flat_pass(device, "shard.scc.prune", st.alive.iter().filter(|&&a| a).count());
            let csr = &st.sg.csr;
            for u in 0..st.sg.owned {
                for a in csr.arc_range(u as u32) {
                    let v = csr.neighbor_array()[a] as usize;
                    if st.alive[a] && st.pair(u) != st.pair(v) {
                        st.alive[a] = false;
                        st.pruned += 1;
                    }
                }
            }
        });

        let done = states.iter().all(|st| {
            (0..st.sg.owned).all(|v| st.v_in[v].load(Hooks::OFF) == st.v_out[v].load(Hooks::OFF))
        });
        if done {
            break;
        }
        assert!(
            states.iter().any(|st| st.pruned > 0),
            "no progress in outer iteration {m}: pruning removed nothing yet \
             signatures disagree — algorithm invariant violated"
        );
    }

    let mut labels = vec![0u32; g.num_vertices()];
    for st in &states {
        for v in 0..st.sg.owned {
            labels[st.sg.globals[v] as usize] = st.v_in[v].load(Hooks::OFF);
        }
    }
    ShardSccResult { labels, outer_iterations: m, stats: driver.stats(part) }
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

    fn digraph(n: usize, arcs: &[(u32, u32)]) -> Csr {
        let mut b = GraphBuilder::new_directed(n);
        for &(u, v) in arcs {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Runs `part` and checks labels and outer iterations against
    /// `ecl_scc::run`.
    fn check_against_single(g: &Csr, part: &Partition) -> ShardSccResult {
        let single = ecl_scc::run(&Device::test_small(), g, &ecl_scc::SccConfig::original());
        let r = run_scc(&devices_for(DeviceConfig::test_small(), part.shards), g, part);
        assert_eq!(r.labels, single.labels, "{} shards", part.shards);
        assert_eq!(r.outer_iterations, single.outer_iterations, "{} shards", part.shards);
        r
    }

    #[test]
    fn more_shards_than_vertices_leaves_shards_empty() {
        let g = digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let part = Partition::new(&g, 6, Strategy::Contiguous);
        assert_eq!(part.shard_graphs(&g).iter().filter(|sg| sg.locals() == 0).count(), 2);
        let r = check_against_single(&g, &part);
        assert_eq!(r.labels, vec![2, 2, 2, 3]);
    }

    #[test]
    fn one_cycle_through_all_four_shards() {
        // Every arc of 0 → 4 → 2 → 6 → 1 → 5 → 3 → 7 → 0 crosses the
        // cut; the two slots of each shard sit at different points of it.
        let order = [0u32, 4, 2, 6, 1, 5, 3, 7];
        let arcs: Vec<(u32, u32)> = (0..8).map(|i| (order[i], order[(i + 1) % 8])).collect();
        let g = digraph(8, &arcs);
        let part = Partition::new(&g, 4, Strategy::Contiguous);
        assert_eq!(part.cut_arcs, 8);
        let r = check_against_single(&g, &part);
        assert_eq!(r.labels, vec![7; 8]);
    }

    #[test]
    fn self_loops_on_boundary_vertices() {
        // Shards {0, 1, 2} and {3, 4, 5}: 2 and 3 loop on themselves
        // and form an SCC across the cut.
        let arcs = [(2, 2), (3, 3), (2, 3), (3, 2), (1, 2), (4, 3), (5, 5), (0, 1), (3, 4)];
        let g = digraph(6, &arcs);
        let part = Partition::new(&g, 2, Strategy::Contiguous);
        let r = check_against_single(&g, &part);
        assert_eq!(r.labels, vec![0, 1, 4, 4, 4, 5]);
    }

    #[test]
    fn vertex_mirrored_by_three_shards() {
        // Vertex 0 (shard 0) is an arc head in shards 1, 2 and 3, so
        // each of its broadcasts reaches three holders.
        let arcs = [(0, 2), (2, 0), (4, 0), (0, 4), (6, 0), (0, 7), (7, 6), (3, 5), (5, 1)];
        let g = digraph(8, &arcs);
        let part = Partition::new(&g, 4, Strategy::Contiguous);
        assert_eq!(part.shard_graphs(&g)[0].ghost_of[0].count_ones(), 3);
        let r = check_against_single(&g, &part);
        assert_eq!(r.labels, vec![7, 1, 7, 3, 7, 5, 7, 7]);
    }

    #[test]
    fn candidate_the_owner_already_exceeds_is_not_echoed() {
        // Shard 0 owns {0, 1, 4} and raises 1 to 4 over 4 → 1 while
        // shard 1 sends the candidate 3 over 3 → 1. The owner ignores
        // it and shard 1's ghost takes the broadcast 4 without sending
        // again: the broadcast and the candidate are the only messages.
        let g = digraph(5, &[(3, 1), (4, 1)]);
        let r = check_against_single(&g, &Partition::owned_by(&g, &[0, 0, 1, 1, 0]));
        assert_eq!(r.stats.exchange_messages, 2);
    }

    #[test]
    fn hashed_random_digraph_with_many_ghosts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let arcs: Vec<(u32, u32)> =
            (0..900).map(|_| (rng.random_range(0..300u32), rng.random_range(0..300u32))).collect();
        let g = digraph(300, &arcs);
        let part = Partition::new(&g, 4, Strategy::Hashed);
        let ghosts: usize = part.shard_graphs(&g).iter().map(ShardGraph::ghosts).sum();
        assert!(ghosts > 300, "{ghosts} ghosts");
        check_against_single(&g, &part);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4, true);
        let r = run_sharded(&g, 2);
        assert_eq!(r.num_sccs(), 4);
        assert_eq!(r.outer_iterations, 1);
    }
}
