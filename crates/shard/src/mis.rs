//! Sharded maximal independent set: each shard decides its owned
//! vertices to a local fixpoint from a worklist, over the one-byte
//! ECL-MIS status/priority encoding, and only changed statuses cross
//! the cut.
//!
//! Every slot, ghosts included, starts with the priority byte of its
//! **global** degree and id, so no initial exchange is needed. Each
//! superstep a shard writes its inbox into its ghost slots and runs one
//! launch, `shard.mis.local-fixpoint`: a one-thread worklist of owned
//! vertices, highest salted priority first. A popped undecided vertex
//! enters if it beats every not-OUT neighbor; otherwise it waits on the
//! first higher one — an undecided ghost blocks like any other
//! neighbor. A slot that enters turns its undecided owned neighbors OUT
//! (an in-arc index built once lists them for ghosts, which have no
//! adjacency); a slot that turns OUT requeues its waiters. The
//! first superstep seeds every owned vertex, later ones only settle
//! arrived ghosts. An owned boundary vertex publishes its status once,
//! when it decides; a ghost never sends.
//!
//! Cost per launch: `ThreadWork` 1 per first-superstep seed (written by
//! index), pop and arc examined; `Atomic` 1 per waiter-list link and
//! requeue (a GPU worklist's atomicExch and atomicAdd). One thread: the
//! charges do not depend on the pool's schedule.
//!
//! **Why the set is `ecl_mis::run`'s.** Decisions are final and
//! priorities fixed, so a mirror can lag — show a decided vertex as
//! undecided — but never lie, and a lagging ghost only blocks: no
//! vertex enters while a higher neighbor may still enter, so every IN
//! decision is the greedy MIS's. At the global fixpoint every mirror is
//! current, and an undecided vertex would wait on a higher undecided
//! one, and that one on a higher one — impossible in a finite order.

use std::collections::BinaryHeap;

use ecl_gpusim::atomics::{atomic_u32_array, atomic_u8_array};
use ecl_gpusim::{launch_flat_named, CostKind, CountedU32, CountedU8, Device, Hooks, LaunchConfig};
use ecl_graph::Csr;
use ecl_mis::status::{self, PriorityPolicy};

use crate::exchange::{Driver, Message};
use crate::partition::{Partition, ShardGraph};
use crate::ShardStats;

/// Result of a sharded MIS run.
#[derive(Debug)]
pub struct ShardMisResult {
    /// Membership bitmap per global vertex (identical to
    /// `ecl_mis::run` with the same tie salt).
    pub in_set: Vec<bool>,
    /// Run statistics.
    pub stats: ShardStats,
}

impl ShardMisResult {
    /// Number of vertices in the set.
    pub fn set_size(&self) -> usize {
        self.in_set.iter().filter(|&&x| x).count()
    }
}

/// No owned vertex: the end of a waiter list.
const NONE: u32 = u32::MAX;

/// One shard's statuses, ghost in-arcs, waiter lists and work.
struct ShardState<'g> {
    sg: &'g ShardGraph,
    salt: u32,
    status: Vec<CountedU8>,
    /// The owned neighbors of each ghost slot, which has no adjacency.
    ghost_in: Vec<Vec<u32>>,
    /// Per slot, the first owned vertex it blocks, and per owned
    /// vertex, the next one blocked by the same slot: a blocked vertex
    /// waits on one higher undecided neighbor at a time.
    first: Vec<CountedU32>,
    next: Vec<CountedU32>,
    /// Owned vertices the next launch evaluates.
    seeds: Vec<u32>,
    /// Owned boundary vertices not yet published, ascending.
    boundary: Vec<u32>,
}

impl<'g> ShardState<'g> {
    fn new(sg: &'g ShardGraph, salt: u32) -> ShardState<'g> {
        let policy = PriorityPolicy::DegreeBased;
        let status = atomic_u8_array(sg.locals(), |l| {
            policy.initial_byte(sg.global_degree[l] as usize, sg.globals[l])
        });
        let (first, next) =
            (atomic_u32_array(sg.locals(), |_| NONE), atomic_u32_array(sg.owned, |_| NONE));
        let owned = 0..sg.owned as u32;
        let boundary = owned.clone().filter(|&v| sg.ghost_of[v as usize] != 0).collect();
        let mut ghost_in = vec![Vec::new(); sg.ghosts()];
        for (u, v) in sg.csr.arcs().filter(|&(_, v)| sg.is_ghost(v as usize)) {
            ghost_in[v as usize - sg.owned].push(u);
        }
        ShardState { sg, salt, status, ghost_in, first, next, seeds: owned.collect(), boundary }
    }

    /// The local phase: settles the ghosts in `arrived`, then pops the
    /// seeds and every vertex settling wakes, highest priority first,
    /// until the worklist is empty.
    fn local_fixpoint(&self, device: &Device, seeds: &[u32], arrived: &[u32]) {
        let config = LaunchConfig::new(1, 1);
        launch_flat_named(device, "shard.mis.local-fixpoint", config, |t| {
            let h = t.hooks;
            let mut heap = BinaryHeap::new();
            let mut charges = [seeds.len() as u64, 0];
            heap.extend(seeds.iter().map(|&v| (self.rank(v, h), v)));
            for &l in arrived {
                self.settle(l, &mut heap, &mut charges, h);
            }
            let g = &self.sg.globals;
            while let Some((_, v)) = heap.pop() {
                charges[0] += 1;
                let sv = self.status[v as usize].load(h);
                if status::decided(sv) {
                    continue;
                }
                // No neighbor is IN: an IN decision settles at once.
                let adj = self.sg.csr.neighbors(v);
                let blocker = adj.iter().position(|&u| {
                    let su = self.status[u as usize].load(h);
                    su != status::OUT
                        && status::beats_salted(self.salt, su, g[u as usize], sv, g[v as usize])
                });
                charges[0] += blocker.map_or(adj.len(), |i| i + 1) as u64;
                if let Some(i) = blocker {
                    self.next[v as usize].store(self.first[adj[i] as usize].load(h), h);
                    self.first[adj[i] as usize].store(v, h);
                    charges[1] += 1;
                } else {
                    self.status[v as usize].store(status::IN, h);
                    self.settle(v, &mut heap, &mut charges, h);
                }
            }
            device.charge(CostKind::ThreadWork, charges[0]);
            device.charge(CostKind::Atomic, charges[1]);
        });
    }

    /// Slot `l` has decided. IN turns its undecided owned neighbors —
    /// every vertex waiting on it among them — OUT; OUT puts the
    /// vertices waiting on it back on the worklist. Adds arcs examined
    /// and pushes to `charges`, the launch's `[ThreadWork, Atomic]`.
    fn settle(
        &self,
        l: u32,
        heap: &mut BinaryHeap<((u8, u32, u32), u32)>,
        charges: &mut [u64; 2],
        h: Hooks,
    ) {
        let (sg, i) = (self.sg, l as usize);
        if self.status[i].load(h) == status::IN {
            let adj =
                if sg.is_ghost(i) { &self.ghost_in[i - sg.owned] } else { sg.csr.neighbors(l) };
            for &u in adj.iter().take_while(|&&u| !sg.is_ghost(u as usize)) {
                charges[0] += 1;
                if status::undecided(self.status[u as usize].load(h)) {
                    self.status[u as usize].store(status::OUT, h);
                    self.settle(u, heap, charges, h);
                }
            }
            return;
        }
        let mut v = self.first[i].load(h);
        while v != NONE {
            heap.push((self.rank(v, h), v));
            charges[1] += 1;
            v = self.next[v as usize].load(h);
        }
    }

    /// Worklist key of owned vertex `v`.
    fn rank(&self, v: u32, h: Hooks) -> (u8, u32, u32) {
        let v = v as usize;
        status::salted_rank(self.salt, self.status[v].load(h), self.sg.globals[v])
    }
}

/// Runs sharded MIS over `part` with one device per shard, using the
/// degree-based ECL-MIS priority policy under `tie_salt`.
///
/// # Panics
/// Panics if `g` is directed or `devices.len() != part.shards`.
pub fn run_mis(devices: &[Device], g: &Csr, part: &Partition, tie_salt: u32) -> ShardMisResult {
    assert!(!g.is_directed(), "MIS consumes undirected graphs");
    let mut driver = Driver::new(devices, part);
    let graphs = part.shard_graphs(g);
    let mut states: Vec<ShardState> =
        graphs.iter().map(|sg| ShardState::new(sg, tie_salt)).collect();

    driver.step_to_fixpoint(&mut states, |_, st, device, inbox, out| {
        let sg = st.sg;
        let mut arrived = Vec::new();
        for msg in inbox {
            let l = sg.ghost_local(msg.vertex).expect("status of a vertex not ghosted");
            st.status[l].store(msg.payload as u8, Hooks::OFF);
            if msg.payload as u8 == status::IN || st.first[l].load(Hooks::OFF) != NONE {
                arrived.push(l as u32);
            }
        }
        let seeds = std::mem::take(&mut st.seeds);
        if !seeds.is_empty() || !arrived.is_empty() {
            st.local_fixpoint(device, &seeds, &arrived);
        }
        let status = &st.status;
        st.boundary.retain(|&v| {
            let sv = status[v as usize].load(Hooks::OFF);
            if status::decided(sv) {
                let msg = Message { vertex: sg.globals[v as usize], payload: sv.into() };
                out.broadcast(sg.ghost_of[v as usize], msg);
            }
            status::undecided(sv)
        });
    });

    let mut in_set = vec![false; g.num_vertices()];
    for st in &states {
        for v in 0..st.sg.owned {
            let sv = st.status[v].load(Hooks::OFF);
            assert!(status::decided(sv), "fixpoint with an undecided vertex");
            in_set[st.sg.globals[v] as usize] = sv == status::IN;
        }
    }
    ShardMisResult { in_set, stats: driver.stats(part) }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::devices_for;
    use crate::partition::Strategy;
    use ecl_gpusim::DeviceConfig;
    use ecl_graph::GraphBuilder;

    fn run_sharded(g: &Csr, shards: u32, salt: u32) -> ShardMisResult {
        let part = Partition::new(g, shards, Strategy::Contiguous);
        let devices = devices_for(DeviceConfig::test_small(), shards);
        run_mis(&devices, g, &part, salt)
    }

    fn assert_valid_mis(g: &Csr, in_set: &[bool]) {
        for (u, v) in g.arcs() {
            assert!(
                !(in_set[u as usize] && in_set[v as usize]),
                "adjacent vertices {u} and {v} both IN"
            );
        }
        for v in 0..g.num_vertices() {
            if !in_set[v] {
                assert!(
                    g.neighbors(v as u32).iter().any(|&u| in_set[u as usize]),
                    "vertex {v} is OUT with no IN neighbor (not maximal)"
                );
            }
        }
    }

    #[test]
    fn matches_single_pool_kernel_across_shard_counts() {
        for seed in [3u64, 17] {
            let g = ecl_graphgen::random::erdos_renyi(300, 4.0, seed);
            let cfg = ecl_mis::MisConfig::seeded(seed);
            let single = ecl_mis::run(&Device::test_small(), &g, &cfg);
            for shards in [1u32, 2, 4] {
                let r = run_sharded(&g, shards, cfg.tie_salt);
                assert_eq!(r.in_set, single.in_set, "seed {seed}, {shards} shards");
            }
        }
    }

    #[test]
    fn result_is_a_valid_mis() {
        let g = ecl_graphgen::grid::torus_2d(9, 9);
        let r = run_sharded(&g, 3, 42);
        assert_valid_mis(&g, &r.in_set);
        assert!(r.set_size() > 0);
    }

    #[test]
    fn isolated_vertices_all_enter() {
        let g = Csr::empty(6, false);
        let r = run_sharded(&g, 2, 0);
        assert!(r.in_set.iter().all(|&x| x));
    }

    #[test]
    fn repeated_runs_bit_identical() {
        let g = ecl_graphgen::random::erdos_renyi(200, 3.0, 5);
        let a = run_sharded(&g, 4, 7);
        let b = run_sharded(&g, 4, 7);
        assert_eq!(a.in_set, b.in_set);
        assert_eq!(a.stats.supersteps, b.stats.supersteps);
        assert_eq!(a.stats.modeled_time.to_bits(), b.stats.modeled_time.to_bits());
    }

    #[test]
    fn salt_changes_selection_but_stays_valid() {
        let g = ecl_graphgen::random::erdos_renyi(300, 5.0, 23);
        let a = run_sharded(&g, 2, 0);
        let b = run_sharded(&g, 2, 0xDEAD_BEEF);
        assert_valid_mis(&g, &a.in_set);
        assert_valid_mis(&g, &b.in_set);
        assert_ne!(a.in_set, b.in_set, "different salts should pick different sets");
    }

    fn path(order: &[u32]) -> Csr {
        let mut b = GraphBuilder::new_undirected(order.len());
        for w in order.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build()
    }

    /// Runs `part` and checks the set against `ecl_mis::run`.
    fn check_against_single(g: &Csr, part: &Partition, salt: u32) -> ShardMisResult {
        let cfg = ecl_mis::MisConfig { tie_salt: salt, ..ecl_mis::MisConfig::default() };
        let single = ecl_mis::run(&Device::test_small(), g, &cfg);
        let r = run_mis(&devices_for(DeviceConfig::test_small(), part.shards), g, part, salt);
        assert_eq!(r.in_set, single.in_set, "{} shards", part.shards);
        r
    }

    #[test]
    fn more_shards_than_vertices_leaves_shards_empty() {
        let g = path(&[0, 1, 2, 3]);
        let part = Partition::new(&g, 6, Strategy::Contiguous);
        assert_eq!(part.shard_graphs(&g).iter().filter(|sg| sg.locals() == 0).count(), 2);
        check_against_single(&g, &part, 5);
    }

    #[test]
    fn priority_chain_across_the_cut_waits_on_undecided_ghosts() {
        // Path p0 - p1 - p2 - p3 in falling priority (degrees 1 and 2
        // share a byte, so the hashed id decides), owned alternately by
        // shards 0 and 1: every arc is cut. p2 must wait on ghost p1
        // until p0's IN turns p1 OUT; a ghost that did not block would
        // let p1 and p2 enter next to p0 and each other.
        assert_eq!(status::priority(1), status::priority(2));
        let mut order: Vec<u32> = (0..4).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(status::salted_rank(0, 0, v)));
        let g = path(&order);
        let mut owner = [0u32; 4];
        for (i, &v) in order.iter().enumerate() {
            owner[v as usize] = i as u32 % 2;
        }
        let part = Partition::owned_by(&g, &owner);
        assert_eq!(part.cut_arcs, 6);
        let r = check_against_single(&g, &part, 0);
        let in_set: Vec<bool> = order.iter().map(|&v| r.in_set[v as usize]).collect();
        assert_eq!(in_set, [true, false, true, false]);
        // One decision crosses the cut per superstep, then a quiet one.
        assert_eq!((r.stats.supersteps, r.stats.exchange_messages), (5, 4));
    }

    #[test]
    fn vertex_mirrored_by_three_shards() {
        // Vertex 0 (shard 0) neighbors 2, 4 and 6, one in each other
        // shard, so its status reaches three holders.
        let mut b = GraphBuilder::new_undirected(8);
        for (u, v) in [(0, 2), (0, 4), (0, 6), (1, 3), (3, 5), (5, 7), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let part = Partition::new(&g, 4, Strategy::Contiguous);
        assert_eq!(part.shard_graphs(&g)[0].ghost_of[0].count_ones(), 3);
        for salt in [0, 1, 2, 3] {
            check_against_single(&g, &part, salt);
        }
    }

    #[test]
    fn decided_vertex_publishes_once_and_is_not_echoed() {
        // 0 - 1 | 2 - 3 over two shards: 1 and 2 each decide once and
        // tell their one holder; the holders send nothing back.
        let g = path(&[0, 1, 2, 3]);
        let part = Partition::new(&g, 2, Strategy::Contiguous);
        for salt in [0, 1, 2, 3] {
            let r = check_against_single(&g, &part, salt);
            assert_eq!(r.stats.exchange_messages, 2, "salt {salt}");
        }
    }
}
