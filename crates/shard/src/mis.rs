//! Sharded maximal independent set: Jacobi selection sweeps over the
//! one-byte ECL-MIS status/priority encoding.
//!
//! Every vertex starts undecided with the priority byte of
//! [`ecl_mis::status::PriorityPolicy::initial_byte`] computed from its
//! **global** degree and id (ghost slots included — priorities are a
//! pure function of the global graph, so no initial exchange is
//! needed). Each superstep, an undecided owned vertex reads the
//! previous superstep's snapshot of its neighborhood:
//!
//! - any neighbor decided IN ⇒ the vertex decides OUT;
//! - otherwise, if it beats every not-OUT neighbor under the salted
//!   total priority order ⇒ it decides IN;
//! - otherwise it stays undecided.
//!
//! Decisions are final, the sweep writes only its own next-state slot,
//! and undecided priorities never change. Two adjacent vertices can
//! therefore never decide IN — not even from stale ghost mirrors: a
//! mirror can lag (showing a decided neighbor as still undecided) but
//! never lie about priorities, and the total order lets at most one
//! side of an edge beat the other. The fixpoint is the unique greedy
//! MIS of the priority order — bit-identical to `ecl_mis::run` with
//! the same salt at every shard count.

use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::ctx::CtxGuard;
use ecl_gpusim::{launch_flat_named, CostKind, Device, LaunchConfig};
use ecl_graph::Csr;
use ecl_mis::status::{self, PriorityPolicy};

use crate::exchange::{Mailboxes, Message};
use crate::partition::Partition;
use crate::time::ShardClock;
use crate::{check_devices, ShardStats, BLOCK_SIZE};

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

/// Runs sharded MIS over `part` with one device per shard, using the
/// degree-based ECL-MIS priority policy under `tie_salt`.
///
/// # Panics
/// Panics if `g` is directed or `devices.len() != part.shards`.
pub fn run_mis(devices: &[Device], g: &Csr, part: &Partition, tie_salt: u32) -> ShardMisResult {
    assert!(!g.is_directed(), "MIS consumes undirected graphs");
    check_devices(devices, part);
    let graphs = part.shard_graphs(g);
    let shards = part.shards as usize;
    let policy = PriorityPolicy::DegreeBased;

    let mut cur: Vec<Vec<ecl_gpusim::CountedU32>> = Vec::with_capacity(shards);
    let mut next: Vec<Vec<ecl_gpusim::CountedU32>> = Vec::with_capacity(shards);
    let mut clock = ShardClock::new();
    let params = *devices[0].params();

    let mut init_max = 0.0f64;
    for (s, sg) in graphs.iter().enumerate() {
        let device = &devices[s];
        let before = device.modeled_time();
        let _guard = CtxGuard::shard(s as u32);
        let locals = sg.locals();
        let init_byte =
            |l: usize| policy.initial_byte(sg.global_degree[l] as usize, sg.globals[l]) as u32;
        let state = atomic_u32_array(locals, init_byte);
        launch_flat_named(device, "shard.mis.init", LaunchConfig::cover(locals, BLOCK_SIZE), |t| {
            if t.global >= locals {
                device.charge(CostKind::IdleCheck, 1);
            } else {
                device.charge(CostKind::ThreadWork, 1);
            }
        });
        next.push(atomic_u32_array(locals, init_byte));
        cur.push(state);
        init_max = init_max.max(device.modeled_time() - before);
    }
    clock.superstep(&params, init_max, 0);

    let mut mail = Mailboxes::new(shards);
    loop {
        let mut any_changed = false;
        let mut sweep_max = 0.0f64;
        for (s, sg) in graphs.iter().enumerate() {
            let device = &devices[s];
            let before = device.modeled_time();
            let _guard = CtxGuard::shard(s as u32);

            for msg in mail.take_inbox(s as u32) {
                let l = sg
                    .ghost_local(msg.vertex)
                    .expect("mirror update for a vertex this shard does not ghost");
                cur[s][l].store(msg.payload as u32);
            }

            let owned = sg.owned;
            let csr = &sg.csr;
            let globals = &sg.globals;
            let (cur_s, next_s) = (&cur[s], &next[s]);
            launch_flat_named(
                device,
                "shard.mis.sweep",
                LaunchConfig::cover(owned, BLOCK_SIZE),
                |t| {
                    if t.global >= owned {
                        device.charge(CostKind::IdleCheck, 1);
                        return;
                    }
                    let v = t.global;
                    let sv = cur_s[v].load() as u8;
                    if status::decided(sv) {
                        device.charge(CostKind::ThreadWork, 1);
                        next_s[v].store(sv as u32);
                        return;
                    }
                    let mut out = false;
                    let mut wins = true;
                    for &u in csr.neighbors(v as u32) {
                        let su = cur_s[u as usize].load() as u8;
                        if su == status::IN {
                            out = true;
                            break;
                        }
                        if su != status::OUT
                            && !status::beats_salted(
                                tie_salt,
                                sv,
                                globals[v],
                                su,
                                globals[u as usize],
                            )
                        {
                            wins = false;
                        }
                    }
                    device.charge(CostKind::ThreadWork, 1 + csr.degree(v as u32) as u64);
                    let new = if out {
                        status::OUT
                    } else if wins {
                        status::IN
                    } else {
                        sv
                    };
                    next_s[v].store(new as u32);
                },
            );

            for v in 0..owned {
                let new = next[s][v].load();
                if new != cur[s][v].load() {
                    any_changed = true;
                    cur[s][v].store(new);
                    if sg.ghost_of[v] != 0 {
                        mail.broadcast(
                            s as u32,
                            sg.ghost_of[v],
                            Message { vertex: sg.globals[v], payload: new as u64 },
                        );
                    }
                }
            }
            sweep_max = sweep_max.max(device.modeled_time() - before);
        }
        let moved = mail.flush();
        clock.superstep(&params, sweep_max, moved);
        if !any_changed && mail.quiescent() {
            break;
        }
    }

    let mut in_set = vec![false; g.num_vertices()];
    for (s, sg) in graphs.iter().enumerate() {
        for v in 0..sg.owned {
            let sv = cur[s][v].load() as u8;
            debug_assert!(status::decided(sv), "fixpoint with an undecided vertex");
            in_set[sg.globals[v] as usize] = sv == status::IN;
        }
    }
    ShardMisResult { in_set, stats: ShardStats::of(part, &clock) }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::devices_for;
    use crate::partition::Strategy;
    use ecl_gpusim::DeviceConfig;

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
}
