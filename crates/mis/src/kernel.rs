//! The ECL-MIS initialization and selection kernels.

use std::sync::atomic::{AtomicBool, Ordering};

use ecl_check::CheckedSlice;
use ecl_gpusim::atomics::atomic_u8_array;
use ecl_gpusim::{launch_persistent_named, CostKind, CountedU8, Device, Hooks};
use ecl_graph::Csr;

use crate::status::{self, IN, OUT};
use crate::{MisConfig, MisCounters, MisResult};

/// Runs initialization plus the round-based selection loop.
pub fn maximal_independent_set(device: &Device, g: &Csr, config: &MisConfig) -> MisResult {
    assert!(
        ecl_graph::validate::check_no_self_loops(g).is_ok(),
        "ECL-MIS requires self-loop-free inputs"
    );
    let n = g.num_vertices();
    let num_threads = device.resident_threads();
    let counters = MisCounters::new(num_threads);
    let profiling = config.mode.enabled();

    // Initialization: one byte per vertex encoding status + priority
    // (§2.3). The init kernel also tallies the round-robin assignment.
    let stat = atomic_u8_array(n, |_| 0);
    // Status bytes race by design (§2.3): every store is monotonic
    // (undecided -> in/out) and all writers of a cell agree on the
    // direction, so plain stores replace synchronization.
    let stat = CheckedSlice::benign(
        device,
        "mis.stat",
        &stat,
        "monotonic status bytes: undecided->in/out transitions commute (§2.3)",
    );
    ecl_gpusim::observe::phase_start(device, "init");
    launch_persistent_named(device, "mis.init", |t| {
        if t.global >= num_threads {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        let mut v = t.global;
        let mut assigned = 0u64;
        while v < n {
            stat[v].store(config.priority.initial_byte(g.degree(v as u32), v as u32), t.hooks);
            assigned += 1;
            v += num_threads;
        }
        device.charge(CostKind::ThreadWork, assigned);
        if profiling && assigned > 0 {
            counters.assigned.add(t.global, assigned);
        }
    });
    ecl_gpusim::observe::phase_end(device, "init");

    // Selection: each round every persistent thread makes one pass
    // over its still-undecided vertices; the asynchronous CUDA kernel
    // corresponds to running rounds until quiescence.
    //
    // Iteration accounting models the *spin rate* of the asynchronous
    // original: a CUDA persistent thread re-scans its remaining
    // vertices as fast as its pass is short, so within one global
    // convergence round a blocked thread completes roughly
    // `slowest-pass-cost / own-pass-cost` passes before new
    // information can arrive. This is what makes the paper's maximum
    // iteration counts *higher on smaller inputs* ("each thread
    // rapidly checks a few conditions over and over", §6.1.1): tiny
    // per-thread work means many cheap spins per round.
    let pass_state: Vec<std::sync::atomic::AtomicU64> =
        (0..num_threads).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        ecl_gpusim::observe::round(device, rounds);
        ecl_gpusim::observe::phase_start(device, "selection-round");
        let any_undecided = AtomicBool::new(false);
        launch_persistent_named(device, "mis.selection", |t| {
            if t.global >= num_threads {
                device.charge(CostKind::IdleCheck, 1);
                return;
            }
            let mut had_work = false;
            let mut still_pending = false;
            let mut pass_cost = 0u64;
            let mut v = t.global;
            while v < n {
                let sv = stat[v].load(t.hooks);
                if status::undecided(sv) {
                    had_work = true;
                    let (decided, examined) = try_decide(
                        device, g, &stat, v as u32, sv, config, &counters, t.global, profiling,
                        t.hooks,
                    );
                    pass_cost += examined + 1;
                    if !decided {
                        still_pending = true;
                    }
                } else {
                    // Decided vertices still cost one status check per
                    // pass — the real kernel re-scans its whole
                    // round-robin share.
                    pass_cost += 1;
                    device.charge(CostKind::IdleCheck, 1);
                }
                v += num_threads;
            }
            if profiling {
                let encoded =
                    if had_work { (pass_cost.max(1) << 1) | u64::from(still_pending) } else { 0 };
                pass_state[t.global].store(encoded, Ordering::Relaxed);
            }
            if still_pending {
                any_undecided.store(true, Ordering::Relaxed);
            }
        });
        if profiling {
            // Spin accounting: the round lasts as long as its slowest
            // pass; threads still waiting at round end re-scan once
            // per own-pass during that span.
            let quantum =
                pass_state.iter().map(|s| s.load(Ordering::Relaxed) >> 1).max().unwrap_or(0);
            for (tid, s) in pass_state.iter().enumerate() {
                let encoded = s.swap(0, Ordering::Relaxed);
                let cost = encoded >> 1;
                if cost == 0 {
                    continue;
                }
                let spins = if encoded & 1 == 1 { (quantum / cost).clamp(1, 100_000) } else { 1 };
                counters.iterations.add(tid, spins);
                counters.spins_per_round.record(spins);
            }
        }
        if profiling {
            let undecided = stat.iter().filter(|s| status::undecided(s.load(Hooks::OFF))).count();
            counters.undecided_per_round.push(undecided as u64);
        }
        ecl_gpusim::observe::phase_end(device, "selection-round");
        if !any_undecided.load(Ordering::Relaxed) {
            break;
        }
    }

    let in_set = stat.iter().map(|s| s.load(Hooks::OFF) == IN).collect();
    MisResult { in_set, counters, rounds }
}

/// One selection attempt for undecided vertex `v` with status byte
/// `sv`. Returns `(decided, neighbors_examined)` — `decided` is true
/// if `v` ended up decided (by this thread or, as observed, by a
/// neighbor's `in`).
#[allow(clippy::too_many_arguments)]
fn try_decide(
    device: &Device,
    g: &Csr,
    stat: &[CountedU8],
    v: u32,
    sv: u8,
    config: &MisConfig,
    counters: &MisCounters,
    tid: usize,
    profiling: bool,
    h: Hooks,
) -> (bool, u64) {
    let adj = g.neighbors(v);
    let mut examined = 0u64;
    for &u in adj {
        examined += 1;
        let su = stat[u as usize].load(h);
        if su == IN {
            // A neighbor made it in: v is out. Monotonic store, no
            // synchronization needed (§2.3).
            stat[v as usize].store(OUT, h);
            device.charge(CostKind::ThreadWork, examined);
            return (true, examined);
        }
        if su != OUT && status::beats_salted(config.tie_salt, su, u, sv, v) {
            // Short-circuit: a higher-priority undecided neighbor
            // blocks v for now.
            device.charge(CostKind::ThreadWork, examined);
            return (false, examined);
        }
    }
    // v has the highest priority among its undecided neighbors: in.
    stat[v as usize].store(IN, h);
    if profiling {
        counters.finalized.inc(tid);
    }
    for &u in adj {
        stat[u as usize].store(OUT, h);
    }
    device.charge(CostKind::ThreadWork, examined + adj.len() as u64);
    (true, examined + adj.len() as u64)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;
    use ecl_profiling::ProfileMode;

    #[test]
    fn rounds_terminate_quickly_on_small_graph() {
        let device = Device::test_small();
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let r = maximal_independent_set(
            &device,
            &g,
            &MisConfig { mode: ProfileMode::On, ..MisConfig::default() },
        );
        assert!(r.rounds <= 4, "rounds {}", r.rounds);
        assert!(ecl_ref::is_maximal_independent_set(&g, &r.in_set));
    }

    #[test]
    fn long_priority_chain_needs_multiple_rounds() {
        // A path whose priorities strictly decrease along the ids
        // forces sequential decisions; round count grows with depth.
        // Degrees are equal, so the hashed-id tie-break decides; we
        // only check the result stays valid and rounds >= 2 for a long
        // path.
        let n = 512;
        let mut b = GraphBuilder::new_undirected(n);
        for v in 0..(n as u32 - 1) {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let device = Device::test_small();
        let r = maximal_independent_set(
            &device,
            &g,
            &MisConfig { mode: ProfileMode::On, ..MisConfig::default() },
        );
        assert!(ecl_ref::is_maximal_independent_set(&g, &r.in_set));
        assert!(r.rounds >= 2);
    }

    #[test]
    fn iteration_counts_respect_spin_cap() {
        let device = Device::test_small();
        let g = ecl_graphgen::random::erdos_renyi(600, 4.0, 5);
        let r = maximal_independent_set(
            &device,
            &g,
            &MisConfig { mode: ProfileMode::On, ..MisConfig::default() },
        );
        // Spins are bounded by the per-round cap times the round count.
        let vals = r.counters.iterations.values();
        assert!(vals.iter().all(|&i| i <= 100_000 * r.rounds as u64));
        // Threads without assigned vertices never iterate.
        let assigned = r.counters.assigned.values();
        for (i, a) in vals.iter().zip(&assigned) {
            if *a == 0 {
                assert_eq!(*i, 0);
            }
        }
    }
}
