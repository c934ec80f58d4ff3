//! The ECL-MST Borůvka rounds: election (K1), selection/merge (K2),
//! reset, and worklist compaction.

use ecl_check::{register_benign_region, register_region, CheckedSlice};
use ecl_gpusim::atomics::{atomic_u32_array, atomic_u64_array, atomic_u8_array};
use ecl_gpusim::{
    launch_flat_named, launch_warps_named, CostKind, CountedU64, Device, Hooks, LaunchConfig,
};
use ecl_graph::{EdgeId, WeightedCsr};
use ecl_profiling::series::{IterationBar, IterationKind};
use ecl_profiling::{ActivityTally, AtomicTally};

use crate::union_find::GpuUnionFind;
use crate::{MstConfig, MstCounters, MstResult};

/// "No election yet" sentinel for per-component best keys.
const NONE_KEY: u64 = u64::MAX;

/// Packs (weight, edge id) into one orderable key; distinct ids make
/// all keys distinct, which is the deterministic tie-break.
#[inline]
fn encode(w: u32, id: EdgeId) -> u64 {
    debug_assert!(id < u32::MAX as usize, "edge id must fit 32 bits");
    ((w as u64) << 32) | id as u64
}

#[derive(Clone, Copy, Debug)]
struct WorkEdge {
    id: EdgeId,
    u: u32,
    v: u32,
    w: u32,
}

/// Mutable per-run state shared by the kernels of one iteration.
struct State<'a> {
    device: &'a Device,
    uf: GpuUnionFind,
    /// Best (lightest) election key per component root.
    best: Vec<CountedU64>,
    /// Election-attempt counters per root, epoch-packed as
    /// `(epoch << 32) | count` so they need no per-iteration reset.
    attempts: Vec<CountedU64>,
    epoch: u32,
    /// `(id, weight)` of every edge K2 merged, in compaction order.
    winners: Vec<(EdgeId, u32)>,
}

/// Runs the full ECL-MST pipeline.
pub fn minimum_spanning_forest(device: &Device, g: &WeightedCsr, config: &MstConfig) -> MstResult {
    let n = g.num_vertices();
    let counters = MstCounters::new();
    let profiling = config.mode.enabled();

    // Initialization: singleton sets and the unique-edge worklist,
    // split at the light/heavy weight threshold (§2.4).
    let mut edges: Vec<WorkEdge> = g
        .unique_edges()
        .into_iter()
        .filter(|&(_, u, v, _)| u != v)
        .map(|(id, u, v, w)| WorkEdge { id, u, v, w })
        .collect();
    device.charge(CostKind::ThreadWork, (n + edges.len()) as u64);
    let threshold = light_threshold(&edges, config.light_fraction);
    let heavy: Vec<WorkEdge> = edges.iter().copied().filter(|e| e.w >= threshold).collect();
    edges.retain(|e| e.w < threshold);
    let mut light = edges;
    let mut heavy = heavy;

    let mut state = State {
        device,
        uf: GpuUnionFind::new(device, n),
        best: atomic_u64_array(n, |_| NONE_KEY),
        attempts: atomic_u64_array(n, |_| 0),
        epoch: 0,
        winners: Vec::new(),
    };
    // Best keys are written non-atomically only by the reset pass,
    // where every writer stores the same NONE_KEY sentinel. Attempt
    // counters see plain loads plus CAS retries only, so they carry no
    // allowlist: a race there would be a real bug.
    let _best_region = register_benign_region(
        device,
        "mst.best",
        &state.best,
        "reset stores are idempotent: every writer stores NONE_KEY",
    );
    let _attempts_region = register_region(device, "mst.attempts", &state.attempts);

    // The launch sizes the baseline keeps for the whole run (§6.2.3:
    // "launched with too many thread blocks ... not updated
    // correctly").
    let stale_light = light.len();
    let stale_heavy = heavy.len().max(light.len());

    // Regular phase: light edges until no merge happens.
    let mut reg_index = 0u32;
    while !light.is_empty() {
        reg_index += 1;
        ecl_gpusim::observe::round(device, reg_index);
        ecl_gpusim::observe::phase_start(device, "regular");
        let merged = iteration(
            &mut state,
            config,
            &counters,
            &mut light,
            IterationKind::Regular,
            reg_index,
            stale_light,
            profiling,
        );
        ecl_gpusim::observe::phase_end(device, "regular");
        if merged == 0 {
            break;
        }
    }
    // Filter phase: the heavy remainder.
    let mut fil_index = 0u32;
    while !heavy.is_empty() {
        fil_index += 1;
        ecl_gpusim::observe::round(device, reg_index + fil_index);
        ecl_gpusim::observe::phase_start(device, "filter");
        let merged = iteration(
            &mut state,
            config,
            &counters,
            &mut heavy,
            IterationKind::Filter,
            fil_index,
            stale_heavy,
            profiling,
        );
        ecl_gpusim::observe::phase_end(device, "filter");
        if merged == 0 {
            break;
        }
    }

    let total_weight = state.winners.iter().map(|&(_, w)| u64::from(w)).sum();
    let mut chosen: Vec<EdgeId> = state.winners.iter().map(|&(id, _)| id).collect();
    chosen.sort_unstable();
    let num_trees = state.uf.num_sets(device);
    MstResult { edges: chosen, total_weight, num_trees, counters }
}

/// The q-quantile weight separating light from heavy edges.
fn light_threshold(edges: &[WorkEdge], light_fraction: f64) -> u32 {
    assert!((0.0..=1.0).contains(&light_fraction), "light_fraction out of range");
    if edges.is_empty() || light_fraction <= 0.0 {
        return 0; // nothing is light
    }
    if light_fraction >= 1.0 {
        return u32::MAX; // everything is light
    }
    let mut ws: Vec<u32> = edges.iter().map(|e| e.w).collect();
    let idx = (((ws.len() as f64) * light_fraction) as usize).min(ws.len() - 1);
    *ws.select_nth_unstable(idx).1
}

/// One Borůvka iteration over `worklist`: K1 election, K2
/// selection/merge, best-reset, compaction. Returns the number of
/// merges performed.
#[allow(clippy::too_many_arguments)]
fn iteration(
    state: &mut State<'_>,
    config: &MstConfig,
    counters: &MstCounters,
    worklist: &mut Vec<WorkEdge>,
    kind: IterationKind,
    index: u32,
    stale_size: usize,
    profiling: bool,
) -> u64 {
    let device = state.device;
    let len = worklist.len();
    state.epoch += 1;
    let epoch = state.epoch;

    // Launch configuration: the baseline covers the stale (initial)
    // worklist size; the fix recomputes — and pays a host round-trip.
    let cfg = if config.fixed_launch {
        device.charge(CostKind::HostReconfig, 1);
        LaunchConfig::cover(len, config.block_size)
    } else {
        LaunchConfig::cover(stale_size.max(len), config.block_size)
    };
    if profiling {
        counters.launch_coverage.record(cfg.total_threads() as u64);
    }

    let activity = ActivityTally::new();
    let iter_atomics = AtomicTally::new();
    // Roots observed by K1, reused by K2 for a consistent winner check,
    // attempt flags for the conflict metric, and K2's merge flags for
    // the compaction pass to collect.
    // Per-slot scratch is strictly exclusive: one warp (K1) or lane
    // (K2/reset) owns index i. Registered non-benign so the checker
    // proves that exclusivity every iteration.
    let root_u = atomic_u32_array(len, |_| 0);
    let root_u = CheckedSlice::new(device, "mst.root-u", &root_u);
    let root_v = atomic_u32_array(len, |_| 0);
    let root_v = CheckedSlice::new(device, "mst.root-v", &root_v);
    let attempted = atomic_u8_array(len, |_| 0);
    let attempted = CheckedSlice::new(device, "mst.attempted", &attempted);
    let won = atomic_u8_array(len, |_| 0);
    let won = CheckedSlice::new(device, "mst.won", &won);

    // K1: election. One thread per worklist slot; a non-atomic check
    // guards the atomicMin (the §6.1.4 conflict/useless-atomic
    // dynamics follow from exactly this structure). Execution is
    // warp-synchronous, as on the GPU: all 32 lanes of a warp evaluate
    // their checks against the *same* memory state before any of the
    // warp's atomics land, so lanes targeting the same component
    // produce genuine no-effect atomicMin operations — the "useless
    // atomics" of Figure 2.
    const MAX_WARP: usize = 64;
    launch_warps_named(device, "mst.k1-election", cfg, |warp| {
        debug_assert!(warp.lanes <= MAX_WARP);
        let mut keys = [0u64; MAX_WARP];
        let mut roots = [(0u32, 0u32); MAX_WARP];
        let mut pending = [0u8; MAX_WARP];
        // Phase 1: lockstep checks.
        for lane in 0..warp.lanes {
            let i = warp.base + lane;
            if i >= len {
                device.charge(CostKind::IdleCheck, 1);
                if profiling {
                    activity.record_idle_unassigned();
                }
                continue;
            }
            let e = worklist[i];
            device.charge(CostKind::ThreadWork, 1);
            let ru = state.uf.find(e.u, device, warp.hooks);
            let rv = state.uf.find(e.v, device, warp.hooks);
            root_u[i].store(ru, warp.hooks);
            root_v[i].store(rv, warp.hooks);
            if ru == rv {
                device.charge(CostKind::IdleCheck, 1);
                if profiling {
                    activity.record_idle_no_work();
                }
                continue;
            }
            if profiling {
                activity.record_active();
            }
            let key = encode(e.w, e.id);
            keys[lane] = key;
            roots[lane] = (ru, rv);
            if key < state.best[ru as usize].load(warp.hooks) {
                pending[lane] |= 1;
            }
            if key < state.best[rv as usize].load(warp.hooks) {
                pending[lane] |= 2;
            }
        }
        // Phase 2: the warp's atomics land together.
        for lane in 0..warp.lanes {
            let i = warp.base + lane;
            if pending[lane] == 0 {
                continue;
            }
            let (ru, rv) = roots[lane];
            let key = keys[lane];
            let tally = if profiling { Some(&iter_atomics) } else { None };
            if pending[lane] & 1 != 0 {
                if profiling {
                    bump_attempt(&state.attempts, ru, epoch, warp.hooks);
                }
                device.charge(CostKind::Atomic, 1);
                state.best[ru as usize].fetch_min(key, tally, warp.hooks);
            }
            if pending[lane] & 2 != 0 {
                if profiling {
                    bump_attempt(&state.attempts, rv, epoch, warp.hooks);
                }
                device.charge(CostKind::Atomic, 1);
                state.best[rv as usize].fetch_min(key, tally, warp.hooks);
            }
            attempted[i].store(pending[lane], warp.hooks);
        }
    });

    // Conflict metric (host side): a thread conflicted if any root it
    // attempted saw >= 2 attempts this iteration.
    let conflicting = if profiling {
        (0..len)
            .filter(|&i| {
                let flags = attempted[i].load(Hooks::OFF);
                (flags & 1 != 0
                    && attempt_count(&state.attempts, root_u[i].load(Hooks::OFF), epoch) >= 2)
                    || (flags & 2 != 0
                        && attempt_count(&state.attempts, root_v[i].load(Hooks::OFF), epoch) >= 2)
            })
            .count()
    } else {
        0
    };

    // K2: selection + merge. An edge enters the MST iff it is the
    // elected minimum of at least one incident component.
    let merges = ecl_profiling::GlobalCounter::new();
    launch_flat_named(device, "mst.k2-merge", cfg, |t| {
        if t.global >= len {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        let e = worklist[t.global];
        device.charge(CostKind::ThreadWork, 1);
        let ru = root_u[t.global].load(t.hooks);
        let rv = root_v[t.global].load(t.hooks);
        if ru == rv {
            return;
        }
        let key = encode(e.w, e.id);
        if state.best[ru as usize].load(t.hooks) == key
            || state.best[rv as usize].load(t.hooks) == key
        {
            let tally = if profiling { Some(&counters.atomics) } else { None };
            if state.uf.union(ru, rv, device, tally, t.hooks) {
                merges.inc();
                won[t.global].store(1, t.hooks);
            } else {
                debug_assert!(false, "winner edges form a forest; union cannot fail");
            }
        }
    });

    // Reset pass: clear the best keys of every root this worklist
    // touched (new merged roots are the minima of the old ones, so
    // storing through the observed roots covers them).
    launch_flat_named(device, "mst.reset", cfg, |t| {
        if t.global >= len {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        device.charge(CostKind::ThreadWork, 1);
        state.best[root_u[t.global].load(t.hooks) as usize].store(NONE_KEY, t.hooks);
        state.best[root_v[t.global].load(t.hooks) as usize].store(NONE_KEY, t.hooks);
    });

    // Compaction (K2's epilogue / the Filter step's "removes redundant
    // edges early"): drop edges now internal to one component. Every
    // edge K2 merged is internal now, so this pass also collects them
    // (flag, then compact: no host lock on the simulated-thread path).
    let mut slot = 0;
    worklist.retain(|e| {
        if won[slot].load(Hooks::OFF) != 0 {
            state.winners.push((e.id, e.w));
        }
        slot += 1;
        state.uf.find(e.u, device, Hooks::OFF) != state.uf.find(e.v, device, Hooks::OFF)
    });

    if profiling {
        counters.worklist_per_iteration.push(worklist.len() as u64);
        counters.merge_iteration(&iter_atomics);
        let launched = cfg.total_threads().max(1) as f64;
        counters.bars.push(IterationBar {
            kind,
            index,
            threads_with_work_pct: 100.0 * activity.active() as f64 / launched,
            conflicts_pct: 100.0 * conflicting as f64 / launched,
            useless_atomics_pct: 100.0 * iter_atomics.useless_fraction(),
        });
    }
    merges.get()
}

/// Registers one election attempt on `root` for this epoch.
fn bump_attempt(attempts: &[CountedU64], root: u32, epoch: u32, h: Hooks) {
    let a = &attempts[root as usize];
    loop {
        let cur = a.load(h);
        let new = if (cur >> 32) as u32 == epoch { cur + 1 } else { ((epoch as u64) << 32) | 1 };
        if a.cas(cur, new, None, h) == cur {
            return;
        }
    }
}

/// Number of attempts registered on `root` this epoch.
fn attempt_count(attempts: &[CountedU64], root: u32, epoch: u32) -> u64 {
    let cur = attempts[root as usize].load(Hooks::OFF);
    if (cur >> 32) as u32 == epoch {
        cur & 0xFFFF_FFFF
    } else {
        0
    }
}

impl MstCounters {
    /// Folds one iteration's atomic outcomes into the cumulative tally.
    fn merge_iteration(&self, iter: &AtomicTally) {
        use ecl_profiling::AtomicOutcome::{CasFailed, NoEffect, Updated};
        self.atomics.record_many(Updated, iter.updated());
        self.atomics.record_many(NoEffect, iter.no_effect());
        self.atomics.record_many(CasFailed, iter.cas_failed());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn encode_orders_by_weight_then_id() {
        assert!(encode(1, 100) < encode(2, 0));
        assert!(encode(5, 3) < encode(5, 4));
        assert!(encode(0, 0) < NONE_KEY);
    }

    #[test]
    fn threshold_quantiles() {
        let edges: Vec<WorkEdge> =
            (0..100).map(|i| WorkEdge { id: i, u: 0, v: 1, w: i as u32 }).collect();
        assert_eq!(light_threshold(&edges, 0.5), 50);
        assert_eq!(light_threshold(&edges, 0.0), 0);
        assert_eq!(light_threshold(&edges, 1.0), u32::MAX);
        assert_eq!(light_threshold(&[], 0.5), 0);
    }

    /// The q-quantile by its definition: sort, then index.
    fn sorted_threshold(ws: &[u32], light_fraction: f64) -> u32 {
        if ws.is_empty() || light_fraction <= 0.0 {
            return 0;
        }
        if light_fraction >= 1.0 {
            return u32::MAX;
        }
        let mut sorted = ws.to_vec();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64) * light_fraction) as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    // Selection returns the element the full sort would. Weights come
    // from a small range so ties are common; `pick` forces the 0 and 1
    // fractions, and the weight vector is empty in one case in 40.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn threshold_selection_matches_the_sort(
            ws in proptest::collection::vec(0u32..32, 0..40),
            pick in 0u8..4,
            frac in 0.0f64..1.0,
        ) {
            let light_fraction = match pick {
                0 => 0.0,
                1 => 1.0,
                _ => frac,
            };
            let edges: Vec<WorkEdge> =
                ws.iter().enumerate().map(|(id, &w)| WorkEdge { id, u: 0, v: 1, w }).collect();
            proptest::prop_assert_eq!(
                light_threshold(&edges, light_fraction),
                sorted_threshold(&ws, light_fraction)
            );
        }
    }

    #[test]
    fn attempt_epochs_isolate_iterations() {
        let attempts = atomic_u64_array(4, |_| 0);
        bump_attempt(&attempts, 2, 1, Hooks::OFF);
        bump_attempt(&attempts, 2, 1, Hooks::OFF);
        assert_eq!(attempt_count(&attempts, 2, 1), 2);
        // New epoch resets implicitly.
        bump_attempt(&attempts, 2, 2, Hooks::OFF);
        assert_eq!(attempt_count(&attempts, 2, 2), 1);
        assert_eq!(attempt_count(&attempts, 2, 1), 0);
        assert_eq!(attempt_count(&attempts, 0, 1), 0);
    }
}
