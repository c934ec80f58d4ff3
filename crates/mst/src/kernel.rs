//! The ECL-MST Borůvka rounds: election (K1), selection/merge (K2),
//! reset, and worklist compaction.

use ecl_check::{register_benign_region, register_region, CheckedSlice};
use ecl_gpusim::atomics::{atomic_u32_array, atomic_u64_array, atomic_u8_array};
use ecl_gpusim::{
    launch_flat_named, launch_warps_named, CostKind, CountedU64, Device, Hooks, LaunchConfig,
};
use ecl_graph::{EdgeId, WeightedCsr};
use ecl_profiling::series::{IterationBar, IterationKind};
use ecl_profiling::{AtomicTally, GlobalCounter};

use crate::union_find::GpuUnionFind;
use crate::{MstConfig, MstCounters, MstResult};

/// "No election yet" sentinel for per-component best keys.
const NONE_KEY: u64 = u64::MAX;

/// Packs (weight, edge id) into one orderable key; distinct ids make
/// all keys distinct, which is the deterministic tie-break.
#[inline]
fn encode(w: u32, id: u32) -> u64 {
    ((w as u64) << 32) | id as u64
}

/// One worklist slot: a canonical edge in 16 bytes.
#[derive(Clone, Copy, Debug)]
struct WorkEdge {
    id: u32,
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
    /// Every edge K2 merged, in compaction order.
    winners: Vec<WorkEdge>,
}

/// Runs the full ECL-MST pipeline.
pub fn minimum_spanning_forest(device: &Device, g: &WeightedCsr, config: &MstConfig) -> MstResult {
    let n = g.num_vertices();
    let counters = MstCounters::new();
    let profiling = config.mode.enabled();

    // Edge ids are arc indices: below u32::MAX, each fits a WorkEdge
    // and no key reaches NONE_KEY.
    assert!(g.csr().num_arcs() < u32::MAX as usize, "ECL-MST edge ids must fit 32 bits");

    // Initialization: singleton sets and the unique-edge worklist,
    // split at the light/heavy weight threshold (§2.4). The canonical
    // edges are enumerated twice: once for the weights the threshold
    // selects on (at most one per two arcs), once to place each edge on
    // its side in enumeration order.
    let edges = || g.unique_edges().filter(|&(_, u, v, _)| u != v);
    let mut ws = Vec::with_capacity(g.csr().num_arcs() / 2);
    ws.extend(edges().map(|(_, _, _, w)| w));
    device.charge(CostKind::ThreadWork, (n + ws.len()) as u64);
    let threshold = light_threshold(&mut ws, config.light_fraction);
    let num_light = ws.iter().filter(|&&w| w < threshold).count();
    let mut light = Vec::with_capacity(num_light);
    let mut heavy = Vec::with_capacity(ws.len() - num_light);
    drop(ws);
    for (id, u, v, w) in edges() {
        let side = if w < threshold { &mut light } else { &mut heavy };
        side.push(WorkEdge { id: id as u32, u, v, w });
    }

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

    let total_weight = state.winners.iter().map(|e| u64::from(e.w)).sum();
    let mut chosen: Vec<EdgeId> = state.winners.iter().map(|e| e.id as EdgeId).collect();
    chosen.sort_unstable();
    let num_trees = state.uf.num_sets(device);
    MstResult { edges: chosen, total_weight, num_trees, counters }
}

/// The q-quantile of the edge weights `ws` (reordered in place),
/// separating light from heavy edges.
fn light_threshold(ws: &mut [u32], light_fraction: f64) -> u32 {
    assert!((0.0..=1.0).contains(&light_fraction), "light_fraction out of range");
    if ws.is_empty() || light_fraction <= 0.0 {
        return 0; // nothing is light
    }
    if light_fraction >= 1.0 {
        return u32::MAX; // everything is light
    }
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

    let threads_with_work = GlobalCounter::new();
    let iter_atomics = AtomicTally::new();
    // Roots observed by K1, reused by K2 for a consistent winner check,
    // attempt flags for the conflict metric and the reset, and K2's
    // merge flags for the compaction pass to collect.
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
        let mut active = 0;
        // Phase 1: lockstep checks.
        for lane in 0..warp.lanes {
            let i = warp.base + lane;
            if i >= len {
                device.charge(CostKind::IdleCheck, 1);
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
                continue;
            }
            active += 1;
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
        if profiling {
            threads_with_work.add(active);
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

    // Reset pass: each lane clears the best keys of the roots its K1
    // lane elected on, as its `attempted` flags record. Only K1's
    // atomicMin lowers a key and every atomicMin sets such a flag, so
    // every key is NONE_KEY again afterwards; a root that many slots
    // share (the giant component's) is stored to by its electors only.
    launch_flat_named(device, "mst.reset", cfg, |t| {
        if t.global >= len {
            device.charge(CostKind::IdleCheck, 1);
            return;
        }
        device.charge(CostKind::ThreadWork, 1);
        let flags = attempted[t.global].load(t.hooks);
        if flags & 1 != 0 {
            state.best[root_u[t.global].load(t.hooks) as usize].store(NONE_KEY, t.hooks);
        }
        if flags & 2 != 0 {
            state.best[root_v[t.global].load(t.hooks) as usize].store(NONE_KEY, t.hooks);
        }
    });
    debug_assert!(
        state.best.iter().all(|b| b.load(Hooks::OFF) == NONE_KEY),
        "mst.reset left an elected key behind"
    );

    // Compaction (K2's epilogue / the Filter step's "removes redundant
    // edges early"): drop edges now internal to one component. Every
    // edge K2 merged is internal now, so this pass also collects them
    // (flag, then compact: no host lock on the simulated-thread path).
    let mut slot = 0;
    worklist.retain(|e| {
        if won[slot].load(Hooks::OFF) != 0 {
            state.winners.push(*e);
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
            threads_with_work_pct: 100.0 * threads_with_work.get() as f64 / launched,
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
        let mut ws: Vec<u32> = (0..100).collect();
        assert_eq!(light_threshold(&mut ws, 0.5), 50);
        assert_eq!(light_threshold(&mut ws, 0.0), 0);
        assert_eq!(light_threshold(&mut ws, 1.0), u32::MAX);
        assert_eq!(light_threshold(&mut [], 0.5), 0);
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
            proptest::prop_assert_eq!(
                light_threshold(&mut ws.clone(), light_fraction),
                sorted_threshold(&ws, light_fraction)
            );
        }
    }

    /// The reset clears only the roots a slot elected on; on a star
    /// (one hub every edge elects on) and on a wheel whose edges all
    /// weigh the same (after the first round every remaining edge ties
    /// on the hub's root), every key must still be `NONE_KEY` after each
    /// reset (the `debug_assert!` behind `mst.reset`) and the forest
    /// must be Kruskal's, under both launch sizes and all three splits.
    #[test]
    fn reset_leaves_no_key_on_a_shared_root() {
        use ecl_graph::GraphBuilder;

        const RIM: u32 = 700;
        let mut star = GraphBuilder::new_undirected(RIM as usize + 1);
        let mut wheel = GraphBuilder::new_undirected(RIM as usize + 1);
        for v in 1..=RIM {
            star.add_weighted_edge(0, v, v.wrapping_mul(2_654_435_761) >> 20);
            wheel.add_weighted_edge(0, v, 7);
            wheel.add_weighted_edge(v, v % RIM + 1, 7);
        }
        for g in [star.build_weighted(), wheel.build_weighted()] {
            let want = ecl_ref::kruskal(&g);
            let mut want_edges = want.edges.clone();
            want_edges.sort_unstable();
            for fixed_launch in [false, true] {
                for light_fraction in [0.0, 0.5, 1.0] {
                    let config = MstConfig { fixed_launch, light_fraction, ..MstConfig::default() };
                    let r = minimum_spanning_forest(&Device::test_small(), &g, &config);
                    let case =
                        format!("fixed_launch {fixed_launch}, light_fraction {light_fraction}");
                    assert_eq!(r.edges, want_edges, "{case}");
                    assert_eq!(r.total_weight, want.total_weight, "{case}");
                    assert_eq!(r.num_trees, want.num_trees, "{case}");
                }
            }
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
