//! Scheduler-determinism stress tests: everything the simulator
//! aggregates must be independent of how blocks were mapped onto OS
//! threads.
//!
//! The execution pool dispatches blocks dynamically (workers claim
//! ticket ranges), so block execution order varies with worker count,
//! grain, and timing. That is faithful to a GPU grid — and it is safe
//! *because* every aggregate is a commutative reduction: counter
//! totals and cost charges are sums (folded per block, or per
//! OS-thread stripe), and check
//! verdicts come from structural per-epoch analysis, not the observed
//! interleaving. These tests pin that contract: a contention-heavy
//! power-law workload must produce bit-identical counter totals,
//! cost-model charges, and check reports under a forced single-worker
//! (sequential) schedule and ≥ 8 pooled workers with randomized grains.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use ecl_check::run_checked;
use ecl_suite::sim::atomics::atomic_u32_array;
use ecl_suite::sim::pool::{with_policy, DispatchPolicy};
use ecl_suite::sim::{
    launch_blocks_named, launch_flat_named, launch_persistent_named, launch_warps_named, CostKind,
    Device, LaunchConfig,
};
use ecl_suite::{gen, graph::Csr, scc};
use proptest::prelude::*;

/// Everything the workload aggregates; compared bit-for-bit across
/// schedules.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Commutative counter totals from the kernels.
    neighbor_sum: u64,
    touched: u64,
    /// Full device cost breakdown (every `CostKind`, in order).
    cost: Vec<(CostKind, u64)>,
    /// Weighted model output, compared as raw bits.
    modeled_time_bits: u64,
    /// Check-session verdicts.
    report_launches: u64,
    report_accesses: u64,
    report_text: String,
}

/// A contention-heavy instrumented workload over a power-law graph:
/// a flat per-vertex adjacency sweep (iteration counts vary by orders
/// of magnitude across threads — the paper's load-imbalance shape)
/// that funnels into shared accumulator cells, then a block-granular
/// pass with barrier rounds, a warp-synchronous pass and a
/// persistent-thread pass — one launch per shape, so every path that
/// folds a block's charges into the device is compared. All aggregates
/// are commutative sums.
fn run_workload(g: &Csr) -> Outcome {
    let n = g.num_vertices();
    let device = Device::test_small();
    let neighbor_sum = AtomicU64::new(0);
    let touched = AtomicU64::new(0);
    let marks = atomic_u32_array(n, |_| 0);

    let ((), report) = run_checked(&device, || {
        let _region = ecl_check::register_region(&device, "det.marks", &marks);
        let cfg = LaunchConfig::cover(n, 32);
        launch_flat_named(&device, "det.sweep", cfg, |t| {
            if t.global >= n {
                device.charge(CostKind::IdleCheck, 1);
                return;
            }
            // Per-vertex exclusive store (race-free, checker-visible).
            marks[t.global].store(t.global as u32 + 1, t.hooks);
            let mut local = 0u64;
            for &v in g.neighbors(t.global as u32) {
                local += u64::from(v) + 1;
            }
            device.charge(CostKind::ThreadWork, g.degree(t.global as u32) as u64 + 1);
            // High contention on two shared cells: the sums are
            // commutative, so the totals cannot depend on order.
            neighbor_sum.fetch_add(local, Ordering::Relaxed);
            touched.fetch_add(1, Ordering::Relaxed);
        });

        // Block-granular pass with barrier rounds; sized so the total
        // barrier slots stay below the sync-waste lint threshold (the
        // lint's update/slot ratio would otherwise depend on atomic
        // outcome kinds, which are schedule-dependent by design).
        let cfg = LaunchConfig::new(8, 16);
        launch_blocks_named(&device, "det.rounds", cfg, |b| {
            for t in b.threads() {
                if t.global < n {
                    marks[t.global].load(t.hooks);
                    device.charge(CostKind::ThreadWork, 1);
                }
            }
            b.sync();
        });

        // Warp-synchronous pass: per-lane work that varies with degree.
        launch_warps_named(&device, "det.warps", LaunchConfig::cover(n, 64), |w| {
            for lane in 0..w.lanes {
                let t = w.thread(lane);
                if t.global >= n {
                    device.charge(CostKind::IdleCheck, 1);
                    continue;
                }
                marks[t.global].load(t.hooks);
                device.charge(CostKind::ThreadWork, g.degree(t.global as u32) as u64 % 3 + 1);
            }
        });

        // Persistent-thread pass: the resident threads stride the
        // vertex set, so per-thread work depends on n, not the grid.
        let stride = device.resident_threads();
        launch_persistent_named(&device, "det.persistent", |t| {
            if t.global >= n {
                device.charge(CostKind::IdleCheck, 1);
            }
            for v in (t.global..n).step_by(stride) {
                marks[v].load(t.hooks);
                device.charge(CostKind::Atomic, 1);
                touched.fetch_add(1, Ordering::Relaxed);
            }
        });
    });

    Outcome {
        neighbor_sum: neighbor_sum.load(Ordering::Relaxed),
        touched: touched.load(Ordering::Relaxed),
        cost: device.cost().breakdown(),
        modeled_time_bits: device.modeled_time().to_bits(),
        report_launches: report.launches,
        report_accesses: report.accesses,
        report_text: report.render("determinism"),
    }
}

/// Canonical form of a labelling: components numbered by first
/// appearance, so two labelings describing the same partition
/// compare equal.
fn canonical_partition(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// Deterministically orient an undirected power-law graph: every edge
/// gets its low→high direction, and every third edge also keeps the
/// reverse, seeding 2-cycles that merge into larger SCCs.
fn orient(g: &Csr) -> Csr {
    let n = g.num_vertices();
    let mut b = ecl_suite::graph::GraphBuilder::new_directed(n);
    let mut k = 0usize;
    for v in 0..n as u32 {
        for &u in g.neighbors(v) {
            if u > v {
                b.add_edge(v, u);
                if k.is_multiple_of(3) {
                    b.add_edge(u, v);
                }
                k += 1;
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The synthetic contention workload: bit-identical aggregates
    // under sequential and pooled (≥ 8 workers, random grain).
    #[test]
    fn aggregates_are_bit_identical_across_schedules(
        seed in 0u64..1_000,
        nv in 64usize..400,
        grain in 1usize..32,
        extra_workers in 0usize..8,
    ) {
        let g = gen::powerlaw::preferential_attachment(nv, 2.5, seed);
        let reference = with_policy(DispatchPolicy::sequential(), || run_workload(&g));
        let workers = 8 + extra_workers;
        let pooled = with_policy(
            DispatchPolicy { grain: Some(grain), ..DispatchPolicy::pooled(workers) },
            || run_workload(&g),
        );
        prop_assert_eq!(&reference, &pooled);
    }

    // A real algorithm (ECL-SCC on a directed power-law graph): the
    // *result* — the partition into SCCs — must not depend on the
    // schedule, even though its per-block iteration counters
    // legitimately do.
    #[test]
    fn scc_partition_is_schedule_independent(
        seed in 0u64..1_000,
        nv in 32usize..200,
        grain in 1usize..16,
    ) {
        let g = orient(&gen::powerlaw::citation(nv, 3.0, seed));
        let run = || {
            let device = Device::test_small();
            scc::run(&device, &g, &scc::SccConfig::with_block_size(32))
        };
        let reference = with_policy(DispatchPolicy::sequential(), run);
        let pooled = with_policy(
            DispatchPolicy { grain: Some(grain), ..DispatchPolicy::pooled(8) },
            run,
        );
        prop_assert_eq!(reference.num_sccs(), pooled.num_sccs());
        prop_assert_eq!(
            canonical_partition(&reference.labels),
            canonical_partition(&pooled.labels)
        );
    }
}
