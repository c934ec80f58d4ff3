//! ECL-MST under the pool: the chosen edge set does not depend on the
//! schedule, and the in-order modeled cost is pinned.
//!
//! K2 records each merge in a per-slot flag that the compaction pass
//! collects, and the reset clears only the roots a slot's K1 lanes
//! elected on, so two pool workers share no host structure on the
//! simulated-thread path. Whatever interleaving the pool produces,
//! every run must return Kruskal's forest edge for edge; and the
//! one-worker cost is pinned (in total on a road graph, kernel by
//! kernel on a Kronecker graph), so how winners are collected or keys
//! reset can never move a modeled unit.

#![allow(clippy::unwrap_used)]

use ecl_suite::graph::WeightedCsr;
use ecl_suite::sim::{CostKind, Device, DispatchPolicy};
use ecl_suite::{gen, mst, reference, sim};

const SEED: u64 = 7;
const MAX_WEIGHT: u32 = 1 << 16;

fn weighted(name: &str, scale: f64) -> WeightedCsr {
    gen::registry::find(name).unwrap().generate_weighted(scale, SEED, MAX_WEIGHT)
}

/// A road graph, a Kronecker power-law graph and a torus, each with
/// hashed weights: long chains of merges, one giant hub, and a
/// regular mesh with many equal-degree ties.
#[test]
fn pooled_runs_choose_kruskals_forest() {
    const REPEATS: usize = 10;
    let inputs = [("USA-road-d.NY", 0.005), ("kron_g500-logn21", 0.0005), ("2d-2e20.sym", 0.001)];
    for (name, scale) in inputs {
        let g = weighted(name, scale);
        let want = reference::kruskal(&g);
        let mut want_edges = want.edges.clone();
        want_edges.sort_unstable();
        for rep in 0..REPEATS {
            let r = sim::pool::with_policy(DispatchPolicy::pooled(2), || {
                mst::run(&Device::test_small(), &g, &mst::MstConfig::baseline())
            });
            assert_eq!(r.edges, want_edges, "{name}, repeat {rep}");
            assert_eq!(r.num_trees, want.num_trees, "{name}, repeat {rep}");
            assert_eq!(r.total_weight, want.total_weight, "{name}, repeat {rep}");
        }
    }
}

/// One worker on a weighted road graph: the modeled time and every
/// cost kind, bit for bit.
#[test]
fn in_order_cost_is_pinned() {
    let g = weighted("USA-road-d.NY", 0.01);
    let device = Device::test_small();
    let r = sim::pool::with_policy(DispatchPolicy::sequential(), || {
        mst::run(&device, &g, &mst::MstConfig::baseline())
    });
    assert_eq!(r.edges.len(), g.num_vertices() - r.num_trees);
    assert_eq!(
        device.cost().breakdown(),
        vec![
            (CostKind::ThreadWork, 42_402),
            (CostKind::IdleCheck, 51_856),
            (CostKind::Atomic, 13_304),
            (CostKind::BlockSync, 0),
            (CostKind::KernelLaunch, 27),
            (CostKind::HostReconfig, 0),
        ]
    );
    assert_eq!(device.modeled_time().to_bits(), 216_582.0f64.to_bits());
}

/// One worker on the Kronecker graph, where one giant component root
/// collects most elections: the cost units of each ECL-MST kernel
/// (through an `ecl_prof::Collector`) and of the host passes, every
/// Figure 2 bar, the atomic tallies and the forest.
#[test]
fn in_order_kernels_on_kron_are_pinned() {
    use ecl_prof::Collector;
    use ecl_suite::algos;
    use ecl_suite::gen::DEFAULT_MAX_WEIGHT;
    use ecl_suite::profiling::series::IterationKind::{Filter, Regular};
    use std::sync::Arc;

    const SCALE: f64 = 0.003;
    const INPUT: &str = "kron_g500-logn21";
    let g = gen::registry::find(INPUT).unwrap().generate_weighted(SCALE, 42, DEFAULT_MAX_WEIGHT);
    let device = Device::new(algos::device_config(algos::find("mst").unwrap(), SCALE));
    let collector = Arc::new(Collector::new());
    let attached = device.observe(collector.clone());
    let r = sim::pool::with_policy(DispatchPolicy::sequential(), || {
        mst::run(&device, &g, &mst::MstConfig::baseline())
    });
    drop(attached);

    let rows = collector.snapshot();
    let units = |name: &str| rows.iter().find(|r| r.name == name).unwrap().units;
    let mut host: Vec<u64> = device.cost().breakdown().iter().map(|&(_, u)| u).collect();
    for row in &rows {
        for (h, u) in host.iter_mut().zip(row.units) {
            *h -= u;
        }
    }
    let kernels = (units("mst.k1-election"), units("mst.k2-merge"), units("mst.reset"), host);
    let bars: Vec<_> = r
        .counters
        .bars
        .bars()
        .iter()
        .map(|b| (b.kind, b.index, b.threads_with_work_pct, b.conflicts_pct, b.useless_atomics_pct))
        .collect();
    let atomics = (r.counters.atomics.attempted(), r.counters.atomics.useless());
    assert_eq!(
        kernels,
        (
            [673_421, 249_196, 30_071, 0, 6, 0],
            [672_940, 118_409, 7_388, 0, 6, 0],
            [672_631, 118_409, 0, 0, 6, 0],
            vec![288_330, 0, 0, 0, 0, 0],
        )
    );
    assert_eq!(
        bars,
        [
            (Regular, 1, 99.81341019417475, 16.063410194174757, 16.731006487045807),
            (Regular, 2, 94.74666262135922, 2.320236650485437, 10.966810966810966),
            (Regular, 3, 92.04717839805825, 0.3587682038834951, 12.82051282051282),
            (Regular, 4, 76.37666868932038, 0.06978155339805825, 43.7037037037037),
            (Regular, 5, 47.38925970873787, 0.03564927184466019, 63.829787234042556),
            (Filter, 1, 0.6128640776699029, 0.23892597087378642, 6.315789473684211),
        ]
    );
    assert_eq!(atomics, (37_459, 4_820));
    assert_eq!((r.total_weight, r.num_trees), (943_713_265, 804));
    assert_eq!(device.modeled_time().to_bits(), 2_650_661.5f64.to_bits());
}
