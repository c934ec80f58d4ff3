//! ECL-MST under the pool: the chosen edge set does not depend on the
//! schedule, and the in-order modeled cost is pinned.
//!
//! K2 records each merge in a per-slot flag that the compaction pass
//! collects, so two pool workers share no host structure on the
//! simulated-thread path. Whatever interleaving the pool produces,
//! every run must return Kruskal's forest edge for edge; and the
//! one-worker cost breakdown is pinned, so how winners are collected
//! can never move a modeled unit.

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
