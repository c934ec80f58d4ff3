//! Figure 2's "useless atomics", pinned in order.
//!
//! The paper counts an `atomicMin`/`atomicMax` that leaves its target
//! unchanged as a first-class event (§3.1.5). These goldens hold the
//! counts ECL-SCC's propagate sweeps and ECL-MST's election report
//! under one worker, so how the simulator executes a counted min/max
//! (an RMW, or a load when the loaded value already proves the
//! operation a no-op) can never move them.

#![allow(clippy::unwrap_used)]

use ecl_suite::{gen, mst, scc, sim};

const SEED: u64 = 7;

fn in_order<R>(f: impl FnOnce(&sim::Device) -> R) -> R {
    sim::pool::with_policy(sim::DispatchPolicy::sequential(), || f(&sim::Device::test_small()))
}

/// ECL-SCC on a wedge mesh: every `atomicMax` of every local sweep,
/// split into effective and no-effect.
#[test]
fn scc_max_tally_is_pinned() {
    let g = gen::registry::find("toroid-wedge").unwrap().generate(0.002, SEED);
    let r = in_order(|d| scc::run(d, &g, &scc::SccConfig::original()));
    let t = &r.counters.max_tally;
    assert_eq!((t.updated(), t.no_effect()), (9_820, 64_176));
    assert_eq!(t.attempted(), 73_996);
}

/// ECL-MST on a small weighted road graph: the run's useless fraction
/// and Figure 2's per-iteration bars, bit for bit.
#[test]
fn mst_useless_atomics_are_pinned() {
    let g = gen::registry::find("USA-road-d.NY").unwrap().generate_weighted(0.01, SEED, 1 << 16);
    let r = in_order(|d| mst::run(d, &g, &mst::MstConfig::baseline()));
    let a = &r.counters.atomics;
    assert_eq!((a.updated(), a.no_effect(), a.cas_failed()), (12_452, 852, 0));
    assert_eq!(a.useless_fraction().to_bits(), 0.0640408899579074f64.to_bits());

    let bars: Vec<u64> =
        r.counters.bars.bars().iter().map(|b| b.useless_atomics_pct.to_bits()).collect();
    let golden: Vec<u64> = [
        7.516629711751663f64, // Regular 1
        2.478314745972739,
        9.345794392523365,
        0.0,
        9.51512942034269, // Filter 1
        7.914572864321608,
        19.753086419753085,
        54.25531914893617,
        93.75,
    ]
    .iter()
    .map(|p| p.to_bits())
    .collect();
    assert_eq!(bars, golden);
}
