//! Shard-count determinism: the sharded CC/SCC/MIS runners must be
//! bit-identical to the single-pool kernels at every shard count, and
//! bit-identical to themselves (including the modeled-time bit
//! pattern) across repeated runs — the multi-pool analogue of the
//! PR 3 scheduler-determinism suite.
//!
//! The property is structural, not statistical: every sharded sweep is
//! Jacobi double-buffered and the exchange merges in a fixed shard
//! order, so there is no interleaving anywhere for a shard count to
//! expose.

#![allow(clippy::unwrap_used)]

use ecl_suite::{cc, gen, graph, mis, scc, shard, sim};
use graph::{Csr, GraphBuilder};
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

fn undirected_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new_undirected(n).drop_self_loops();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build()
        })
    })
}

fn directed_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new_directed(n);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build()
        })
    })
}

fn devices(shards: u32) -> Vec<sim::Device> {
    shard::devices_for(sim::DeviceConfig::test_small(), shards)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // CC: labels identical to the single-pool kernel at shards 1/2/4,
    // and repeated runs at the same shard count agree down to the
    // modeled-time bits.
    #[test]
    fn prop_cc_bit_identical_across_shard_counts(g in undirected_graph(100, 250)) {
        let single = cc::run(&sim::Device::test_small(), &g, &cc::CcConfig::baseline());
        for shards in SHARD_COUNTS {
            let part = shard::Partition::auto(&g, shards);
            let a = shard::run_cc(&devices(shards), &g, &part);
            let b = shard::run_cc(&devices(shards), &g, &part);
            prop_assert_eq!(&a.labels, &single.labels, "{} shards vs single-pool", shards);
            prop_assert_eq!(&a.labels, &b.labels);
            prop_assert_eq!(a.stats.supersteps, b.stats.supersteps);
            prop_assert_eq!(a.stats.exchange_messages, b.stats.exchange_messages);
            prop_assert_eq!(
                a.stats.modeled_time.to_bits(),
                b.stats.modeled_time.to_bits(),
                "modeled time must be bit-stable at {} shards",
                shards
            );
        }
    }

    // MIS: the salted greedy set is a pure function of (graph, salt) —
    // the shard count must not be observable in the selection.
    #[test]
    fn prop_mis_bit_identical_across_shard_counts(
        g in undirected_graph(100, 250),
        seed in 0u64..1_000,
    ) {
        let cfg = mis::MisConfig::seeded(seed);
        let single = mis::run(&sim::Device::test_small(), &g, &cfg);
        for shards in SHARD_COUNTS {
            let part = shard::Partition::auto(&g, shards);
            let a = shard::run_mis(&devices(shards), &g, &part, cfg.tie_salt);
            let b = shard::run_mis(&devices(shards), &g, &part, cfg.tie_salt);
            prop_assert_eq!(&a.in_set, &single.in_set, "{} shards vs single-pool", shards);
            prop_assert_eq!(&a.in_set, &b.in_set);
            prop_assert_eq!(a.stats.modeled_time.to_bits(), b.stats.modeled_time.to_bits());
        }
    }

    // SCC: labels AND outer-iteration count match the single-pool
    // kernel — the sharded outer loop must walk the same signature
    // fixpoints, not merely reach an equivalent partition.
    #[test]
    fn prop_scc_bit_identical_across_shard_counts(g in directed_graph(80, 200)) {
        let single = scc::run(&sim::Device::test_small(), &g, &scc::SccConfig::default());
        for shards in SHARD_COUNTS {
            let part = shard::Partition::auto(&g, shards);
            let a = shard::run_scc(&devices(shards), &g, &part);
            let b = shard::run_scc(&devices(shards), &g, &part);
            prop_assert_eq!(&a.labels, &single.labels, "{} shards vs single-pool", shards);
            prop_assert_eq!(
                a.outer_iterations, single.outer_iterations,
                "{} shards must take the same outer iterations", shards
            );
            prop_assert_eq!(&a.labels, &b.labels);
            prop_assert_eq!(a.stats.modeled_time.to_bits(), b.stats.modeled_time.to_bits());
        }
    }
}

/// The CI smoke entry point: a fixed torus/RMAT pair (the shapes
/// [`shard_scaling_curve_is_pinned`] measures) checked across shard
/// counts. Heavier than a proptest case, deterministic, and fast enough
/// for every run.
#[test]
fn generator_inputs_bit_identical_across_shard_counts() {
    let torus = gen::grid::torus_2d(24, 24);
    let rmat = gen::rmat::rmat(9, 8.0, gen::rmat::RmatParams::rmat(), 42);
    for g in [&torus, &rmat] {
        let single_cc = cc::run(&sim::Device::test_small(), g, &cc::CcConfig::baseline());
        let cfg = mis::MisConfig::seeded(7);
        let single_mis = mis::run(&sim::Device::test_small(), g, &cfg);
        for shards in SHARD_COUNTS {
            let part = shard::Partition::auto(g, shards);
            let r = shard::run_cc(&devices(shards), g, &part);
            assert_eq!(r.labels, single_cc.labels, "cc at {shards} shards");
            let m = shard::run_mis(&devices(shards), g, &part, cfg.tie_salt);
            assert_eq!(m.in_set, single_mis.in_set, "mis at {shards} shards");
        }
    }
}

/// The shard scaling curve, pinned bit for bit: CC through
/// `Partition::auto`, `devices_for` and `run_cc` on a torus (the
/// partitioner slices contiguous ranges) and an RMAT graph (it hashes
/// ids) at 1/2/4 shards, each shard the paper's device scaled to 0.05.
/// Modeled time is a pure function of (graph, partition), so a change
/// to the exchange term, the superstep accounting or the partitioner
/// shows up here as a diff, not as a drift inside a tolerance.
#[test]
fn shard_scaling_curve_is_pinned() {
    let torus = gen::grid::torus_2d(64, 64);
    let rmat = gen::rmat::rmat(11, 8.0, gen::rmat::RmatParams::rmat(), 42);
    // Per input: (shards, modeled-time bits, cut arcs, exchange
    // messages, supersteps); the modeled time in units is in the comment.
    let curves = [
        (
            "torus",
            &torus,
            "contiguous",
            [
                (1, 0x413e_7220_0000_0000, 0, 0, 66),       // 1 995 296
                (2, 0x4138_cac0_0000_0000, 256, 8192, 66),  // 1 624 768
                (4, 0x4134_52c0_0000_0000, 512, 16384, 66), // 1 331 904
            ],
        ),
        (
            "rmat",
            &rmat,
            "hashed",
            [
                (1, 0x4106_0320_0000_0000, 0, 0, 7),        // 180 324
                (2, 0x4103_74cc_0000_0000, 8092, 3256, 7),  // 159 385.5
                (4, 0x4103_3fca_0000_0000, 12070, 7604, 7), // 157 689.25
            ],
        ),
    ];
    for (name, g, strategy, pins) in curves {
        for (shards, bits, cut_arcs, messages, supersteps) in pins {
            let part = shard::Partition::auto(g, shards);
            let devices = shard::devices_for(sim::DeviceConfig::rtx4090_scaled(0.05, 1), shards);
            let s = shard::run_cc(&devices, g, &part).stats;
            assert_eq!(
                (part.strategy.name(), s.modeled_time.to_bits(), s.cut_arcs),
                (strategy, bits, cut_arcs),
                "{name} at {shards} shards: modeled {} units",
                s.modeled_time
            );
            assert_eq!(
                (s.exchange_messages, s.supersteps),
                (messages, supersteps),
                "{name}/{shards}"
            );
        }
    }
}
