//! Shard-count determinism: the sharded CC/SCC/MIS runners must be
//! bit-identical to the single-pool kernels at every shard count, and
//! bit-identical to themselves (including the modeled-time bit
//! pattern) across repeated runs — the multi-pool analogue of the
//! PR 3 scheduler-determinism suite.
//!
//! The property is structural, not statistical: the exchange is
//! double-buffered and merges in a fixed shard order, and the local
//! phases — ECL-CC inside each shard for CC, the one-thread worklists
//! for SCC and MIS — run in order, so there is no interleaving
//! anywhere for a shard count or a pool schedule to expose.

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
/// `Partition::auto`, `devices_for` and `run_cc` on a torus with
/// natural ids (contiguous slices cut fewer arcs than BFS regions) and
/// an RMAT graph (the partitioner hashes ids) at 1/2/4 shards, each
/// shard the paper's device scaled to 0.05.
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
                (1, 0x40ed_93c0_0000_0000, 0, 0, 2),      // 60 574
                (2, 0x40f0_f050_0000_0000, 256, 382, 3),  // 69 381
                (4, 0x40f3_d4b0_0000_0000, 512, 1020, 4), // 81 227
            ],
        ),
        (
            "rmat",
            &rmat,
            "hashed",
            [
                (1, 0x40eb_9c28_0000_0000, 0, 0, 2),        // 56 545.25
                (2, 0x40ff_6700_0000_0000, 8092, 2419, 5),  // 128 624
                (4, 0x4102_d30e_0000_0000, 12070, 6416, 6), // 154 209.75
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

/// Sharded SCC pinned bit for bit next to the CC curve: a directed
/// toroid-hex and a star mesh through `Partition::auto` at 1/2/4 shards,
/// each shard the paper's device scaled to 0.05. The worklist local
/// phase charges per pop, arc and push, so a change to it, to the
/// exchange or to the superstep accounting shows up here as a diff. Every
/// shard count must also cost no more modeled units than the in-order
/// single-pool `ecl_scc::run` on the same device.
#[test]
fn sharded_scc_is_pinned() {
    let hex = gen::mesh::toroid_hex(24, 24, 5);
    let star = gen::mesh::star(6, 8, 3);
    let config = sim::DeviceConfig::rtx4090_scaled(0.05, 1);
    // Per input: (shards, strategy, modeled-time bits, supersteps,
    // exchange messages); the modeled time in units is in the comment.
    let pins = [
        (
            "hex",
            &hex,
            [
                (1, "contiguous", 0x4106_1716_0000_0000, 9, 0), // 180 962.75
                (2, "contiguous", 0x4111_8fd3_0000_0000, 18, 449), // 287 732.75
                (4, "contiguous", 0x4113_b8fe_0000_0000, 21, 1285), // 323 135.5
            ],
        ),
        (
            "star",
            &star,
            [
                (1, "contiguous", 0x410a_8918_0000_0000, 18, 0), // 217 379
                (2, "contiguous", 0x411a_ac42_0000_0000, 36, 399), // 437 008.5
                (4, "contiguous", 0x411e_5ae4_0000_0000, 40, 1548), // 497 337
            ],
        ),
    ];
    for (name, g, rows) in pins {
        let single = sim::pool::with_policy(sim::DispatchPolicy::sequential(), || {
            let device = sim::Device::new(config);
            scc::run(&device, g, &scc::SccConfig::default());
            device.modeled_time()
        });
        for (shards, strategy, bits, supersteps, messages) in rows {
            let part = shard::Partition::auto(g, shards);
            let s = shard::run_scc(&shard::devices_for(config, shards), g, &part).stats;
            assert_eq!(
                (part.strategy.name(), s.modeled_time.to_bits(), s.supersteps, s.exchange_messages),
                (strategy, bits, supersteps, messages),
                "{name} at {shards} shards: modeled {} units",
                s.modeled_time
            );
            assert!(
                s.modeled_time <= single,
                "{name} at {shards} shards: {} units vs {single} single-pool",
                s.modeled_time
            );
        }
    }
}

/// Sharded MIS pinned bit for bit next to SCC: the torus and the RMAT
/// graph of the CC curve through `Partition::auto` at 1/2/4 shards,
/// each shard the paper's device scaled to 0.05, salt 0. The local
/// phase charges per seed, pop, arc and waiter-list operation, so a
/// change to it, to the exchange or to the superstep accounting shows
/// up here as a diff. One shard costs no more modeled units than the
/// in-order single-pool `ecl_mis::run` on the same device: the local
/// phase is work-efficient. More shards do cost more: ECL-MIS needs a
/// handful of rounds, while every superstep here pays the fixpoint
/// detector, a transfer and a launch, and each decided boundary vertex
/// a message per holder.
#[test]
fn sharded_mis_is_pinned() {
    let torus = gen::grid::torus_2d(64, 64);
    let rmat = gen::rmat::rmat(11, 8.0, gen::rmat::RmatParams::rmat(), 42);
    let config = sim::DeviceConfig::rtx4090_scaled(0.05, 1);
    let cfg = mis::MisConfig::default();
    // Per input: (shards, strategy, modeled-time bits, supersteps,
    // exchange messages); the modeled time in units is in the comment.
    let pins = [
        (
            "torus",
            &torus,
            [
                (1, "contiguous", 0x40dd_8e00_0000_0000, 1, 0), // 30 264
                (2, "contiguous", 0x40ef_1f20_0000_0000, 4, 256), // 63 737
                (4, "contiguous", 0x40ed_4a60_0000_0000, 4, 512), // 59 987
            ],
        ),
        (
            "rmat",
            &rmat,
            [
                (1, "hashed", 0x40d3_5900_0000_0000, 1, 0),    // 19 812
                (2, "hashed", 0x40f2_c7b0_0000_0000, 5, 1581), // 76 923
                (4, "hashed", 0x40f5_d0b0_0000_0000, 5, 3795), // 89 355
            ],
        ),
    ];
    for (name, g, rows) in pins {
        let single = sim::pool::with_policy(sim::DispatchPolicy::sequential(), || {
            let device = sim::Device::new(config);
            mis::run(&device, g, &cfg);
            device.modeled_time()
        });
        for (shards, strategy, bits, supersteps, messages) in rows {
            let part = shard::Partition::auto(g, shards);
            let devices = shard::devices_for(config, shards);
            let s = shard::run_mis(&devices, g, &part, cfg.tie_salt).stats;
            assert_eq!(
                (part.strategy.name(), s.modeled_time.to_bits(), s.supersteps, s.exchange_messages),
                (strategy, bits, supersteps, messages),
                "{name} at {shards} shards: modeled {} units",
                s.modeled_time
            );
            if shards == 1 {
                assert!(s.modeled_time <= single, "{name}: {} vs {single}", s.modeled_time);
            }
        }
    }
}

/// `Partition::auto` at 4 shards on the `batch-shard4` inputs (seed 42):
/// the randomly relabelled torus gets BFS-grown regions, while the hex
/// mesh, whose generator keeps spatially local ids, keeps its
/// contiguous slices — so the sharded SCC there runs on the same
/// partition, at the same cost, as before the grown strategy existed.
#[test]
fn auto_partition_is_pinned_on_the_benchmark_inputs() {
    let input = |name, scale| gen::registry::find(name).unwrap().generate(scale, 42);
    let torus = shard::Partition::auto(&input("2d-2e20.sym", 0.025), 4);
    assert_eq!((torus.strategy.name(), torus.cut_arcs), ("grown", 3120));
    assert!(torus.cut_ratio() <= 0.03, "cut ratio {}", torus.cut_ratio());
    let hex = shard::Partition::auto(&input("toroid-hex", 0.003), 4);
    assert_eq!((hex.strategy.name(), hex.cut_arcs), ("contiguous", 558));
}
