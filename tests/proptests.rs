//! Property-based tests: validity invariants of every algorithm over
//! arbitrary generated graphs, plus structural invariants of the
//! substrate types.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use ecl_suite::{cc, gc, graph, mis, mst, reference, scc, sim};
use graph::{Csr, GraphBuilder};

fn device() -> sim::Device {
    sim::Device::test_small()
}

/// Strategy: an arbitrary undirected loop-free graph with up to
/// `max_n` vertices and `max_m` candidate edges.
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

/// Strategy: an arbitrary directed graph (self-loops allowed — SCC
/// handles them).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_cc_matches_reference(g in undirected_graph(120, 300)) {
        let r = cc::run(&device(), &g, &cc::CcConfig::baseline());
        prop_assert_eq!(r.labels, reference::connected_components(&g));
    }

    #[test]
    fn prop_cc_optimized_equivalent(g in undirected_graph(120, 300)) {
        let a = cc::run(&device(), &g, &cc::CcConfig::baseline());
        let b = cc::run(&device(), &g, &cc::CcConfig::optimized());
        prop_assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn prop_mis_maximal_and_independent(g in undirected_graph(120, 300)) {
        let r = mis::run(&device(), &g, &mis::MisConfig::default());
        prop_assert!(reference::is_maximal_independent_set(&g, &r.in_set));
    }

    #[test]
    fn prop_gc_proper_and_bounded(g in undirected_graph(100, 250)) {
        let r = gc::run(&device(), &g, &gc::GcConfig::default());
        prop_assert!(reference::is_proper_coloring(&g, &r.colors));
        let max_deg = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max().unwrap_or(0);
        prop_assert!(r.num_colors() <= max_deg + 1);
    }

    #[test]
    fn prop_gc_shortcuts_preserve_colors(g in undirected_graph(80, 200)) {
        let with = gc::run(&device(), &g, &gc::GcConfig::default());
        let without = gc::run(&device(), &g, &gc::GcConfig::no_shortcuts());
        prop_assert_eq!(with.colors, without.colors);
    }

    #[test]
    fn prop_mst_weight_matches_kruskal(
        g in undirected_graph(100, 250),
        wseed in 0u64..1000,
    ) {
        let wg = ecl_suite::gen::with_hashed_weights(g, 1 << 12, wseed);
        let r = mst::run(&device(), &wg, &mst::MstConfig::baseline());
        let k = reference::kruskal(&wg);
        prop_assert_eq!(r.total_weight, k.total_weight);
        prop_assert_eq!(r.num_trees, k.num_trees);
    }

    #[test]
    fn prop_mst_edge_count_invariant(g in undirected_graph(100, 250)) {
        // A spanning forest has exactly n - trees edges.
        let wg = ecl_suite::gen::with_hashed_weights(g.clone(), 1 << 12, 7);
        let r = mst::run(&device(), &wg, &mst::MstConfig::baseline());
        prop_assert_eq!(r.edges.len(), g.num_vertices() - r.num_trees);
    }

    #[test]
    fn prop_scc_matches_tarjan(g in directed_graph(100, 250)) {
        let r = scc::run(&device(), &g, &scc::SccConfig::original());
        prop_assert_eq!(r.min_labels(), reference::strongly_connected_components(&g));
    }

    #[test]
    fn prop_scc_labels_are_scc_maxima(g in directed_graph(80, 200)) {
        let r = scc::run(&device(), &g, &scc::SccConfig::original());
        for (v, &l) in r.labels.iter().enumerate() {
            // The label of v is at least v's id and is itself labeled
            // with itself (a fixed point).
            prop_assert!(l >= v as u32 || r.labels[l as usize] == l);
            prop_assert_eq!(r.labels[l as usize], l);
        }
    }

    #[test]
    fn prop_csr_binary_roundtrip(g in undirected_graph(80, 200)) {
        let mut buf = Vec::new();
        graph::io::write_csr(&mut buf, &g).unwrap();
        let g2 = graph::io::read_csr(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn prop_transpose_involution(g in directed_graph(80, 200)) {
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn prop_relabel_preserves_components(
        g in undirected_graph(80, 200),
        seed in 0u64..100,
    ) {
        let r = ecl_suite::gen::relabel::relabel_random(&g, seed);
        prop_assert_eq!(
            reference::num_components(&g),
            reference::num_components(&r)
        );
        prop_assert_eq!(g.num_arcs(), r.num_arcs());
    }

    #[test]
    fn prop_summary_invariants(values in proptest::collection::vec(0u64..10_000, 1..200)) {
        let s = ecl_suite::profiling::Summary::of_u64(&values);
        prop_assert!(s.min <= s.avg && s.avg <= s.max);
        prop_assert!((s.sum - values.iter().sum::<u64>() as f64).abs() < 1e-6);
        prop_assert!(s.std >= 0.0);
        prop_assert!(s.std <= (s.max - s.min).max(0.0) + 1e-9);
    }

    #[test]
    fn prop_pearson_bounded(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = ecl_suite::profiling::pearson(&xs, &ys);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {}", r);
    }
}
