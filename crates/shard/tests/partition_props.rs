//! Property tests of the partitioner's structural contract: for any
//! graph, shard count, and strategy —
//!
//! 1. the per-shard arc sets tile the input (every arc lands in
//!    exactly one shard, with both endpoints correctly remapped);
//! 2. the ghost tables are closed under cut arcs (every off-shard arc
//!    head is a ghost with the right owner, every owner knows exactly
//!    which shards mirror it);
//! 3. a one-shard partition is the identity: the local CSR is
//!    byte-identical to the input;
//! 4. a grown partition has exactly the contiguous slice sizes, and
//!    [`Partition::auto`] never cuts more than the contiguous slices.

#![allow(clippy::unwrap_used)]

use ecl_graph::{Csr, GraphBuilder};
use ecl_shard::{Partition, Strategy as ShardStrategy};
use proptest::prelude::*;

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

/// Strategy: an arbitrary directed graph (SCC-shaped input).
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

fn any_strategy() -> impl Strategy<Value = ShardStrategy> {
    (0usize..3)
        .prop_map(|i| [ShardStrategy::Contiguous, ShardStrategy::Grown, ShardStrategy::Hashed][i])
}

/// Vertices per shard.
fn owner_sizes(part: &Partition) -> Vec<usize> {
    let mut sizes = vec![0; part.shards as usize];
    for &s in &part.owner {
        sizes[s as usize] += 1;
    }
    sizes
}

/// Checks properties 1 and 2 for one (graph, partition) pair.
fn check_partition(g: &Csr, part: &Partition) -> Result<(), TestCaseError> {
    let graphs = part.shard_graphs(g);

    // Property 1: translate every shard-local arc back to global ids;
    // the multiset must equal the input's arc set exactly. Ghost slots
    // carry no adjacency, so every local arc originates from an owned
    // vertex — which is exactly the "arc owned by owner(tail)" rule.
    let mut local_arcs: Vec<(u32, u32)> = Vec::with_capacity(g.num_arcs());
    for sg in &graphs {
        for l in 0..sg.locals() {
            let arcs = sg.csr.neighbors(l as u32);
            if sg.is_ghost(l) {
                prop_assert!(arcs.is_empty(), "ghost slot {l} has adjacency");
                continue;
            }
            prop_assert_eq!(part.owner(sg.globals[l]), sg.shard, "owned local in the wrong shard");
            for &w in arcs {
                local_arcs.push((sg.globals[l], sg.globals[w as usize]));
            }
        }
    }
    let mut expect: Vec<(u32, u32)> = g.arcs().collect();
    expect.sort_unstable();
    local_arcs.sort_unstable();
    prop_assert_eq!(local_arcs, expect, "shard arcs must tile the input arc set");

    // Property 2: ghost closure. Walk the cut arcs of the input and
    // require (a) the tail's shard ghosts the head, (b) the ghost's
    // recorded owner is right, (c) the owner's mirror mask names the
    // tail's shard; and conversely every ghost slot and mask bit is
    // justified by some cut arc.
    let mut expected_ghosts: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); part.shards as usize];
    let mut expected_mask: Vec<u64> = vec![0; g.num_vertices()];
    for (u, v) in g.arcs() {
        let (su, sv) = (part.owner(u), part.owner(v));
        if su != sv {
            expected_ghosts[su as usize].insert(v);
            expected_mask[v as usize] |= 1 << su;
        }
    }
    for sg in &graphs {
        let actual: std::collections::BTreeSet<u32> =
            sg.globals[sg.owned..].iter().copied().collect();
        prop_assert_eq!(
            &actual,
            &expected_ghosts[sg.shard as usize],
            "shard {} ghost set is not the cut-arc closure",
            sg.shard
        );
        for (i, &v) in sg.globals[sg.owned..].iter().enumerate() {
            prop_assert_eq!(sg.ghost_owner[i], part.owner(v), "ghost {v} owner mismatch");
            prop_assert_eq!(sg.ghost_local(v), Some(sg.owned + i));
        }
        for (l, &v) in sg.globals[..sg.owned].iter().enumerate() {
            prop_assert_eq!(
                sg.ghost_of[l],
                expected_mask[v as usize],
                "mirror mask of {v} disagrees with the cut arcs"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_undirected_partitions_are_consistent(
        g in undirected_graph(80, 200),
        shards in 1u32..7,
        strategy in any_strategy(),
    ) {
        let part = Partition::new(&g, shards, strategy);
        check_partition(&g, &part)?;
    }

    #[test]
    fn prop_directed_partitions_are_consistent(
        g in directed_graph(80, 200),
        shards in 1u32..7,
        strategy in any_strategy(),
    ) {
        let part = Partition::new(&g, shards, strategy);
        check_partition(&g, &part)?;
    }

    #[test]
    fn prop_single_shard_is_identity(
        g in undirected_graph(80, 200),
        strategy in any_strategy(),
    ) {
        let part = Partition::new(&g, 1, strategy);
        prop_assert_eq!(part.cut_arcs, 0);
        let graphs = part.shard_graphs(&g);
        prop_assert_eq!(graphs.len(), 1);
        let sg = &graphs[0];
        prop_assert_eq!(&sg.csr, &g, "one-shard CSR must be byte-identical to the input");
        prop_assert_eq!(sg.owned, g.num_vertices());
        prop_assert_eq!(sg.ghosts(), 0);
        prop_assert!(sg.ghost_of.iter().all(|&m| m == 0));
    }

    #[test]
    fn prop_owner_and_cut_stats_agree(
        g in undirected_graph(80, 200),
        shards in 1u32..7,
        strategy in any_strategy(),
    ) {
        let part = Partition::new(&g, shards, strategy);
        // Every vertex owned by a real shard.
        prop_assert!(part.owner.iter().all(|&s| s < shards));
        // The recorded cut count is the recount.
        let recount = g.arcs().filter(|&(u, v)| part.owner(u) != part.owner(v)).count();
        prop_assert_eq!(part.cut_arcs, recount);
        prop_assert_eq!(part.total_arcs, g.num_arcs());
    }

    #[test]
    fn prop_grown_sizes_equal_contiguous(
        g in directed_graph(80, 200),
        shards in 1u32..7,
    ) {
        let grown = Partition::new(&g, shards, ShardStrategy::Grown);
        let contiguous = Partition::new(&g, shards, ShardStrategy::Contiguous);
        prop_assert_eq!(owner_sizes(&grown), owner_sizes(&contiguous));
    }

    #[test]
    fn prop_auto_cuts_no_more_than_contiguous(
        g in undirected_graph(80, 200),
        shards in 1u32..7,
    ) {
        // Skewed draws hash for balance; every near-regular draw keeps
        // the lower of the two local cuts.
        let auto = Partition::auto(&g, shards);
        if auto.strategy != ShardStrategy::Hashed {
            let contiguous = Partition::new(&g, shards, ShardStrategy::Contiguous);
            let grown = Partition::new(&g, shards, ShardStrategy::Grown);
            prop_assert_eq!(auto.cut_arcs, contiguous.cut_arcs.min(grown.cut_arcs));
            prop_assert!(auto.cut_arcs <= contiguous.cut_arcs);
        }
    }
}
