//! Sequential minimum spanning forest (Kruskal).

use ecl_graph::{EdgeId, WeightedCsr};

use crate::union_find::UnionFind;

/// Result of a minimum-spanning-forest computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstResult {
    /// Ids of the chosen edges (see [`WeightedCsr::unique_edges`]).
    pub edges: Vec<EdgeId>,
    /// Sum of chosen edge weights.
    pub total_weight: u64,
    /// Number of trees in the forest (= number of connected
    /// components of the input).
    pub num_trees: usize,
}

/// Kruskal's algorithm over the unique-edge list. Handles disconnected
/// graphs (produces a minimum spanning *forest*). Ties are broken by
/// edge id, making the result deterministic; ECL-MST applies the same
/// (weight, id) tie-break so *total weights* always agree, and edge
/// sets agree whenever weights are distinct.
pub fn kruskal(g: &WeightedCsr) -> MstResult {
    // Self-loops can never join two components; drop them up front.
    // Each remaining edge owns two arcs.
    let mut edges = Vec::with_capacity(g.csr().num_arcs() / 2);
    edges.extend(g.unique_edges().filter(|&(_, u, v, _)| u != v));
    edges.sort_unstable_by_key(|&(id, _, _, w)| (w, id));
    let mut uf = UnionFind::new(g.num_vertices());
    let mut chosen = Vec::new();
    let mut total = 0u64;
    for (id, u, v, w) in edges {
        if uf.union(u, v) {
            chosen.push(id);
            total += w as u64;
            if uf.num_sets() == 1 {
                break;
            }
        }
    }
    MstResult { edges: chosen, total_weight: total, num_trees: uf.num_sets() }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    fn weighted(n: usize, edges: &[(u32, u32, u32)]) -> WeightedCsr {
        let mut b = GraphBuilder::new_undirected(n);
        for &(u, v, w) in edges {
            b.add_weighted_edge(u, v, w);
        }
        b.build_weighted()
    }

    #[test]
    fn triangle_drops_heaviest() {
        let g = weighted(3, &[(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        let r = kruskal(&g);
        assert_eq!(r.total_weight, 3);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.num_trees, 1);
    }

    #[test]
    fn classic_example() {
        // Well-known 7-vertex example with MST weight 39.
        let g = weighted(
            7,
            &[
                (0, 1, 7),
                (0, 3, 5),
                (1, 2, 8),
                (1, 3, 9),
                (1, 4, 7),
                (2, 4, 5),
                (3, 4, 15),
                (3, 5, 6),
                (4, 5, 8),
                (4, 6, 9),
                (5, 6, 11),
            ],
        );
        let r = kruskal(&g);
        assert_eq!(r.total_weight, 39);
        assert_eq!(r.edges.len(), 6);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let g = weighted(5, &[(0, 1, 1), (1, 2, 2), (3, 4, 7)]);
        let r = kruskal(&g);
        assert_eq!(r.num_trees, 2);
        assert_eq!(r.edges.len(), 3);
        assert_eq!(r.total_weight, 10);
    }

    #[test]
    fn single_vertex_and_empty() {
        let g = weighted(1, &[]);
        let r = kruskal(&g);
        assert_eq!(r.num_trees, 1);
        assert_eq!(r.total_weight, 0);
        let g0 = weighted(0, &[]);
        assert_eq!(kruskal(&g0).num_trees, 0);
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_weighted_edge(0, 0, 1);
        b.add_weighted_edge(0, 1, 5);
        let r = kruskal(&b.build_weighted());
        assert_eq!(r.total_weight, 5);
        assert_eq!(r.edges.len(), 1);
    }

    #[test]
    fn parallel_edges_take_lightest() {
        // Builder dedups keeping the lightest.
        let g = weighted(2, &[(0, 1, 9), (0, 1, 2)]);
        let r = kruskal(&g);
        assert_eq!(r.total_weight, 2);
    }

    #[test]
    fn equal_weights_deterministic() {
        let g = weighted(4, &[(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)]);
        let a = kruskal(&g);
        let b = kruskal(&g);
        assert_eq!(a, b);
        assert_eq!(a.total_weight, 15);
    }
}
