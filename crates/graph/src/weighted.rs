//! Weighted CSR graphs for ECL-MST.
//!
//! A weighted graph is a weight column beside a topology it shares: the
//! four unweighted codes and ECL-MST consume the same [`Csr`], so an
//! input holds its graph once and its weighted view points at it.

use std::sync::Arc;

use crate::csr::{Csr, VertexId};

/// Identifier of an undirected edge: the index of the *canonical* arc
/// (the one with `source < destination`, or `source == destination` for
/// self-loops) in the flat neighbor array.
pub type EdgeId = usize;

/// A CSR graph whose arcs carry `u32` weights.
///
/// Weights are aligned with the flat neighbor array: the weight of the
/// arc `neighbor_array()[i]` is `weights()[i]`. For undirected graphs
/// the two arcs of an edge carry the same weight. The topology is
/// shared ([`Self::shared_csr`]), never copied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedCsr {
    csr: Arc<Csr>,
    weights: Vec<u32>,
}

impl WeightedCsr {
    /// Pairs a topology (owned or shared) with an arc-aligned weight
    /// array.
    ///
    /// # Panics
    /// Panics if the weight array length differs from the arc count.
    pub fn from_parts(csr: impl Into<Arc<Csr>>, weights: Vec<u32>) -> Self {
        let csr = csr.into();
        assert_eq!(csr.num_arcs(), weights.len(), "one weight per arc required");
        Self { csr, weights }
    }

    /// The underlying topology.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The underlying topology, as the handle this view shares.
    #[inline]
    pub fn shared_csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// The flat weight array, arc-aligned with
    /// [`Csr::neighbor_array`].
    #[inline]
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Weights of the arcs leaving `v`, aligned with
    /// [`Csr::neighbors`].
    #[inline]
    pub fn arc_weights(&self, v: VertexId) -> &[u32] {
        &self.weights[self.csr.arc_range(v)]
    }

    /// The weight of the arc `u -> v`, if present.
    pub fn weight_between(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let idx = self.csr.neighbors(u).binary_search(&v).ok()?;
        Some(self.arc_weights(u)[idx])
    }

    /// Enumerates each undirected edge exactly once as
    /// `(edge_id, u, v, w)` with `u <= v`, in increasing `edge_id`.
    /// `edge_id` is the flat index of the canonical arc, so ids are
    /// unique and stable. This is the
    /// worklist ECL-MST is initialized with ("the worklist is populated
    /// with all unique edges", §2.4).
    pub fn unique_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, u32)> + '_ {
        (0..self.csr.num_vertices() as VertexId).flat_map(move |u| {
            let start = self.csr.arc_range(u).start;
            let arcs = self.csr.neighbors(u).iter().zip(self.arc_weights(u)).enumerate();
            arcs.filter(move |&(_, (&v, _))| u <= v).map(move |(i, (&v, &w))| (start + i, u, v, w))
        })
    }

    /// Total weight over unique edges; `u64` to avoid overflow on large
    /// graphs.
    pub fn total_weight(&self) -> u64 {
        self.unique_edges().map(|(_, _, _, w)| u64::from(w)).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn weighted_square() -> WeightedCsr {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(1, 2, 20);
        b.add_weighted_edge(2, 3, 30);
        b.add_weighted_edge(3, 0, 40);
        b.build_weighted()
    }

    #[test]
    fn unique_edges_once_each() {
        let g = weighted_square();
        let edges: Vec<_> = g.unique_edges().collect();
        assert_eq!(edges.len(), 4);
        let mut ws: Vec<u32> = edges.iter().map(|&(_, _, _, w)| w).collect();
        ws.sort_unstable();
        assert_eq!(ws, vec![10, 20, 30, 40]);
        // Every edge has u <= v and distinct ids.
        let mut ids: Vec<usize> = edges.iter().map(|&(id, _, _, _)| id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert!(edges.iter().all(|&(_, u, v, _)| u <= v));
    }

    #[test]
    fn total_weight() {
        assert_eq!(weighted_square().total_weight(), 100);
    }

    #[test]
    fn arc_weight_alignment() {
        let g = weighted_square();
        for u in 0..4u32 {
            assert_eq!(g.arc_weights(u).len(), g.csr().degree(u));
        }
        assert_eq!(g.weight_between(1, 2), Some(20));
        assert_eq!(g.weight_between(2, 1), Some(20));
    }

    #[test]
    fn self_loop_edge_id() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_weighted_edge(0, 0, 5);
        b.add_weighted_edge(0, 1, 6);
        let g = b.build_weighted();
        let edges: Vec<_> = g.unique_edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().any(|&(_, u, v, w)| u == 0 && v == 0 && w == 5));
    }

    #[test]
    #[should_panic(expected = "one weight per arc")]
    fn rejects_misaligned_weights() {
        let g = GraphBuilder::new_undirected(2).build();
        WeightedCsr::from_parts(g, vec![1, 2, 3]);
    }
}
