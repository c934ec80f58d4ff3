//! Deterministic edge weights for the MST inputs.
//!
//! The paper's MST inputs are weighted versions of the Table 1 graphs
//! ("the MST code uses weighted graphs", §5.2). We derive a weight for
//! each undirected edge by hashing its canonical endpoint pair, so
//! both arcs of an edge agree and regeneration is reproducible. The
//! weighted view shares the graph it weighs: only the weight column is
//! new.

use std::sync::Arc;

use ecl_graph::{Csr, WeightedCsr};

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Weight of the undirected edge `{u, v}`: a hash of the canonical
/// (sorted) endpoint pair, reduced to `1..=max_weight`.
pub fn edge_weight(u: u32, v: u32, max_weight: u32, seed: u64) -> u32 {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    (mix(seed ^ ((a as u64) << 32) ^ b as u64) % max_weight as u64) as u32 + 1
}

/// Attaches hash-derived weights in `1..=max_weight` to every arc of
/// `g` (owned or shared), with the two arcs of each undirected edge
/// receiving the same weight.
pub fn with_hashed_weights(g: impl Into<Arc<Csr>>, max_weight: u32, seed: u64) -> WeightedCsr {
    let g = g.into();
    let mut weights = Vec::with_capacity(g.num_arcs());
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            weights.push(edge_weight(u, v, max_weight, seed));
        }
    }
    WeightedCsr::from_parts(g, weights)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::validate::check_weight_symmetry;
    use ecl_graph::GraphBuilder;

    fn path(n: usize) -> Csr {
        let mut b = GraphBuilder::new_undirected(n);
        for v in 0..(n as u32 - 1) {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn weights_symmetric() {
        let g = with_hashed_weights(path(50), 1000, 42);
        assert_eq!(check_weight_symmetry(&g), Ok(()));
    }

    #[test]
    fn weights_in_range() {
        let g = with_hashed_weights(path(100), 16, 1);
        assert!(g.weights().iter().all(|&w| (1..=16).contains(&w)));
    }

    #[test]
    fn weights_deterministic_and_seed_sensitive() {
        let a = with_hashed_weights(path(20), 100, 5);
        let b = with_hashed_weights(path(20), 100, 5);
        let c = with_hashed_weights(path(20), 100, 6);
        assert_eq!(a, b);
        assert_ne!(a.weights(), c.weights());
    }

    #[test]
    fn edge_weight_order_invariant() {
        assert_eq!(edge_weight(3, 9, 100, 7), edge_weight(9, 3, 100, 7));
    }

    #[test]
    fn weights_spread_out() {
        // With a reasonable range, a 100-edge path should see many
        // distinct weights.
        let g = with_hashed_weights(path(101), 1 << 20, 9);
        let mut ws: Vec<u32> = g.weights().to_vec();
        ws.sort_unstable();
        ws.dedup();
        assert!(ws.len() > 90, "only {} distinct weights", ws.len());
    }

    #[test]
    #[should_panic(expected = "max_weight must be at least 1")]
    fn zero_max_weight_rejected() {
        edge_weight(0, 1, 0, 0);
    }
}
