//! The LDF priority order and the induced dependency DAG.

use ecl_graph::Csr;

/// Hashed tie-break (MurmurHash3 finalizer), decorrelating equal-degree
/// ties from raw id order as ECL-GC's randomized priorities do.
#[inline]
fn hash_id(v: u32) -> u32 {
    let mut x = v;
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x = x.wrapping_mul(0xC2B2_AE35);
    x ^ (x >> 16)
}

/// True if `u` has higher priority than `v` under Largest-Degree-First
/// with hashed-id tie-break. The order is total (ids are unique), so
/// the dependency graph is a DAG.
#[inline]
pub fn beats(g: &Csr, u: u32, v: u32) -> bool {
    (g.degree(u), hash_id(u), u) > (g.degree(v), hash_id(v), v)
}

/// The priority DAG's in-arcs: for every vertex, the adjacency
/// positions of its higher-priority neighbors, in adjacency order.
/// Built once at init, so the coloring rounds walk only these arcs
/// and compare no priorities.
#[derive(Debug)]
pub struct InArcs {
    /// Start of each vertex's run in `positions` (length `n + 1`).
    offsets: Vec<u32>,
    /// Adjacency positions `pos` of `v` with `beats(adj[pos], v)`.
    positions: Vec<u32>,
}

impl InArcs {
    /// One pass over the arcs of `g`, against a per-vertex rank
    /// `(degree << 32) | hash_id(v)`: unique because `hash_id` is a
    /// bijection, so it is the order of [`beats`]. Each position is
    /// written unconditionally and kept, by advancing `len`, only when
    /// its neighbor outranks the vertex, so the scan has no
    /// data-dependent branch. A symmetric graph has `num_arcs / 2` DAG
    /// arcs, which with the one scratch slot past them is the buffer's
    /// size; the rank is gone before the caller allocates the color
    /// bitmaps.
    ///
    /// # Panics
    /// Panics on a self-loop (a self-looped vertex cannot be properly
    /// colored).
    pub fn new(g: &Csr) -> Self {
        let n = g.num_vertices();
        let rank: Vec<u64> = (0..n as u32)
            .map(|v| {
                let degree = u32::try_from(g.degree(v)).expect("degree fits u32");
                u64::from(degree) << 32 | u64::from(hash_id(v))
            })
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut positions = vec![0u32; g.num_arcs() / 2 + 1];
        let mut len = 0;
        offsets.push(0);
        for v in 0..n as u32 {
            let mine = rank[v as usize];
            for (pos, &u) in g.neighbors(v).iter().enumerate() {
                assert_ne!(u, v, "ECL-GC requires self-loop-free inputs");
                if len == positions.len() {
                    // Only an asymmetric input outgrows the buffer.
                    positions.resize(2 * len, 0);
                }
                positions[len] = pos as u32;
                len += usize::from(rank[u as usize] > mine);
            }
            offsets.push(u32::try_from(len).expect("DAG arc count fits u32"));
        }
        positions.truncate(len);
        Self { offsets, positions }
    }

    /// `v`'s in-arcs as (arc index, adjacency position) pairs, in
    /// adjacency order. Arc indices run over `0..num_arcs()`, so a per-arc
    /// array of [`InArcs::num_arcs`] entries holds one slot per in-arc.
    #[inline]
    pub fn of(&self, v: u32) -> impl Iterator<Item = (usize, usize)> + '_ {
        let r = self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize;
        r.clone().zip(self.positions[r].iter().map(|&pos| pos as usize))
    }

    /// Arcs of the whole DAG: one per undirected edge.
    pub fn num_arcs(&self) -> usize {
        self.positions.len()
    }

    /// In-degree of every vertex: the number of higher-priority
    /// neighbors. Determines the possible-color bitmap width
    /// (`indegree + 1` colors suffice for a greedy coloring).
    pub fn in_degrees(&self) -> Vec<u32> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    fn undirected(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut b = GraphBuilder::new_undirected(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn higher_degree_beats() {
        // Hub 0 (degree 3) beats every leaf (degree 1).
        let g = undirected(4, &[(0, 1), (0, 2), (0, 3)]);
        for leaf in 1..4 {
            assert!(beats(&g, 0, leaf));
            assert!(!beats(&g, leaf, 0));
        }
    }

    #[test]
    fn order_is_total_and_antisymmetric() {
        let g = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for u in 0..5 {
            for v in 0..5 {
                if u != v {
                    assert_ne!(beats(&g, u, v), beats(&g, v, u), "{u} vs {v}");
                }
            }
        }
    }

    /// Checks `InArcs` against `beats` on every vertex of `g`: a
    /// position is listed exactly when its neighbor beats the vertex,
    /// positions increase, and the counts sum to the edge count.
    fn assert_lists_exactly_the_higher_neighbors(g: &Csr) -> InArcs {
        let dag = InArcs::new(g);
        for v in 0..g.num_vertices() as u32 {
            let adj = g.neighbors(v);
            let listed: Vec<usize> = dag.of(v).map(|(_, pos)| pos).collect();
            let want: Vec<usize> = (0..adj.len()).filter(|&pos| beats(g, adj[pos], v)).collect();
            assert_eq!(listed, want, "vertex {v}");
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "vertex {v}: positions not increasing");
        }
        let indeg = dag.in_degrees();
        assert_eq!(indeg.iter().map(|&d| d as usize).sum::<usize>(), g.num_edges());
        assert_eq!(dag.num_arcs(), g.num_edges());
        dag
    }

    #[test]
    fn in_arcs_are_the_higher_priority_neighbors() {
        for (name, g) in [
            ("torus", ecl_graphgen::grid::torus_2d(12, 12)),
            ("er", ecl_graphgen::random::erdos_renyi(400, 6.0, 21)),
            ("pa", ecl_graphgen::powerlaw::preferential_attachment(400, 4.0, 22)),
            (
                "cycle+chord",
                undirected(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
            ),
        ] {
            let dag = assert_lists_exactly_the_higher_neighbors(&g);
            assert!(dag.num_arcs() > 0, "{name}");
        }
    }

    #[test]
    fn hub_lists_no_in_arc() {
        let g = undirected(4, &[(0, 1), (0, 2), (0, 3)]);
        let dag = assert_lists_exactly_the_higher_neighbors(&g);
        assert_eq!(dag.in_degrees(), vec![0, 1, 1, 1]);
        // Each leaf's one neighbor is the hub, at adjacency position 0.
        for leaf in 1..4 {
            assert_eq!(dag.of(leaf).collect::<Vec<_>>(), vec![(leaf as usize - 1, 0)]);
        }
    }

    #[test]
    fn empty_and_isolated_vertices_list_nothing() {
        let dag = assert_lists_exactly_the_higher_neighbors(&Csr::empty(0, false));
        assert_eq!(dag.num_arcs(), 0);
        assert!(dag.in_degrees().is_empty());
        let dag = assert_lists_exactly_the_higher_neighbors(&Csr::empty(3, false));
        assert_eq!(dag.in_degrees(), vec![0, 0, 0]);
        assert_eq!(dag.num_arcs(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_is_refused() {
        InArcs::new(&undirected(2, &[(0, 0), (0, 1)]));
    }
}
