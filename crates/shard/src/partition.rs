//! Edge-cut graph partitioning for multi-pool execution.
//!
//! A [`Partition`] assigns every vertex to exactly one shard (its
//! *owner*); every arc `u -> v` is owned by `owner(u)`, so each arc is
//! assigned to exactly one shard and the per-shard arc sets tile the
//! input's arc set. Arcs whose endpoints live on different shards are
//! *cut arcs*: their heads appear in the owning shard as **ghost
//! vertices** — read-only mirrors whose state is refreshed through the
//! mailbox exchange between supersteps ([`crate::exchange`]).
//!
//! Three placement strategies:
//!
//! - [`Strategy::Contiguous`] slices the vertex id range into balanced
//!   blocks. It cuts only the slice boundaries when topological
//!   neighbors sit at nearby ids — true of the spatial generators'
//!   *natural* ids (`InputSpec::generate_natural`) and of inputs
//!   stored that way, but not of most registered inputs:
//!   `InputSpec::generate` randomly relabels torus, mesh, road,
//!   citation and RMAT graphs to reproduce the paper's
//!   id-vs-topology independence, so on those a contiguous slice is a
//!   uniform random partition (cut ≈ 1 − 1/k).
//! - [`Strategy::Grown`] slices a breadth-first visit order of the
//!   undirected view into the same balanced sizes. Each shard is a run
//!   of consecutive BFS levels, so the cut is set by the topology, not
//!   by the ids: on a relabelled 2-D torus it is a few level
//!   boundaries.
//! - [`Strategy::Hashed`] spreads vertices by a hashed id. Power-law
//!   inputs (RMAT) concentrate degree mass at low ids; hashing trades
//!   a higher cut ratio for balanced per-shard work.
//!
//! [`Partition::auto`] hashes inputs with real degree spread (the
//! coefficient-of-variation classes [`ecl_graph::family`] uses for
//! input fingerprinting) and, for near-regular ones, builds both a
//! contiguous and a grown partition and keeps the one with the lower
//! cut (a tie keeps the contiguous one).

use ecl_graph::family::SkewClass;
use ecl_graph::{Csr, VertexId};

/// Maximum shard count: ghost bookkeeping uses one `u64` bitmask per
/// owned boundary vertex to name the shards holding a mirror.
pub const MAX_SHARDS: u32 = 64;

/// Vertex-placement strategy of a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Balanced contiguous vertex-id ranges (structure-exploiting
    /// only where ids are spatially local — see the module docs).
    Contiguous,
    /// Balanced contiguous ranges of a BFS visit order (id-independent
    /// locality for near-regular inputs).
    Grown,
    /// Hashed vertex ids (load-balancing for power-law inputs).
    Hashed,
}

impl Strategy {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Contiguous => "contiguous",
            Strategy::Grown => "grown",
            Strategy::Hashed => "hashed",
        }
    }
}

/// Degree-skew class from the coefficient of variation of the degree
/// distribution (one linear pass; no BFS, unlike the full
/// [`ecl_graph::family::Fingerprint`]).
fn degree_skew_class(g: &Csr) -> SkewClass {
    let n = g.num_vertices();
    if n == 0 {
        return SkewClass::Uniform;
    }
    let mean = g.num_arcs() as f64 / n as f64;
    if mean == 0.0 {
        return SkewClass::Uniform;
    }
    let var = (0..n as VertexId)
        .map(|v| {
            let d = g.degree(v) as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    SkewClass::of_cv(var.sqrt() / mean)
}

/// MurmurHash3 finalizer: the id-decorrelating hash the suite already
/// uses for the MIS tie-break permutation.
#[inline]
fn hash_id(v: u32) -> u32 {
    let mut x = v;
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x = x.wrapping_mul(0xC2B2_AE35);
    x ^ (x >> 16)
}

/// Breadth-first visit order of the undirected view of `g` (out- and,
/// for directed graphs, in-neighbors), one tree per component, each
/// rooted at its smallest unvisited id. O(n + m); the visit order is
/// its own queue.
fn bfs_order(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let reverse = g.is_directed().then(|| g.transpose());
    let mut seen = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for root in 0..n as u32 {
        if seen[root as usize] {
            continue;
        }
        seen[root as usize] = true;
        let mut head = order.len();
        order.push(root);
        while head < order.len() {
            let v = order[head];
            head += 1;
            let ins = reverse.as_ref().map_or(&[][..], |r| r.neighbors(v));
            for &w in g.neighbors(v).iter().chain(ins) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    order.push(w);
                }
            }
        }
    }
    order
}

/// A vertex-disjoint assignment of a graph to `shards` shards.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Number of shards.
    pub shards: u32,
    /// Strategy that produced the assignment.
    pub strategy: Strategy,
    /// Owning shard per global vertex.
    pub owner: Vec<u32>,
    /// Arcs whose endpoints live on different shards.
    pub cut_arcs: usize,
    /// Total arcs of the partitioned graph.
    pub total_arcs: usize,
}

impl Partition {
    /// Partitions `g` into `shards` shards under `strategy`.
    ///
    /// # Panics
    /// Panics if `shards` is 0 or exceeds [`MAX_SHARDS`].
    pub fn new(g: &Csr, shards: u32, strategy: Strategy) -> Partition {
        assert!(shards >= 1, "at least one shard required");
        assert!(shards <= MAX_SHARDS, "at most {MAX_SHARDS} shards supported");
        let n = g.num_vertices();
        // Balanced slices: the first `n % shards` shards hold one
        // extra vertex, so sizes differ by at most one.
        let slices = || {
            let (base, extra) = (n / shards as usize, n % shards as usize);
            let mut slices = Vec::with_capacity(n);
            for s in 0..shards as usize {
                slices.extend(std::iter::repeat_n(s as u32, base + usize::from(s < extra)));
            }
            slices
        };
        let owner: Vec<u32> = match strategy {
            Strategy::Contiguous => slices(),
            Strategy::Grown => {
                let mut owner = vec![0; n];
                for (&v, s) in bfs_order(g).iter().zip(slices()) {
                    owner[v as usize] = s;
                }
                owner
            }
            Strategy::Hashed => (0..n as u32).map(|v| hash_id(v) % shards).collect(),
        };
        let cut_arcs = g.arcs().filter(|&(u, v)| owner[u as usize] != owner[v as usize]).count();
        Partition { shards, strategy, owner, cut_arcs, total_arcs: g.num_arcs() }
    }

    /// Picks the strategy from the input: anything with real degree
    /// spread (RMAT sits at cv ≈ 1.2–1.8 even at small scales) hashes
    /// for load balance; near-regular inputs (meshes, tori, road-like
    /// graphs) take whichever of [`Strategy::Contiguous`] and
    /// [`Strategy::Grown`] cuts fewer arcs, contiguous on a tie — so a
    /// mesh stored with spatially local ids keeps its slices and a
    /// relabelled one gets BFS regions.
    pub fn auto(g: &Csr, shards: u32) -> Partition {
        if degree_skew_class(g) != SkewClass::Uniform {
            return Partition::new(g, shards, Strategy::Hashed);
        }
        let contiguous = Partition::new(g, shards, Strategy::Contiguous);
        let grown = Partition::new(g, shards, Strategy::Grown);
        if grown.cut_arcs < contiguous.cut_arcs {
            grown
        } else {
            contiguous
        }
    }

    /// Owning shard of global vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> u32 {
        self.owner[v as usize]
    }

    /// Fraction of arcs crossing shard boundaries (0 for one shard or
    /// an arcless graph).
    pub fn cut_ratio(&self) -> f64 {
        if self.total_arcs == 0 {
            0.0
        } else {
            self.cut_arcs as f64 / self.total_arcs as f64
        }
    }

    /// Builds the per-shard local graphs (one [`ShardGraph`] per
    /// shard, in shard order).
    pub fn shard_graphs(&self, g: &Csr) -> Vec<ShardGraph> {
        let n = g.num_vertices();
        let shards = self.shards as usize;

        // Owned globals per shard, ascending (owner is a total map, so
        // one bucket pass keeps global order within each shard).
        let mut owned_globals: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for v in 0..n as u32 {
            owned_globals[self.owner[v as usize] as usize].push(v);
        }

        // Ghost sets: shard s mirrors every arc head it does not own.
        // Sorted ascending so ghost local ids are deterministic.
        let mut ghost_globals: Vec<Vec<u32>> = vec![Vec::new(); shards];
        // Mirror-holder masks: ghost_of[v] names the shards holding a
        // ghost of v, for the owner's post-superstep broadcast.
        let mut ghost_of_global: Vec<u64> = vec![0; n];
        for (u, v) in g.arcs() {
            let su = self.owner[u as usize];
            if su != self.owner[v as usize] {
                let mask = &mut ghost_of_global[v as usize];
                if *mask & (1 << su) == 0 {
                    *mask |= 1 << su;
                    ghost_globals[su as usize].push(v);
                }
            }
        }
        for ghosts in &mut ghost_globals {
            ghosts.sort_unstable();
        }

        // Global -> local translation, shared by all shards: each
        // shard writes only its own vertices' entries and every arc
        // head it reads is one of them, so stale entries from earlier
        // shards are never read and nothing needs resetting.
        let mut local_of: Vec<u32> = vec![u32::MAX; n];
        (0..shards)
            .map(|s| {
                let owned = &owned_globals[s];
                let ghosts = &ghost_globals[s];
                let locals = owned.len() + ghosts.len();

                for (i, &v) in owned.iter().chain(ghosts.iter()).enumerate() {
                    local_of[v as usize] = i as u32;
                }

                // Local CSR: owned vertices keep their full adjacency
                // (heads remapped, re-sorted by local id); ghosts carry
                // no adjacency — they exist to be read, not swept.
                let mut offsets = Vec::with_capacity(locals + 1);
                offsets.push(0usize);
                let mut neighbors: Vec<u32> = Vec::new();
                for &v in owned {
                    let start = neighbors.len();
                    neighbors.extend(g.neighbors(v).iter().map(|&w| local_of[w as usize]));
                    neighbors[start..].sort_unstable();
                    offsets.push(neighbors.len());
                }
                for _ in ghosts {
                    offsets.push(neighbors.len());
                }
                let csr = Csr::from_parts(offsets, neighbors, g.is_directed());

                let globals: Vec<u32> = owned.iter().chain(ghosts.iter()).copied().collect();
                let global_degree: Vec<u32> = globals.iter().map(|&v| g.degree(v) as u32).collect();
                let ghost_owner: Vec<u32> =
                    ghosts.iter().map(|&v| self.owner[v as usize]).collect();
                let ghost_of: Vec<u64> =
                    owned.iter().map(|&v| ghost_of_global[v as usize]).collect();

                ShardGraph {
                    shard: s as u32,
                    csr,
                    owned: owned.len(),
                    globals,
                    global_degree,
                    ghost_owner,
                    ghost_of,
                }
            })
            .collect()
    }
}

/// The local view one shard executes on: a compact CSR over its owned
/// vertices plus read-only ghost slots for cut-arc heads.
#[derive(Clone, Debug)]
pub struct ShardGraph {
    /// Shard id (0-based).
    pub shard: u32,
    /// Local graph. Local ids `0..owned` are the shard's owned
    /// vertices (ascending global order); `owned..` are ghosts
    /// (ascending global order, empty adjacency). For a one-shard
    /// partition this is byte-identical to the input CSR.
    pub csr: Csr,
    /// Number of owned vertices (ghosts start at this local id).
    pub owned: usize,
    /// Local id -> global id, for all locals (owned then ghosts).
    pub globals: Vec<u32>,
    /// Local id -> degree in the *global* graph. Ghost adjacency is
    /// empty locally, but algorithms whose priorities derive from
    /// degree (MIS) must see global degrees everywhere.
    pub global_degree: Vec<u32>,
    /// Owning shard per ghost (index: local id − `owned`).
    pub ghost_owner: Vec<u32>,
    /// Per owned local vertex, bitmask of shards holding it as a
    /// ghost (bit `s` = shard `s` mirrors this vertex).
    pub ghost_of: Vec<u64>,
}

impl ShardGraph {
    /// Total local vertices (owned + ghosts).
    #[inline]
    pub fn locals(&self) -> usize {
        self.globals.len()
    }

    /// Number of ghost slots.
    #[inline]
    pub fn ghosts(&self) -> usize {
        self.globals.len() - self.owned
    }

    /// Whether local id `l` is a ghost slot.
    #[inline]
    pub fn is_ghost(&self, l: usize) -> bool {
        l >= self.owned
    }

    /// Local ghost slot of global vertex `v`, if this shard mirrors
    /// it (binary search: ghosts are stored in ascending global
    /// order).
    pub fn ghost_local(&self, v: u32) -> Option<usize> {
        self.globals[self.owned..].binary_search(&v).ok().map(|i| self.owned + i)
    }

    /// Local id of global vertex `v` — owned slot or ghost slot.
    /// Owned locals are also in ascending global order, so both halves
    /// binary-search.
    pub fn local_of(&self, v: u32) -> Option<usize> {
        self.globals[..self.owned].binary_search(&v).ok().or_else(|| self.ghost_local(v))
    }
}

#[cfg(test)]
impl Partition {
    /// A partition with an explicit owner per vertex.
    pub(crate) fn owned_by(g: &Csr, owner: &[u32]) -> Partition {
        let shards = owner.iter().max().map_or(1, |&s| s + 1);
        let cut_arcs = g.arcs().filter(|&(u, v)| owner[u as usize] != owner[v as usize]).count();
        let owner = owner.to_vec();
        Partition {
            shards,
            strategy: Strategy::Contiguous,
            owner,
            cut_arcs,
            total_arcs: g.num_arcs(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    fn path(n: usize) -> Csr {
        let mut b = GraphBuilder::new_undirected(n);
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn contiguous_owner_is_balanced_and_monotone() {
        let g = path(10);
        let p = Partition::new(&g, 3, Strategy::Contiguous);
        assert_eq!(p.owner, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        // A path cut into 3 slices severs 2 edges = 4 arcs.
        assert_eq!(p.cut_arcs, 4);
        assert!((p.cut_ratio() - 4.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn single_shard_partition_is_trivial() {
        let g = path(7);
        let p = Partition::new(&g, 1, Strategy::Contiguous);
        assert!(p.owner.iter().all(|&s| s == 0));
        assert_eq!(p.cut_arcs, 0);
        assert_eq!(p.cut_ratio(), 0.0);
        let sg = &p.shard_graphs(&g)[0];
        assert_eq!(sg.csr, g, "one-shard local CSR must be byte-identical to the input");
        assert_eq!(sg.owned, 7);
        assert_eq!(sg.ghosts(), 0);
        assert!(sg.ghost_of.iter().all(|&m| m == 0));
    }

    #[test]
    fn ghosts_mirror_cut_arc_heads() {
        let g = path(6);
        let p = Partition::new(&g, 2, Strategy::Contiguous);
        let graphs = p.shard_graphs(&g);
        // Cut edge {2,3}: shard 0 ghosts vertex 3, shard 1 ghosts 2.
        assert_eq!(graphs[0].globals, vec![0, 1, 2, 3]);
        assert_eq!(graphs[0].ghosts(), 1);
        assert_eq!(graphs[0].ghost_owner, vec![1]);
        assert_eq!(graphs[1].globals, vec![3, 4, 5, 2]);
        assert_eq!(graphs[1].ghost_owner, vec![0]);
        // The owners know who mirrors them.
        assert_eq!(graphs[0].ghost_of, vec![0, 0, 1 << 1]);
        assert_eq!(graphs[1].ghost_of, vec![1 << 0, 0, 0]);
        // Ghost slots carry no adjacency.
        assert_eq!(graphs[0].csr.degree(3), 0);
        // Global degrees survive localization (vertex 3 has degree 2).
        assert_eq!(graphs[0].global_degree[3], 2);
    }

    #[test]
    fn arcs_tile_across_shards() {
        let g = ecl_graphgen::grid::torus_2d(8, 8);
        for shards in [1u32, 2, 3, 4, 7] {
            let p = Partition::new(&g, shards, Strategy::Contiguous);
            let total: usize = p.shard_graphs(&g).iter().map(|sg| sg.csr.num_arcs()).sum();
            assert_eq!(total, g.num_arcs(), "shards {shards}");
        }
    }

    #[test]
    fn grown_strategy_follows_topology_not_ids() {
        // A 16-vertex path whose i-th vertex has id 5i mod 16: id
        // slices scatter it, BFS regions cut one edge per boundary.
        let mut b = GraphBuilder::new_undirected(16);
        for i in 0..15u32 {
            b.add_edge(5 * i % 16, 5 * (i + 1) % 16);
        }
        let g = b.build();
        let grown = Partition::new(&g, 4, Strategy::Grown);
        assert_eq!(grown.cut_arcs, 6);
        assert!(Partition::new(&g, 4, Strategy::Contiguous).cut_arcs > 6);
        assert_eq!(Partition::auto(&g, 4).owner, grown.owner);
    }

    #[test]
    fn hashed_strategy_spreads_vertices() {
        let g = path(256);
        let p = Partition::new(&g, 4, Strategy::Hashed);
        let mut counts = [0usize; 4];
        for &s in &p.owner {
            counts[s as usize] += 1;
        }
        // A decent hash leaves no shard empty or dominant on 256 ids.
        assert!(counts.iter().all(|&c| c > 16), "counts {counts:?}");
    }

    #[test]
    fn auto_hashes_skewed_inputs_and_slices_meshes() {
        let torus = ecl_graphgen::grid::torus_2d(16, 16);
        assert_eq!(Partition::auto(&torus, 4).strategy, Strategy::Contiguous);
        let rmat = ecl_graphgen::rmat::rmat(9, 8.0, ecl_graphgen::rmat::RmatParams::rmat(), 42);
        assert_eq!(Partition::auto(&rmat, 4).strategy, Strategy::Hashed);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Partition::new(&path(4), 0, Strategy::Contiguous);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_shards_rejected() {
        Partition::new(&path(4), 65, Strategy::Contiguous);
    }
}
