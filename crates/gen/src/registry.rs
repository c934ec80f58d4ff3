//! Registry mapping the paper's Table 1 input names to synthetic
//! generators calibrated to each row's size and degree profile.

use std::sync::Arc;

use ecl_graph::{Csr, WeightedCsr};

use crate::grid;
use crate::mesh;
use crate::powerlaw;
use crate::random;
use crate::rmat::{self, RmatParams};
use crate::weights;

/// The structural family of an input, carrying the generator
/// parameters calibrated to the paper row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InputFamily {
    /// 2D torus grid (`2d-2e20.sym`).
    Torus,
    /// Delaunay-like triangulation (`delaunay_n24`).
    Triangulation,
    /// Road network via grid subdivision; larger `subdivisions` lowers
    /// the average degree toward 2.
    Roadmap {
        /// Mean subdivision count per base edge.
        subdivisions: usize,
    },
    /// Erdős–Rényi uniform random graph (`r4-2e23.sym`).
    Random {
        /// Target average degree.
        avg_degree: f64,
    },
    /// RMAT / Kronecker recursive generator.
    Rmat {
        /// Edges per vertex before dedup.
        epv: f64,
        /// Quadrant probabilities.
        params: RmatParams,
    },
    /// Barabási–Albert preferential attachment (internet topology,
    /// social networks, web crawls, co-purchases).
    PrefAttach {
        /// Mean attachments per new vertex.
        m: f64,
    },
    /// Holme-Kim preferential attachment with triad formation
    /// (co-purchase and community graphs: high clustering).
    PrefAttachClustered {
        /// Mean attachments per new vertex.
        m: f64,
        /// Probability that a link closes a triangle.
        p_triad: f64,
    },
    /// Citation network with bounded degree skew.
    Citation {
        /// Mean citations per new vertex.
        out_mean: f64,
    },
    /// Clique-overlay co-authorship network (`coPapersDBLP`).
    CliqueOverlay {
        /// Papers per author (groups = n × this).
        groups_per_vertex: f64,
        /// Mean authors per paper.
        group_mean: usize,
    },
    /// Directed toroidal mesh with wedge connectivity.
    MeshWedge,
    /// Directed toroidal mesh with hexagonal connectivity.
    MeshHex,
    /// Directed 3D volume mesh.
    MeshColdFlow,
    /// Directed Klein-bottle mesh.
    MeshKlein,
    /// Concentric-ring star mesh; `layers` matches the outer-iteration
    /// count ECL-SCC needs to peel it.
    MeshStar {
        /// Number of ring layers.
        layers: usize,
    },
}

/// One input row of Table 1 with its synthetic substitute.
#[derive(Clone, Copy, Debug)]
pub struct InputSpec {
    /// Paper input name.
    pub name: &'static str,
    /// Table 1 "Type" column.
    pub graph_type: &'static str,
    /// Generator family and parameters.
    pub family: InputFamily,
    /// Paper vertex count (scale = 1.0 target).
    pub paper_vertices: usize,
    /// Paper arc count (Table 1 "Edges").
    pub paper_edges: usize,
    /// Paper average degree.
    pub paper_d_avg: f64,
    /// Paper maximum degree.
    pub paper_d_max: usize,
    /// Whether the generated graph is directed (SCC meshes only).
    pub directed: bool,
}

impl InputSpec {
    /// Target vertex count at `scale` (floored at a family-safe
    /// minimum so tiny test scales still generate valid graphs).
    pub fn scaled_vertices(&self, scale: f64) -> usize {
        assert!(scale > 0.0, "scale must be positive");
        ((self.paper_vertices as f64 * scale) as usize).max(256)
    }

    /// Whether this family's natural vertex ids are topological
    /// (generation order) and must be randomized to match the real
    /// inputs' id-vs-topology independence (see
    /// [`crate::relabel`]). Preferential-attachment and
    /// clique-overlay graphs keep their natural order: the real
    /// counterparts (as-skitter, amazon0601, coPapersDBLP) show
    /// Table 4 gaps near 1, exactly what arrival-ordered ids produce.
    fn needs_relabel(&self) -> bool {
        matches!(
            self.family,
            InputFamily::Torus
                | InputFamily::Triangulation
                | InputFamily::Roadmap { .. }
                | InputFamily::Citation { .. }
                | InputFamily::Rmat { .. }
        )
    }

    /// Generates the synthetic analogue at `scale` (1.0 = paper size).
    pub fn generate(&self, scale: f64, seed: u64) -> Csr {
        let g = self.generate_natural(scale, seed);
        if self.needs_relabel() {
            crate::relabel::relabel_random(&g, seed ^ 0x1D)
        } else {
            g
        }
    }

    /// Generates with the family's natural (topological) vertex ids.
    pub fn generate_natural(&self, scale: f64, seed: u64) -> Csr {
        let n = self.scaled_vertices(scale);
        let side = (n as f64).sqrt().ceil() as usize;
        match self.family {
            InputFamily::Torus => grid::torus_2d(side.max(3), side.max(3)),
            InputFamily::Triangulation => grid::delaunay_like(side.max(2), side.max(2), seed),
            InputFamily::Roadmap { subdivisions } => {
                // Subdivision multiplies the vertex count by roughly
                // (1 + subdivisions); shrink the base grid to hit n.
                let base = (n as f64 / (1.0 + subdivisions as f64)).max(16.0);
                let bside = (base.sqrt().ceil() as usize).max(2);
                grid::roadmap(bside, bside, subdivisions, seed)
            }
            InputFamily::Random { avg_degree } => random::erdos_renyi(n, avg_degree, seed),
            InputFamily::Rmat { epv, params } => {
                let scale_exp = (n as f64).log2().round().max(6.0) as u32;
                rmat::rmat(scale_exp, epv, params, seed)
            }
            InputFamily::PrefAttach { m } => powerlaw::preferential_attachment(n, m, seed),
            InputFamily::PrefAttachClustered { m, p_triad } => {
                powerlaw::preferential_attachment_clustered(n, m, p_triad, seed)
            }
            InputFamily::Citation { out_mean } => powerlaw::citation(n, out_mean, seed),
            InputFamily::CliqueOverlay { groups_per_vertex, group_mean } => {
                let groups = ((n as f64 * groups_per_vertex) as usize).max(1);
                powerlaw::clique_overlay(n, groups, group_mean, seed)
            }
            InputFamily::MeshWedge => mesh::toroid_wedge(side.max(3), side.max(3), seed),
            InputFamily::MeshHex => mesh::toroid_hex(side.max(3), side.max(3), seed),
            InputFamily::MeshColdFlow => {
                let s = (n as f64).cbrt().ceil().max(3.0) as usize;
                mesh::cold_flow(s, s, s, seed)
            }
            InputFamily::MeshKlein => mesh::klein_bottle(side.max(3), side.max(3), seed),
            InputFamily::MeshStar { layers } => {
                let total_rings: usize = layers * (layers + 1) / 2;
                let base = (n / total_rings).max(3);
                mesh::star(layers, base, seed)
            }
        }
    }

    /// Generates the weighted variant (MST inputs): [`Self::generate`]
    /// then [`Self::weigh`].
    pub fn generate_weighted(&self, scale: f64, seed: u64, max_weight: u32) -> WeightedCsr {
        self.weigh(self.generate(scale, seed), seed, max_weight)
    }

    /// The weighted variant of `g` (owned or shared), this input
    /// generated at `seed`: hashed weights in `1..=max_weight`, salted
    /// from the seed, beside `g` itself.
    ///
    /// # Panics
    /// Panics for directed (SCC mesh) inputs, which are never used
    /// weighted.
    pub fn weigh(&self, g: impl Into<Arc<Csr>>, seed: u64, max_weight: u32) -> WeightedCsr {
        assert!(!self.directed, "weighted inputs are undirected (MST)");
        weights::with_hashed_weights(g, max_weight, seed ^ 0x5EED)
    }
}

/// The weight cap of the harness's, the tuner's and the serve
/// catalog's weighted views: an MST input is the same in all three.
pub const DEFAULT_MAX_WEIGHT: u32 = 1 << 20;

const fn undirected(
    name: &'static str,
    graph_type: &'static str,
    family: InputFamily,
    v: usize,
    e: usize,
    d_avg: f64,
    d_max: usize,
) -> InputSpec {
    InputSpec {
        name,
        graph_type,
        family,
        paper_vertices: v,
        paper_edges: e,
        paper_d_avg: d_avg,
        paper_d_max: d_max,
        directed: false,
    }
}

const fn directed_mesh(
    name: &'static str,
    family: InputFamily,
    v: usize,
    e: usize,
    d_avg: f64,
    d_max: usize,
) -> InputSpec {
    InputSpec {
        name,
        graph_type: "mesh",
        family,
        paper_vertices: v,
        paper_edges: e,
        paper_d_avg: d_avg,
        paper_d_max: d_max,
        directed: true,
    }
}

/// The 17 undirected inputs (upper block of Table 1) used by MIS, CC,
/// GC, and MST.
pub fn general_inputs() -> &'static [InputSpec] {
    const RMAT: RmatParams = RmatParams { a: 0.45, b: 0.22, c: 0.22 };
    const G500: RmatParams = RmatParams { a: 0.57, b: 0.19, c: 0.19 };
    const INPUTS: &[InputSpec] = &[
        undirected("2d-2e20.sym", "grid", InputFamily::Torus, 1_048_576, 4_190_208, 4.0, 4),
        undirected(
            "amazon0601",
            "co-purchases",
            InputFamily::PrefAttachClustered { m: 6.05, p_triad: 0.7 },
            403_394,
            4_886_816,
            12.1,
            2_752,
        ),
        undirected(
            "as-skitter",
            "InTopo",
            InputFamily::PrefAttach { m: 6.55 },
            1_696_415,
            22_190_596,
            13.1,
            35_455,
        ),
        undirected(
            "citationCiteseer",
            "PubCit",
            InputFamily::Citation { out_mean: 4.3 },
            268_495,
            2_313_294,
            8.6,
            1_318,
        ),
        undirected(
            "cit-Patents",
            "PatCit",
            InputFamily::Citation { out_mean: 4.0 },
            3_774_768,
            33_037_894,
            8.0,
            793,
        ),
        undirected(
            "coPapersDBLP",
            "PubCit",
            InputFamily::CliqueOverlay { groups_per_vertex: 1.3, group_mean: 8 },
            540_486,
            30_491_458,
            56.4,
            3_299,
        ),
        undirected(
            "delaunay_n24",
            "triangulation",
            InputFamily::Triangulation,
            16_777_216,
            100_663_202,
            6.0,
            26,
        ),
        undirected(
            "europe_osm",
            "roadmap",
            InputFamily::Roadmap { subdivisions: 8 },
            50_912_018,
            108_109_320,
            2.1,
            13,
        ),
        undirected(
            "in-2004",
            "weblinks",
            InputFamily::Rmat { epv: 24.0, params: RMAT },
            1_382_908,
            27_182_946,
            19.7,
            21_869,
        ),
        undirected(
            "internet",
            "InTopo",
            InputFamily::PrefAttach { m: 1.55 },
            124_651,
            387_240,
            3.1,
            151,
        ),
        undirected(
            "kron_g500-logn21",
            "Kronecker",
            InputFamily::Rmat { epv: 100.0, params: G500 },
            2_097_152,
            182_081_864,
            86.8,
            213_904,
        ),
        undirected(
            "r4-2e23.sym",
            "random",
            InputFamily::Random { avg_degree: 8.0 },
            8_388_608,
            67_108_846,
            8.0,
            26,
        ),
        undirected(
            "rmat16.sym",
            "RMAT",
            InputFamily::Rmat { epv: 18.0, params: RMAT },
            65_536,
            967_866,
            14.8,
            569,
        ),
        undirected(
            "rmat22.sym",
            "RMAT",
            InputFamily::Rmat { epv: 19.0, params: RMAT },
            4_194_304,
            65_660_814,
            15.7,
            3_687,
        ),
        undirected(
            "soc-LiveJournal1",
            "community",
            InputFamily::PrefAttachClustered { m: 10.15, p_triad: 0.5 },
            4_847_571,
            85_702_474,
            20.3,
            20_333,
        ),
        undirected(
            "USA-road-d.NY",
            "roadmap",
            InputFamily::Roadmap { subdivisions: 1 },
            264_346,
            730_100,
            2.8,
            8,
        ),
        undirected(
            "USA-road-d.USA",
            "roadmap",
            InputFamily::Roadmap { subdivisions: 2 },
            23_947_347,
            57_708_624,
            2.4,
            9,
        ),
    ];
    INPUTS
}

/// The five directed meshes (lower block of Table 1) used by SCC.
pub fn scc_inputs() -> &'static [InputSpec] {
    const INPUTS: &[InputSpec] = &[
        directed_mesh("toroid-wedge", InputFamily::MeshWedge, 196_608, 485_564, 2.47, 4),
        directed_mesh("star", InputFamily::MeshStar { layers: 10 }, 327_680, 654_080, 2.00, 2),
        directed_mesh("toroid-hex", InputFamily::MeshHex, 1_572_864, 4_684_142, 2.98, 4),
        directed_mesh("cold-flow", InputFamily::MeshColdFlow, 2_112_512, 6_295_558, 2.98, 5),
        directed_mesh("klein-bottle", InputFamily::MeshKlein, 8_388_608, 18_793_715, 2.24, 4),
    ];
    INPUTS
}

/// All 22 inputs: the general ones, then the SCC meshes.
pub fn all_inputs() -> impl Iterator<Item = &'static InputSpec> {
    general_inputs().iter().chain(scc_inputs())
}

/// Looks up an input by its paper name.
pub fn find(name: &str) -> Option<&'static InputSpec> {
    all_inputs().find(|s| s.name == name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::DegreeStats;

    #[test]
    fn registry_is_complete() {
        assert_eq!(general_inputs().len(), 17);
        assert_eq!(scc_inputs().len(), 5);
        assert_eq!(all_inputs().count(), 22);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = all_inputs().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn find_by_name() {
        assert!(find("europe_osm").is_some());
        assert!(find("star").is_some());
        assert!(find("nonexistent").is_none());
        assert!(find("star").unwrap().directed);
        assert!(!find("amazon0601").unwrap().directed);
    }

    #[test]
    fn every_input_generates_at_tiny_scale() {
        for spec in all_inputs() {
            let g = spec.generate(0.001, 42);
            assert!(g.num_vertices() > 0, "{} empty", spec.name);
            assert_eq!(g.is_directed(), spec.directed, "{} directedness", spec.name);
            assert_eq!(
                ecl_graph::validate::check_adjacency_lists(&g),
                Ok(()),
                "{} adjacency",
                spec.name
            );
            if !spec.directed {
                assert!(g.is_symmetric(), "{} should be symmetric", spec.name);
            }
        }
    }

    #[test]
    fn degree_profiles_roughly_match_rows() {
        // At a moderate scale, each family's average degree should land
        // within a factor ~2 of the paper row (dedup and scaling shift
        // it somewhat; the *contrast between rows* is what matters).
        for name in ["2d-2e20.sym", "europe_osm", "r4-2e23.sym", "amazon0601", "coPapersDBLP"] {
            let spec = find(name).unwrap();
            let g = spec.generate(0.01, 7);
            let s = DegreeStats::of(&g);
            assert!(
                s.d_avg > spec.paper_d_avg / 2.2 && s.d_avg < spec.paper_d_avg * 2.2,
                "{name}: d_avg {} vs paper {}",
                s.d_avg,
                spec.paper_d_avg
            );
        }
    }

    #[test]
    fn skew_contrast_preserved() {
        // The §6.1.1 correlate: power-law inputs have much higher
        // d-max/d-avg than roadmaps/grids.
        let skewed = find("as-skitter").unwrap().generate(0.01, 3);
        let flat = find("europe_osm").unwrap().generate(0.01, 3);
        let ss = DegreeStats::of(&skewed);
        let sf = DegreeStats::of(&flat);
        assert!(ss.skew > 5.0 * sf.skew, "skew contrast lost: {} vs {}", ss.skew, sf.skew);
    }

    #[test]
    fn weighted_generation() {
        let spec = find("2d-2e20.sym").unwrap();
        let g = spec.generate_weighted(0.002, 9, 1 << 16);
        assert_eq!(ecl_graph::validate::check_weight_symmetry(&g), Ok(()));
    }

    #[test]
    fn weighing_a_generated_graph_is_generating_it_weighted() {
        for spec in general_inputs() {
            let g = spec.generate(0.002, 42);
            let weighed = spec.weigh(g.clone(), 42, DEFAULT_MAX_WEIGHT);
            assert_eq!(
                weighed,
                spec.generate_weighted(0.002, 42, DEFAULT_MAX_WEIGHT),
                "{}",
                spec.name
            );
            // The salt every weighted input has carried: the serve
            // catalog's graphs stay bit-identical.
            let salted = weights::with_hashed_weights(g, DEFAULT_MAX_WEIGHT, 42 ^ 0x5EED);
            assert_eq!(weighed, salted, "{}", spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "weighted inputs are undirected")]
    fn weighted_mesh_rejected() {
        find("star").unwrap().generate_weighted(0.01, 1, 100);
    }

    #[test]
    fn scaled_vertices_monotone() {
        let spec = find("soc-LiveJournal1").unwrap();
        assert!(spec.scaled_vertices(0.01) < spec.scaled_vertices(0.1));
        assert_eq!(spec.scaled_vertices(1.0), spec.paper_vertices);
    }

    #[test]
    fn roadmaps_have_high_diameter_powerlaw_low() {
        // The §6.1.1 structural contrast: information propagates far
        // on roadmaps, barely at all on power-law graphs.
        let road = find("USA-road-d.NY").unwrap().generate(0.02, 5);
        let social = find("as-skitter").unwrap().generate(0.02, 5);
        let d_road = ecl_graph::stats::pseudo_diameter(&road, 0);
        let d_social = ecl_graph::stats::pseudo_diameter(&social, 0);
        assert!(
            d_road > 5 * d_social,
            "roadmap diameter {d_road} should dwarf power-law diameter {d_social}"
        );
    }

    #[test]
    fn copurchase_has_higher_clustering_than_intopo() {
        // amazon0601 uses triadic closure; as-skitter is plain PA.
        let amazon = find("amazon0601").unwrap().generate(0.01, 5);
        let skitter = find("as-skitter").unwrap().generate(0.01, 5);
        let c_amazon = ecl_graph::stats::clustering_coefficient(&amazon, 6);
        let c_skitter = ecl_graph::stats::clustering_coefficient(&skitter, 6);
        assert!(
            c_amazon > 1.5 * c_skitter,
            "co-purchase clustering {c_amazon} should exceed InTopo {c_skitter}"
        );
    }

    #[test]
    fn star_layers_match_paper_outer_iterations() {
        let spec = find("star").unwrap();
        match spec.family {
            InputFamily::MeshStar { layers } => assert_eq!(layers, 10),
            other => panic!("unexpected family {other:?}"),
        }
        let g = spec.generate(0.01, 1);
        // One SCC per ring layer.
        assert_eq!(ecl_ref::num_sccs(&g), 10);
    }
}
