//! Synthetic graph generators for the paper's Table 1 inputs.
//!
//! The paper evaluates on 22 real inputs (SuiteSparse / DIMACS /
//! Graph500 graphs plus five fluid-dynamics meshes). Those files are
//! not redistributable here, so every input is substituted with a
//! deterministic synthetic generator that targets the same *structural
//! family* — the properties the paper's analyses key off:
//!
//! | Family | Paper inputs | Generator |
//! |---|---|---|
//! | grid/torus | 2d-2e20.sym | [`grid::torus_2d`] |
//! | triangulation | delaunay_n24 | [`grid::delaunay_like`] |
//! | roadmap | europe_osm, USA-road-d.* | [`grid::roadmap`] |
//! | uniform random | r4-2e23.sym | [`random::erdos_renyi`] |
//! | RMAT / Kronecker | rmat16/22.sym, kron_g500-logn21 | [`rmat::rmat`] |
//! | power-law social/web | amazon0601, as-skitter, internet, in-2004, soc-LiveJournal1 | [`powerlaw::preferential_attachment`] |
//! | citation | citationCiteseer, cit-Patents | [`powerlaw::citation`] |
//! | co-authorship | coPapersDBLP | [`powerlaw::clique_overlay`] |
//! | directed mesh | toroid-wedge, star, toroid-hex, cold-flow, klein-bottle | [`mesh`] |
//!
//! [`registry`] maps each paper input name to its generator with
//! parameters calibrated so that **scale = 1.0 matches the paper's
//! vertex counts** and the average degree / degree-skew of the row;
//! the experiment harness runs at reduced scale (structure is
//! preserved, absolute counts shrink).
//!
//! All generators are deterministic in `(parameters, seed)`.

pub mod grid;
pub mod mesh;
pub mod powerlaw;
pub mod random;
pub mod registry;
pub mod relabel;
pub mod rmat;
pub mod weights;

pub use registry::{
    all_inputs, general_inputs, scc_inputs, InputFamily, InputSpec, DEFAULT_MAX_WEIGHT,
};
pub use weights::with_hashed_weights;
