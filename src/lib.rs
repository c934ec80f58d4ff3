//! `ecl-suite-rs` — a Rust reproduction of *Profiling
//! Application-Specific Properties of Irregular Graph Algorithms on
//! GPUs* (Sharma & Burtscher, SC Workshops '25).
//!
//! This facade re-exports the workspace crates under stable module
//! names. Start with [`profiling`] (the paper's contribution: manual
//! counter instrumentation), [`sim`] (the GPU execution-model
//! simulator that substitutes for the paper's RTX 4090), and the five
//! algorithm crates.
//!
//! ```
//! use ecl_suite::{cc, gen, sim};
//!
//! // A small road-network-like input and a simulated device.
//! let g = gen::grid::roadmap(16, 16, 2, 42);
//! let device = sim::Device::rtx4090();
//!
//! // Run ECL-CC with counters on; read the application-specific
//! // metrics the paper's Table 4 reports.
//! let result = cc::run(&device, &g, &cc::CcConfig::baseline());
//! assert!(result.num_components() >= 1);
//! assert_eq!(
//!     result.counters.vertices_initialized.get() as usize,
//!     g.num_vertices()
//! );
//! ```

/// CSR graph substrate ([`ecl_graph`]).
pub use ecl_graph as graph;

/// Synthetic input generators for the paper's Table 1 ([`ecl_graphgen`]).
pub use ecl_graphgen as gen;

/// GPU execution-model simulator ([`ecl_gpusim`]).
pub use ecl_gpusim as sim;

/// Counter-based profiling framework — the paper's primary
/// contribution ([`ecl_profiling`]).
pub use ecl_profiling as profiling;

/// Sequential reference algorithms for validation ([`ecl_ref`]).
pub use ecl_ref as reference;

/// ECL-CC: connected components ([`ecl_cc`]).
pub use ecl_cc as cc;

/// ECL-GC: graph coloring ([`ecl_gc`]).
pub use ecl_gc as gc;

/// ECL-MIS: maximal independent set ([`ecl_mis`]).
pub use ecl_mis as mis;

/// ECL-MST: minimum spanning tree ([`ecl_mst`]).
pub use ecl_mst as mst;

/// ECL-SCC: strongly connected components ([`ecl_scc`]).
pub use ecl_scc as scc;

/// Multi-pool sharded execution with cross-shard frontier exchange
/// ([`ecl_shard`]).
pub use ecl_shard as shard;

/// The algorithm registry: the `Algorithm` trait, the five adapters,
/// and the driver that runs one by name under a schedule
/// ([`ecl_algos`]).
pub use ecl_algos as algos;

/// Multi-tenant graph-analytics service: catalog, scheduler, result
/// cache, HTTP surface, load generator ([`ecl_serve`]).
pub use ecl_serve as serve;
