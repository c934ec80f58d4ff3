//! `ecl-tune`: a cost-model-driven schedule autotuner.
//!
//! The paper hand-derives three scheduling optimizations by profiling:
//! ECL-CC's first-neighbor-only initialization (§6.2.2), ECL-SCC's
//! per-input block-size choice (§6.2.1, Table 6), and ECL-MST's
//! recomputed launch configuration (§6.2.3, Table 8). Each is one
//! point in a small discrete schedule space. This crate searches those
//! spaces mechanically:
//!
//! - [`eval`] runs one (algorithm, input, schedule) candidate against
//!   the deterministic cost model — the same implementations
//!   `ecl-serve` executes, so modeled wins transfer directly;
//! - [`search`] drives a deterministic search (exhaustive when the
//!   space fits the budget, seeded coordinate descent with
//!   early-abandon pruning otherwise);
//! - [`sweep`] runs the search over an algorithms × inputs grid, one
//!   resident input at a time, its (input, algorithm) searches side by
//!   side ([`ecl_algos::cells`]);
//! - [`manifest`] is the durable output: a versioned `ecl-tune/1`
//!   JSON manifest keyed by (algorithm, graph-family fingerprint),
//!   stamped with the git SHA and full search provenance.
//!
//! Consumers: `ecl-run --tuned <manifest>` applies the matching entry
//! to a single run; the `ecl-serve` catalog attaches best-known
//! schedules to each cached graph at registration, so service jobs run
//! tuned automatically (and are labeled `tuned=true` in /metrics and
//! trace spans).

pub mod eval;
pub mod manifest;
pub mod search;
pub mod sweep;

pub use eval::{evaluate, EvalOutcome};
pub use manifest::{TuneEntry, TuneManifest, SCHEMA};
pub use search::{search, SearchConfig, SearchResult};
pub use sweep::{sweep, SweepConfig, SweepOutcome};
