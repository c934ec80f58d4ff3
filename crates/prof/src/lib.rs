//! Unified kernel/pool profiling for the suite.
//!
//! Where `ecl-profiling` answers "how many" and `ecl-trace` answers
//! "when", this crate answers "how fast, and how evenly": it turns
//! the simulator into a self-profiling system whose every run can
//! emit a machine-readable performance artifact.
//!
//! The pieces:
//!
//! - [`LaunchSample`] — one kernel launch as observed by the hooks in
//!   `ecl-gpusim`'s launch/pool layer, in both currencies: wall time
//!   and the modeled cost units it charged by kind, plus grid geometry
//!   and per-participant block/claim/busy stats. The type lives in
//!   `ecl-profiling` (the pool produces it, `ecl-obs` consumes it too)
//!   and is re-exported here.
//! - [`sink`] — the collector as a simulator observer
//!   (`ecl_gpusim::observe`): on a device with no observers the
//!   disabled path is one relaxed atomic load per *launch*.
//! - [`collector::Collector`] — the one per-kernel observer:
//!   aggregates samples per kernel into [`ecl_profiling::LogSketch`]
//!   percentile sketches of wall time and load imbalance, plus cost
//!   units, utilization and claim-wait totals. `ecl-run --kernels`
//!   prints its rows as modeled and wall time per kernel.
//! - [`manifest::Manifest`] — the versioned (`ecl-prof/1`) JSON run
//!   manifest: git SHA, dispatch policy, per-repeat metric sample
//!   vectors, kernel stats (cost units included), counter
//!   distributions.
//! - [`expose`] — Prometheus text exposition of a manifest, written
//!   through [`ecl_profiling::expo`].
//! - [`folded`] — pprof-style folded stacks and an SVG flamegraph
//!   derived from `ecl-trace` captures.
//!
//! [`json`] is a re-export of [`ecl_profiling::json`], where the
//! module lives; in-workspace code imports it from there.
//!
//! Nothing here compares two runs: in-order modeled time is a pure
//! function of its inputs, so the Tier-1 suite pins it bit for bit
//! (`tests/algo_registry.rs`) and `benchmark/` measures wall time.
//!
//! The `ecl-prof` binary wires the exposition surfaces into
//! subcommands; `ecl-run --profile` (in `ecl-bench`) produces the
//! artifacts.

pub mod collector;
pub mod expose;
pub mod folded;
pub mod manifest;
pub mod sink;

pub use collector::{Collector, KernelStats};
pub use ecl_profiling::json;
pub use ecl_profiling::{LaunchSample, WorkerStat};
pub use expose::to_prometheus;
pub use folded::{folded_to_svg, to_folded};
pub use manifest::{git_sha, Direction, DispatchInfo, Manifest, Metric, SCHEMA};
