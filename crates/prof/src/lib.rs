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
//!   `ecl-gpusim`'s launch/pool layer: wall time, grid geometry, and
//!   per-participant block/claim/busy stats. The type lives in
//!   `ecl-profiling` (the pool produces it, `ecl-obs` consumes it too)
//!   and is re-exported here.
//! - [`sink`] — the collector as an observer in the simulator's one
//!   observer slot (`ecl_gpusim::observe`): the disabled path is one
//!   relaxed atomic load per *launch*.
//! - [`collector::Collector`] — aggregates samples per kernel into
//!   [`ecl_profiling::LogSketch`] percentile sketches of wall time
//!   and load imbalance, plus utilization and claim-wait totals.
//! - [`manifest::Manifest`] — the versioned (`ecl-prof/1`) JSON run
//!   manifest: git SHA, dispatch policy, gateable metric sample
//!   vectors, kernel stats, counter distributions.
//! - [`expose`] — Prometheus text exposition of a manifest, written
//!   through [`ecl_profiling::expo`].
//! - [`folded`] — pprof-style folded stacks and an SVG flamegraph
//!   derived from `ecl-trace` captures.
//! - [`gate`] — the noise-aware (median + MAD) regression detector
//!   behind `ecl-prof gate`, comparing two manifests
//!   and exiting nonzero on real slowdowns.
//!
//! [`json`] is a re-export of [`ecl_profiling::json`], where the
//! module lives; in-workspace code imports it from there.
//!
//! The `ecl-prof` binary wires the exposition and gate surfaces into
//! subcommands; `ecl-run --profile` (in `ecl-bench`) produces the
//! artifacts.

pub mod collector;
pub mod expose;
pub mod folded;
pub mod gate;
pub mod manifest;
pub mod sink;

pub use collector::{Collector, KernelStats};
pub use ecl_profiling::json;
pub use ecl_profiling::{LaunchSample, WorkerStat};
pub use expose::to_prometheus;
pub use folded::{folded_to_svg, to_folded};
pub use gate::{gate_files, GateConfig, GateReport, Status};
pub use manifest::{git_sha, Direction, DispatchInfo, Manifest, Metric, SCHEMA};
