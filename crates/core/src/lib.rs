//! Counter-based manual profiling for irregular parallel algorithms.
//!
//! This crate is the Rust embodiment of the paper's primary
//! contribution (§3): instead of relying on general-purpose profilers,
//! *application-specific events* are counted by instrumenting the
//! algorithm source with cheap counters that are either **thread-local**
//! (one slot per simulated GPU thread) or **global** (one shared atomic
//! tally). On top of the raw counters it provides:
//!
//! - the paper's *general metrics* (§3.1): iteration counts,
//!   idle/active threads, and atomic-update outcomes,
//! - [`Counter`], the shape (count, distribution, series) in which
//!   each kernel crate reports its own named counters after a run,
//! - summary statistics (average / maximum / minimum / standard
//!   deviation) over per-thread counts, Pearson correlation between
//!   metric vectors (the paper correlates iteration counts with degree
//!   skew, §6.1.1), and run-to-run comparison for internally
//!   non-deterministic codes (Table 3),
//! - paper-style table and series rendering used by the experiment
//!   harness binaries.
//!
//! Counters are designed to be safe to increment concurrently from many
//! pool workers: thread-local counters are `AtomicU64` slots touched
//! with `Relaxed` ordering only by the worker that owns the simulated
//! thread, and global counters and sketches are striped per OS thread
//! (one cache line per writer, summed on read). Profiling can
//! be disabled wholesale via [`ProfileMode::Off`], which the overhead
//! benchmark uses to quantify the perturbation the paper discusses in
//! §3 ("our approach introduces overhead and, hence, affects the
//! execution time").

pub mod atomics;
pub mod chart;
pub mod counter;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod runs;
pub mod sample;
pub mod series;
pub mod sketch;
pub mod stats;
mod stripe;
pub mod table;
pub mod trace;

pub use atomics::{AtomicOutcome, AtomicTally};
pub use counter::{Counter, GlobalCounter, PerThreadCounter, ProfileMode};
pub use metrics::{imbalance_from_summary, ActivityTally};
pub use runs::MultiRun;
pub use sample::{LaunchSample, WorkerStat};
pub use series::{BlockSeries, IterationBars};
pub use sketch::{LogSketch, SketchSnapshot, SKETCH_BUCKETS};
pub use stats::{pearson, Summary};
pub use table::Table;
pub use trace::ConvergenceTrace;
