//! `ecl-serve` — a multi-tenant graph-analytics service over the
//! simulated-GPU algorithm suite.
//!
//! The paper profiles five irregular graph algorithms one
//! batch-invocation at a time. This crate wraps the same runs in a
//! long-lived service so their *operational* properties — queueing
//! under bursty demand, admission control, result reuse, latency
//! distributions per algorithm — can be measured with the profiling
//! machinery the suite already has (`ecl-prof` sketches and gates).
//!
//! Layers, bottom up:
//!
//! * [`http`] — a bounded `std`-only incremental HTTP/1.1 parser
//!   (bytes are fed as they arrive; requests pop out as they
//!   complete) and response writer (the workspace is offline; no
//!   server frameworks).
//! * [`ring`] — a bounded lock-free MPMC event ring, the handoff
//!   between the accept thread, the scheduler's completion hook, and
//!   the reactor.
//! * [`catalog`] — name → materialized graph, unifying the Table-1
//!   generator registry with on-disk graph files, behind a
//!   content-hashed, byte-budgeted LRU.
//! * [`jobs`] — the job spec and the explicit lifecycle state machine
//!   (`queued → running → done | failed | cancelled |
//!   deadline-exceeded`).
//! * [`exec`] — spec → scaled device → algorithm run → bit-comparable
//!   aggregates (checksummed solution vectors, modeled GPU time).
//! * [`cache`] — completed results keyed by `(graph content hash,
//!   algorithm, params, seed)`; hits are bit-identical to re-running
//!   because every run is seed-deterministic.
//! * [`scheduler`] — bounded admission (reject beyond `max_queue`),
//!   worker pool sized against the simulator's own thread usage,
//!   start deadlines, cancellation, `catch_unwind` panic containment,
//!   drain-on-shutdown.
//! * [`metrics`] — service counters + per-algorithm latency sketches,
//!   rendered for Prometheus via `ecl-prof`.
//! * [`conn`] — the per-connection state machine (reading → routing →
//!   waiting → writing) with partial-read/partial-write buffers and
//!   read/write deadlines.
//! * [`reactor`] — the single event-loop thread that owns every
//!   connection: nonblocking sockets, HTTP keep-alive, parked
//!   `wait_ms` submissions answered by scheduler completion wakeups.
//! * [`server`] — the HTTP surface tying it all together: a bounded
//!   accept thread (immediate 503 beyond `max_connections`) feeding
//!   the reactor, plus the route table. Thread count is fixed —
//!   accept + reactor + scheduler workers — independent of how many
//!   connections are open.
//! * [`client`] — a blocking HTTP/1.1 client (keep-alive or one-shot)
//!   for tests, docs and the benchmark's load generator.
//!
//! ```
//! use ecl_serve::client::http_call;
//! use ecl_serve::jobs::{Algo, JobSpec};
//! use ecl_serve::server::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).expect("bind");
//! let target = server.addr().to_string();
//! let (status, body) = http_call(
//!     &target,
//!     "POST",
//!     "/v1/jobs",
//!     Some(r#"{"algo": "cc", "graph": "internet", "wait_ms": 60000}"#),
//! )
//! .expect("request");
//! assert_eq!(status, 200);
//! assert!(body.contains("\"state\": \"done\""), "{body}");
//! # drop(JobSpec::new(Algo::Cc, "internet"));
//! server.shutdown();
//! ```

pub mod cache;
pub mod catalog;
pub mod client;
pub mod conn;
pub mod exec;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod reactor;
pub mod ring;
pub mod scheduler;
pub mod server;

pub use cache::ResultCache;
pub use catalog::{CatalogConfig, GraphCatalog};
pub use exec::RunOutput;
pub use jobs::{Algo, JobSpec, JobState};
pub use scheduler::{Scheduler, SchedulerConfig, SubmitError};
pub use server::{ServeConfig, Server};

/// The client's former module path. `benchmark/` still imports
/// `HttpClient` from here; code in this workspace uses [`client`].
pub mod loadgen {
    pub use crate::client::HttpClient;
}
