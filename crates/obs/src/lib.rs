//! `ecl-obs` — request-scoped observability for the serving stack.
//!
//! The suite already has three profiling lenses — `ecl-trace` event
//! rings, `ecl-prof` launch samples, and `ecl-serve`'s Prometheus
//! counters — but none of them can answer the production question
//! *"why was **this** request slow?"*. This crate adds the three
//! pieces that make per-request attribution work end to end:
//!
//! * [`ctx`] — **correlation ids**: a process-wide `ReqId` allocator
//!   and a per-thread current-request cell. The serving layer enters
//!   the id around job execution; the dispatch pool re-enters it on
//!   every worker claim, so kernel-side hooks see the right id on any
//!   OS thread. Context switches are mirrored into the trace stream
//!   as `EventKind::ReqCtx` markers.
//! * [`recorder`] — the **flight recorder**: an always-on, bounded
//!   black box of recent request summaries, with full kernel-span
//!   traces retained for recent requests and pinned for slow
//!   outliers.
//! * [`slo`] — the **SLO engine**: declarative per-algorithm latency
//!   and error objectives, multi-window burn rates, and an
//!   exemplar-bearing latency histogram that links Prometheus buckets
//!   back to `ReqId`s in the recorder.
//!
//! [`sink`] ties them together through the same
//! [`ecl_profiling::Sink`] slot as the trace and prof sinks:
//! disabled cost is one relaxed atomic load per launch, so the
//! existing overhead noise-budget tests keep holding.

pub mod ctx;
pub mod recorder;
pub mod sink;
pub mod slo;

pub use ctx::{next_req_id, CtxGuard};
pub use recorder::{
    FinishInfo, FlightRecorder, KernelSpan, PhaseSpan, RecorderConfig, RequestSummary, RequestTrace,
};
pub use sink::Obs;
pub use slo::{parse_slo_spec, Objective, ObjectiveKind, SloEngine};
