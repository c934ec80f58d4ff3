//! `ecl-obs` — request-scoped observability for the serving stack.
//!
//! The suite already has three profiling lenses — `ecl-trace` event
//! rings, `ecl-prof` launch samples, and `ecl-serve`'s Prometheus
//! counters — but none of them can answer the production question
//! *"why was **this** request slow?"*. This crate adds the three
//! pieces that make per-request attribution work end to end:
//!
//! * **correlation ids**: [`next_req_id`] allocates process-unique
//!   request ids. The serving layer enters the id around job execution
//!   (`ecl_gpusim::ctx`); the dispatch pool re-enters it on every
//!   worker claim, so every launch sample carries the right id on any
//!   OS thread.
//! * [`recorder`] — the **flight recorder**: an always-on, bounded
//!   black box of recent request summaries, with full kernel-span
//!   traces retained for recent requests and pinned for slow
//!   outliers.
//! * [`slo`] — the **SLO engine**: declarative per-algorithm latency
//!   and error objectives, multi-window burn rates, and an
//!   exemplar-bearing latency histogram that links Prometheus buckets
//!   back to `ReqId`s in the recorder.
//!
//! [`Obs`] ties them together. It is a simulator observer
//! (`ecl_gpusim::observe`) that wants the samples of launches issued
//! inside a request; the server that owns it attaches it to the
//! process default observer set, which every job's device starts from,
//! and hands it to the scheduler. Outside a request it asks a launch
//! for no sample, so the overhead noise-budget tests keep holding.

pub mod recorder;
pub mod slo;

use std::sync::atomic::{AtomicU64, Ordering};

use ecl_gpusim::observe::{Launch, Observer, Wants};
use ecl_profiling::LaunchSample;

pub use recorder::{
    FinishInfo, FlightRecorder, KernelSpan, PhaseSpan, RecorderConfig, RequestSummary, RequestTrace,
};
pub use slo::{parse_slo_spec, Objective, ObjectiveKind, SloEngine};

/// Allocates a fresh, process-unique request id (never 0, which means
/// "no request").
pub fn next_req_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The observability state of one server: the always-on flight
/// recorder plus an optional SLO engine.
pub struct Obs {
    /// The request flight recorder.
    pub recorder: FlightRecorder,
    /// The SLO engine, present when objectives were configured.
    pub slo: Option<SloEngine>,
}

impl Obs {
    /// An `Obs` with the given recorder bounds and optional SLO
    /// engine.
    pub fn new(recorder: RecorderConfig, slo: Option<SloEngine>) -> Obs {
        Obs { recorder: FlightRecorder::new(recorder), slo }
    }
}

impl Observer for Obs {
    fn wants(&self) -> Wants {
        Wants { request_samples: true, ..Wants::default() }
    }

    /// Routes a request-attributed launch into the flight recorder,
    /// which drops it unless that request is in flight here.
    fn launch_end(&self, _launch: &Launch<'_>, _tracked: bool, sample: Option<&LaunchSample>) {
        if let Some(sample) = sample.filter(|s| s.req != 0) {
            self.recorder.on_launch(sample.req, sample);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ecl_gpusim::ctx::CtxGuard;
    use ecl_gpusim::{launch_flat_named, Device, LaunchConfig};

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_req_id();
        let b = next_req_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn only_launches_of_an_in_flight_request_are_recorded() {
        let obs = Arc::new(Obs::new(RecorderConfig::default(), None));
        let d = Device::test_small();
        let attached = d.observe(obs.clone());
        let (req, stranger) = (next_req_id(), next_req_id());
        obs.recorder.begin(req, 1, "cc", "g");
        launch_flat_named(&d, "no-request", LaunchConfig::new(1, 1), |_| {});
        {
            let _g = CtxGuard::request(req);
            launch_flat_named(&d, "request", LaunchConfig::new(1, 1), |_| {});
        }
        {
            // Not in flight here: dropped by the recorder.
            let _g = CtxGuard::request(stranger);
            launch_flat_named(&d, "stranger", LaunchConfig::new(1, 1), |_| {});
        }
        drop(attached);
        let s = obs.recorder.finish(req, 1, "cc", "g", FinishInfo::default()).unwrap();
        assert_eq!(s.kernels, 1);
    }
}
