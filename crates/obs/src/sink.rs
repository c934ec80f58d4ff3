//! The global observability sink: the zero-cost-when-disabled hook
//! that routes request-attributed launch samples into the installed
//! [`Obs`] (flight recorder + SLO engine).
//!
//! A `static` [`Sink<Obs>`] — see [`ecl_profiling::sink`] for the
//! publish-and-retire protocol; the hot-path guard is one relaxed
//! `AtomicBool` load.

use std::sync::Arc;

use ecl_profiling::{LaunchSample, Sink};

use crate::recorder::{FlightRecorder, RecorderConfig};
use crate::slo::SloEngine;

/// The installed observability state: the always-on flight recorder
/// plus an optional SLO engine.
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

static SINK: Sink<Obs> = Sink::new();

/// Installs `obs` as the global sink and enables attribution.
pub fn install(obs: Arc<Obs>) {
    SINK.install(obs);
}

/// Disables attribution and detaches the handle, returning it.
pub fn uninstall() -> Option<Arc<Obs>> {
    SINK.uninstall()
}

/// Whether an `Obs` is installed — the hot-path guard the launch
/// layer reads once per launch.
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

/// Whether the launch layer should build a sample for the obs sink:
/// installed *and* the calling thread is working for a request.
#[inline(always)]
pub fn wants_samples() -> bool {
    is_enabled() && crate::ctx::current() != 0
}

/// Runs `f` against the installed `Obs`, if any.
#[inline]
pub fn with<R>(f: impl FnOnce(&Obs) -> R) -> Option<R> {
    SINK.get().map(f)
}

/// Routes one request-attributed launch sample into the flight
/// recorder. Samples with `req == 0` (no request context) are skipped.
pub fn on_launch(sample: &LaunchSample) {
    if sample.req == 0 {
        return;
    }
    with(|obs| obs.recorder.on_launch(sample.req, sample));
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample(req: u64) -> LaunchSample {
        LaunchSample {
            kernel: "k".into(),
            shape: "flat",
            blocks: 2,
            block_size: 32,
            wall_ns: 10,
            workers: Vec::new(),
            req,
            shard: 0,
        }
    }

    // Install/uninstall/replace live in `ecl_profiling::sink`'s test;
    // what is specific here is the request gating.
    #[test]
    fn samples_are_wanted_and_routed_only_for_requests() {
        on_launch(&sample(1)); // no sink: no-op

        let obs = Arc::new(Obs::new(RecorderConfig::default(), None));
        install(Arc::clone(&obs));
        // wants_samples needs a request context too.
        assert!(!wants_samples());
        {
            let _g = crate::ctx::CtxGuard::enter(5);
            assert!(wants_samples());
        }

        obs.recorder.begin(5, 1, "cc", "g");
        on_launch(&sample(5));
        on_launch(&sample(0)); // no request: skipped
        on_launch(&sample(6)); // not in flight: dropped by the recorder
        let s =
            obs.recorder.finish(5, 1, "cc", "g", crate::recorder::FinishInfo::default()).unwrap();
        assert_eq!(s.kernels, 1);

        uninstall();
        assert!(!wants_samples());
        assert!(with(|_| ()).is_none());
    }
}
