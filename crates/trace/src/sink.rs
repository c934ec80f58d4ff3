//! The global trace sink: the zero-cost-when-disabled hook that lets
//! the simulator and algorithm crates emit events without threading a
//! tracer handle through every signature.
//!
//! A `static` [`Sink<Tracer>`] — see [`ecl_profiling::sink`] for the
//! publish-and-retire protocol and its safety argument. Hot path
//! (`emit`, `is_enabled`): one relaxed `AtomicBool` load — when
//! tracing is off the compiler sees a never-taken branch and the cost
//! is indistinguishable from noise (the overhead benchmark and
//! `crates/bench/tests/trace_overhead.rs` hold this to account). When
//! on, one acquire pointer load then a lock-free ring write.

use std::sync::Arc;

use ecl_profiling::Sink;

use crate::event::EventKind;
use crate::ring::Tracer;

static SINK: Sink<Tracer> = Sink::new();

/// Installs `tracer` as the global sink and enables emission.
/// A previously installed tracer keeps its recorded events but stops
/// receiving new ones.
pub fn install(tracer: Arc<Tracer>) {
    SINK.install(tracer);
}

/// Stops emission and detaches the tracer, returning it so the caller
/// can snapshot.
pub fn uninstall() -> Option<Arc<Tracer>> {
    SINK.uninstall()
}

/// Whether `emit` currently records. The hot-path guard: a single
/// relaxed load.
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

#[inline(always)]
fn with_tracer(f: impl FnOnce(&Tracer)) {
    if let Some(t) = SINK.get() {
        f(t);
    }
}

/// Records one event into the installed tracer; a single branch when
/// tracing is disabled.
#[inline(always)]
pub fn emit(kind: EventKind, block: u32, lane: u16, payload: u32) {
    with_tracer(|t| t.record(kind, block, lane, payload));
}

/// Records a named phase start (interns on the cold path).
pub fn phase_start(name: &str) {
    with_tracer(|t| t.phase_start(name));
}

/// Records a named phase end.
pub fn phase_end(name: &str) {
    with_tracer(|t| t.phase_end(name));
}

/// Records a round boundary.
pub fn round(n: u32) {
    with_tracer(|t| t.round(n));
}

/// Runs `f` between `phase_start(name)` and `phase_end(name)`.
pub fn phase_span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    phase_start(name);
    let r = f();
    phase_end(name);
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ring::{ClockMode, TracerConfig};

    // Install/uninstall/replace live in `ecl_profiling::sink`'s test;
    // what is specific here is that events reach the installed tracer
    // in emission order, and only while it is installed.
    #[test]
    fn emits_reach_the_installed_tracer_in_order() {
        emit(EventKind::Marker, 0, 0, 1); // no sink: must be a no-op

        let t = Arc::new(Tracer::new(TracerConfig {
            slots: 4,
            events_per_slot: 64,
            clock: ClockMode::Logical,
        }));
        install(Arc::clone(&t));
        assert!(is_enabled());
        emit(EventKind::Marker, 0, 0, 2);
        phase_span("p", || emit(EventKind::AtomicUpdated, 1, 0, 0));
        round(3);
        emit(EventKind::Marker, 0, 0, 4);

        let back = uninstall().expect("tracer was installed");
        assert!(Arc::ptr_eq(&back, &t));
        emit(EventKind::Marker, 0, 0, 100); // detached: no-op

        let s = back.snapshot();
        let kinds: Vec<u16> = s.events.iter().map(|e| e.kind).collect();
        let expect = [
            EventKind::Marker,
            EventKind::PhaseStart,
            EventKind::AtomicUpdated,
            EventKind::PhaseEnd,
            EventKind::Round,
            EventKind::Marker,
        ];
        assert_eq!(kinds, expect.map(EventKind::raw));
        assert_eq!(s.of_kind(EventKind::Marker).map(|e| e.payload).collect::<Vec<_>>(), [2, 4]);
        assert_eq!(s.of_kind(EventKind::Round).next().unwrap().payload, 3);
    }
}
