//! The global profiling sink: the zero-cost-when-disabled hook the
//! simulator's launch and pool code reports into.
//!
//! A `static` [`Sink<Collector>`] — see [`ecl_profiling::sink`] for
//! the publish-and-retire protocol. The hot-path guard
//! ([`is_enabled`]) is one relaxed `AtomicBool` load, so a launch on
//! the disabled path pays a single never-taken branch and skips both
//! the timing instrumentation and the sample allocation entirely.

use std::sync::Arc;

use ecl_profiling::Sink;

use crate::collector::Collector;
use ecl_profiling::LaunchSample;

static SINK: Sink<Collector> = Sink::new();

/// Installs `collector` as the global sink and enables profiling. A
/// previously installed collector keeps its aggregates but stops
/// receiving launches.
pub fn install(collector: Arc<Collector>) {
    SINK.install(collector);
}

/// Stops profiling and detaches the collector, returning it for
/// snapshotting.
pub fn uninstall() -> Option<Arc<Collector>> {
    SINK.uninstall()
}

/// Whether launches are currently profiled — the hot-path guard the
/// simulator reads once per launch (not per thread or block).
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

/// Records one completed launch into the installed collector. Callers
/// should build the sample only after checking [`is_enabled`]; this
/// re-checks in case of a concurrent uninstall.
pub fn on_launch(sample: &LaunchSample) {
    if let Some(collector) = SINK.get() {
        collector.record(sample);
    }
}
