//! The collector as an observer: [`Collector`] implements
//! [`ecl_gpusim::observe::Observer`] and records the
//! [`LaunchSample`] every launch hands it.
//!
//! [`install`] / [`uninstall`] keep one collector in the simulator's
//! observer slot at a time: installing replaces the collector
//! installed before (it keeps its aggregates). With no observer that
//! wants samples, a launch skips both the timing instrumentation and
//! the sample allocation.

use std::sync::Arc;

use ecl_gpusim::observe::{Exclusive, Launch, Observer, Wants};
use ecl_profiling::LaunchSample;

use crate::collector::Collector;

static INSTALLED: Exclusive<Collector> = Exclusive::new();

/// Installs `collector` in the observer slot, replacing a collector
/// installed here before.
pub fn install(collector: Arc<Collector>) {
    INSTALLED.install(collector);
}

/// Uninstalls the collector and returns it for snapshotting.
pub fn uninstall() -> Option<Arc<Collector>> {
    INSTALLED.uninstall()
}

impl Observer for Collector {
    fn wants(&self) -> Wants {
        Wants { samples: true, ..Wants::default() }
    }

    fn launch_end(&self, _launch: &Launch<'_>, _tracked: bool, sample: Option<&LaunchSample>) {
        if let Some(sample) = sample {
            self.record(sample);
        }
    }
}
