//! The collector as an observer: [`Collector`] implements
//! [`ecl_gpusim::observe::Observer`] and records the
//! [`LaunchSample`] every launch hands it.
//!
//! [`install`] / [`uninstall`] keep one collector in the process
//! default observer set ([`observe::defaults`]), which every device
//! created afterwards starts from: installing replaces the collector
//! installed before (it keeps its aggregates). With no observer that
//! wants samples, a launch skips both the timing instrumentation and
//! the sample allocation.

use std::sync::{Arc, Mutex};

use ecl_gpusim::observe::{self, Attached, Launch, Observer, Wants};
use ecl_profiling::LaunchSample;

use crate::collector::Collector;

static INSTALLED: Mutex<Option<(Attached<'static>, Arc<Collector>)>> = Mutex::new(None);

/// Installs `collector` in the process default set, replacing a
/// collector installed here before.
pub fn install(collector: Arc<Collector>) {
    let mut installed = INSTALLED.lock().unwrap_or_else(|e| e.into_inner());
    let attached = observe::defaults().attach(collector.clone());
    *installed = Some((attached, collector));
}

/// Uninstalls the collector and returns it for snapshotting.
pub fn uninstall() -> Option<Arc<Collector>> {
    INSTALLED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .map(|(_attached, collector)| collector)
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
