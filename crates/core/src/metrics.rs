//! The paper's general metrics (§3.1) built on the raw counters.

use crate::counter::GlobalCounter;
use crate::stats::Summary;

/// The max/avg imbalance factor over an already-computed [`Summary`],
/// guarded against the degenerate launches a self-profiling run hits
/// routinely (empty grids, zero-work kernels): any summary whose
/// average is non-positive or non-finite yields 0 instead of NaN/inf.
pub fn imbalance_from_summary(s: &Summary) -> f64 {
    if !(s.avg.is_finite() && s.avg > 0.0) {
        return 0.0;
    }
    let f = s.max / s.avg;
    if f.is_finite() {
        f
    } else {
        0.0
    }
}

/// Idle/active thread tracking (§3.1.3–3.1.4). A thread is *idle* when
/// it was launched but either had no element assigned (last-block
/// remainder) or its element failed the work condition.
#[derive(Debug, Default)]
pub struct ActivityTally {
    active: GlobalCounter,
    idle_unassigned: GlobalCounter,
    idle_no_work: GlobalCounter,
}

impl ActivityTally {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a thread that actively computed.
    #[inline]
    pub fn record_active(&self) {
        self.active.inc();
    }

    /// Records a launched thread with no assigned element ("some of the
    /// threads in the last block may not have any work assigned").
    #[inline]
    pub fn record_idle_unassigned(&self) {
        self.idle_unassigned.inc();
    }

    /// Records a thread whose element did not fulfill the work
    /// condition ("the assigned thread may not have to do anything").
    #[inline]
    pub fn record_idle_no_work(&self) {
        self.idle_no_work.inc();
    }

    /// Threads that computed.
    pub fn active(&self) -> u64 {
        self.active.get()
    }

    /// Idle threads of both kinds.
    pub fn idle(&self) -> u64 {
        self.idle_unassigned.get() + self.idle_no_work.get()
    }

    /// All launched threads recorded.
    pub fn launched(&self) -> u64 {
        self.active() + self.idle()
    }

    /// Resets all tallies (requires exclusive access).
    pub fn reset(&mut self) {
        self.active.reset();
        self.idle_unassigned.reset();
        self.idle_no_work.reset();
    }
}

impl Clone for ActivityTally {
    fn clone(&self) -> Self {
        Self {
            active: self.active.clone(),
            idle_unassigned: self.idle_unassigned.clone(),
            idle_no_work: self.idle_no_work.clone(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_from_summary_guards_degenerate_inputs() {
        use crate::stats::Summary;
        let zero = Summary::of_u64(&[]);
        assert_eq!(imbalance_from_summary(&zero), 0.0);
        let nan = Summary { count: 1, sum: f64::NAN, avg: f64::NAN, max: 1.0, min: 0.0, std: 0.0 };
        assert_eq!(imbalance_from_summary(&nan), 0.0);
        let inf_max =
            Summary { count: 1, sum: 1.0, avg: 1.0, max: f64::INFINITY, min: 0.0, std: 0.0 };
        assert_eq!(imbalance_from_summary(&inf_max), 0.0);
        let ok = Summary::of_u64(&[10, 30]);
        assert!((imbalance_from_summary(&ok) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn activity_counts() {
        let a = ActivityTally::new();
        for _ in 0..3 {
            a.record_active();
        }
        a.record_idle_unassigned();
        for _ in 0..6 {
            a.record_idle_no_work();
        }
        assert_eq!(a.launched(), 10);
        assert_eq!(a.active(), 3);
        assert_eq!(a.idle(), 7);
    }

    #[test]
    fn activity_empty() {
        let a = ActivityTally::new();
        assert_eq!(a.launched(), 0);
    }

    #[test]
    fn activity_reset() {
        let mut a = ActivityTally::new();
        a.record_active();
        a.record_idle_no_work();
        a.reset();
        assert_eq!(a.launched(), 0);
    }
}
