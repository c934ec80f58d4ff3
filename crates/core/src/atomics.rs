//! Atomic-update outcome tracking (§3.1.5).
//!
//! The paper distinguishes two kinds of atomics and their outcomes:
//!
//! - specialized atomics (`atomicMin` / `atomicMax`) "always execute
//!   successfully ... but they may not update the target value" — the
//!   interesting outcome is whether the operation was **effective**;
//! - `atomicCAS` "may fail if the target value does not match the
//!   expected value" — the interesting outcome is **success vs.
//!   failure**.
//!
//! [`AtomicTally`] accumulates attempted / succeeded / effective counts;
//! the MST figure's "useless atomics" metric is
//! [`AtomicTally::useless`].

use crate::counter::GlobalCounter;

/// The outcome of one atomic operation, as classified by the counted
/// atomic wrappers in `ecl-gpusim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOutcome {
    /// `atomicCAS` found the expected value and swapped (or a min/max
    /// actually lowered/raised the target).
    Updated,
    /// `atomicMin`/`atomicMax` completed but left the target unchanged.
    NoEffect,
    /// `atomicCAS` found a different value than expected.
    CasFailed,
}

impl AtomicOutcome {
    /// Whether the operation changed the target.
    #[inline]
    pub fn updated(self) -> bool {
        matches!(self, AtomicOutcome::Updated)
    }

    /// Whether the operation was "useless" in the paper's sense
    /// ("atomicCAS failures and atomicMin operations with no effect",
    /// §6.1.4).
    #[inline]
    pub fn useless(self) -> bool {
        !self.updated()
    }
}

/// Cumulative tallies of atomic outcomes.
#[derive(Debug, Default)]
pub struct AtomicTally {
    attempted: GlobalCounter,
    updated: GlobalCounter,
    no_effect: GlobalCounter,
    cas_failed: GlobalCounter,
}

impl AtomicTally {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outcome.
    #[inline]
    pub fn record(&self, outcome: AtomicOutcome) {
        self.record_many(outcome, 1);
    }

    /// Records `k` outcomes of the same kind at once. Hot loops that
    /// classify outcomes locally (e.g. a block-local edge sweep) use
    /// this to avoid per-operation contention on the shared tallies.
    #[inline]
    pub fn record_many(&self, outcome: AtomicOutcome, k: u64) {
        if k == 0 {
            return;
        }
        self.attempted.add(k);
        match outcome {
            AtomicOutcome::Updated => self.updated.add(k),
            AtomicOutcome::NoEffect => self.no_effect.add(k),
            AtomicOutcome::CasFailed => self.cas_failed.add(k),
        }
    }

    /// Total operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    /// Operations that changed the target.
    pub fn updated(&self) -> u64 {
        self.updated.get()
    }

    /// Min/max operations that left the target unchanged.
    pub fn no_effect(&self) -> u64 {
        self.no_effect.get()
    }

    /// Failed compare-and-swap attempts.
    pub fn cas_failed(&self) -> u64 {
        self.cas_failed.get()
    }

    /// "Useless atomics": failures plus no-effect operations.
    pub fn useless(&self) -> u64 {
        self.no_effect() + self.cas_failed()
    }

    /// Fraction of attempted operations that were useless; 0 when
    /// nothing was attempted.
    pub fn useless_fraction(&self) -> f64 {
        let a = self.attempted();
        if a == 0 {
            0.0
        } else {
            self.useless() as f64 / a as f64
        }
    }

    /// Resets all tallies (requires exclusive access).
    pub fn reset(&mut self) {
        self.attempted.reset();
        self.updated.reset();
        self.no_effect.reset();
        self.cas_failed.reset();
    }
}

impl Clone for AtomicTally {
    fn clone(&self) -> Self {
        Self {
            attempted: self.attempted.clone(),
            updated: self.updated.clone(),
            no_effect: self.no_effect.clone(),
            cas_failed: self.cas_failed.clone(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        assert!(AtomicOutcome::Updated.updated());
        assert!(!AtomicOutcome::Updated.useless());
        assert!(AtomicOutcome::NoEffect.useless());
        assert!(AtomicOutcome::CasFailed.useless());
    }

    #[test]
    fn tally_accumulates_by_kind() {
        let t = AtomicTally::new();
        t.record(AtomicOutcome::Updated);
        t.record(AtomicOutcome::Updated);
        t.record(AtomicOutcome::NoEffect);
        t.record(AtomicOutcome::CasFailed);
        assert_eq!(t.attempted(), 4);
        assert_eq!(t.updated(), 2);
        assert_eq!(t.no_effect(), 1);
        assert_eq!(t.cas_failed(), 1);
        assert_eq!(t.useless(), 2);
        assert!((t.useless_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_fractions_are_zero() {
        let t = AtomicTally::new();
        assert_eq!(t.useless_fraction(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = AtomicTally::new();
        t.record(AtomicOutcome::CasFailed);
        t.reset();
        assert_eq!(t.attempted(), 0);
        assert_eq!(t.useless(), 0);
    }

    #[test]
    fn concurrent_recording() {
        let t = AtomicTally::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..300 {
                        t.record(if i % 3 == 0 {
                            AtomicOutcome::Updated
                        } else {
                            AtomicOutcome::CasFailed
                        });
                    }
                });
            }
        });
        assert_eq!(t.attempted(), 1200);
        assert_eq!(t.updated(), 400);
        assert_eq!(t.cas_failed(), 800);
    }
}
