//! An epoch capture: every ring drained into one time-ordered event
//! list, with drop accounting and the interned string table.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::ring::ClockMode;

/// A drained capture of a [`crate::Tracer`]'s rings.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// All retained events, stably sorted by timestamp.
    pub events: Vec<Event>,
    /// Events lost to ring overwrites (oldest-first eviction).
    pub dropped_overwritten: u64,
    /// Events lost because every ring slot was already claimed.
    pub dropped_unslotted: u64,
    /// Number of ring slots that were claimed by recording threads.
    pub threads: u32,
    /// Interned strings; `PhaseStart`/`PhaseEnd` payloads index this.
    pub strings: Vec<String>,
    /// Timestamp source the capture was recorded with.
    pub clock: ClockMode,
}

impl Snapshot {
    /// Total events dropped, regardless of cause.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_overwritten + self.dropped_unslotted
    }

    /// The interned string behind `id`, if in range.
    pub fn string(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Event counts keyed by raw kind (unknown kinds included),
    /// ordered by wire value.
    pub fn kind_counts(&self) -> BTreeMap<u16, u64> {
        let mut counts = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Capture duration: last timestamp minus first (0 if < 2 events).
    pub fn span(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.ts - a.ts,
            _ => 0,
        }
    }

    /// Events of one kind, in time order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind.raw())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ring::{Tracer, TracerConfig};
    use ecl_gpusim::observe::Observer;

    fn capture() -> Snapshot {
        let t =
            Tracer::new(TracerConfig { slots: 2, events_per_slot: 64, clock: ClockMode::Logical });
        t.record(EventKind::KernelLaunch, 0, 0, 8);
        t.phase_start("compute");
        t.record(EventKind::AtomicUpdated, 3, 1, 0);
        t.record(EventKind::AtomicUpdated, 3, 2, 0);
        t.phase_end("compute");
        t.snapshot()
    }

    #[test]
    fn kind_counts_and_span() {
        let s = capture();
        let counts = s.kind_counts();
        assert_eq!(counts[&EventKind::AtomicUpdated.raw()], 2);
        assert_eq!(counts[&EventKind::KernelLaunch.raw()], 1);
        assert_eq!(s.span(), 4); // logical clock: ts 0..=4
        assert_eq!(s.of_kind(EventKind::AtomicUpdated).count(), 2);
    }

    #[test]
    fn string_lookup() {
        let s = capture();
        let start = s.of_kind(EventKind::PhaseStart).next().unwrap();
        assert_eq!(s.string(start.payload), Some("compute"));
        assert_eq!(s.string(999), None);
    }
}
