//! The recording core: fixed-capacity per-thread ring buffers written
//! lock-free through thread-local slot handles.
//!
//! Every OS thread that records claims one ring slot per tracer (a
//! single `fetch_add`, cached in a thread-local afterwards) and is
//! then the ring's *only* writer: a record is a timestamp read, three
//! relaxed stores, and one release store of the head — no locks, no
//! allocation, no waiting. When a ring is full the oldest events are
//! overwritten and counted as dropped, so a hot kernel can never be
//! stalled by its own instrumentation (the §3 perturbation caveat the
//! paper makes about manual instrumentation).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, EventKind};
use crate::snapshot::Snapshot;

/// Timestamp source of a capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Monotonic wall clock, nanoseconds since the tracer was built.
    Wall,
    /// A global atomic sequence number: deterministic total order,
    /// immune to timer resolution — the mode tests use.
    Logical,
}

impl ClockMode {
    /// Wire value in the `.etr` header.
    pub fn raw(self) -> u16 {
        match self {
            ClockMode::Wall => 0,
            ClockMode::Logical => 1,
        }
    }

    /// Decodes a wire value.
    pub fn from_raw(v: u16) -> Option<ClockMode> {
        match v {
            0 => Some(ClockMode::Wall),
            1 => Some(ClockMode::Logical),
            _ => None,
        }
    }
}

/// Sizing and clocking of a [`Tracer`].
#[derive(Clone, Copy, Debug)]
pub struct TracerConfig {
    /// Ring slots (max distinct recording OS threads).
    pub slots: usize,
    /// Events retained per slot; older events are overwritten.
    pub events_per_slot: usize,
    /// Timestamp source.
    pub clock: ClockMode,
}

impl Default for TracerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        // 2x cores covers the main thread plus pool churn; 16Ki events
        // x 24 B x slots keeps default captures in the tens of MB.
        Self { slots: (2 * cores).clamp(8, 64), events_per_slot: 1 << 14, clock: ClockMode::Wall }
    }
}

/// One thread's ring. `head` counts events ever written; the
/// retained window is the last `capacity` of them. Only the owning
/// thread stores into `words`, so relaxed stores plus a release head
/// update give snapshots a consistent view.
struct ThreadRing {
    words: Box<[AtomicU64]>,
    head: AtomicU64,
}

impl ThreadRing {
    fn new(capacity: usize) -> Self {
        let words = (0..capacity * 3).map(|_| AtomicU64::new(0)).collect();
        Self { words, head: AtomicU64::new(0) }
    }

    fn capacity(&self) -> u64 {
        (self.words.len() / 3) as u64
    }

    #[inline]
    fn push(&self, ts: u64, w1: u64, w2: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let base = ((head % self.capacity()) as usize) * 3;
        self.words[base].store(ts, Ordering::Relaxed);
        self.words[base + 1].store(w1, Ordering::Relaxed);
        self.words[base + 2].store(w2, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Drains the retained window, oldest first, attaching `slot` as
    /// the thread id. Returns `(events, overwritten)`.
    fn drain(&self, slot: u32) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let kept = head.min(self.capacity());
        let overwritten = head - kept;
        let mut events = Vec::with_capacity(kept as usize);
        for i in (head - kept)..head {
            let base = ((i % self.capacity()) as usize) * 3;
            events.push(Event::unpack_words(
                self.words[base].load(Ordering::Relaxed),
                self.words[base + 1].load(Ordering::Relaxed),
                self.words[base + 2].load(Ordering::Relaxed),
                slot,
            ));
        }
        (events, overwritten)
    }
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (tracer id, claimed slot) — `usize::MAX` slot means "this
    /// tracer has no room for this thread" and is also cached, so a
    /// slotless thread pays one load per event, not one claim.
    static SLOT: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };
}

/// An event recorder: a set of per-thread rings plus a string table
/// for phase names.
pub struct Tracer {
    id: u64,
    clock: ClockMode,
    start: Instant,
    logical: AtomicU64,
    rings: Box<[ThreadRing]>,
    next_slot: AtomicUsize,
    /// Events dropped because every ring slot was claimed.
    unslotted: AtomicU64,
    /// Interned phase names (payloads of Phase* events index this).
    strings: Mutex<Vec<String>>,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(cfg: TracerConfig) -> Self {
        assert!(cfg.slots > 0 && cfg.events_per_slot > 0, "tracer must have capacity");
        Self {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            clock: cfg.clock,
            start: Instant::now(),
            logical: AtomicU64::new(0),
            rings: (0..cfg.slots).map(|_| ThreadRing::new(cfg.events_per_slot)).collect(),
            next_slot: AtomicUsize::new(0),
            unslotted: AtomicU64::new(0),
            strings: Mutex::new(Vec::new()),
        }
    }

    /// A tracer with default sizing and the given clock.
    pub fn with_clock(clock: ClockMode) -> Self {
        Self::new(TracerConfig { clock, ..TracerConfig::default() })
    }

    /// The capture's clock mode.
    pub fn clock(&self) -> ClockMode {
        self.clock
    }

    #[inline]
    fn now(&self) -> u64 {
        match self.clock {
            ClockMode::Wall => self.start.elapsed().as_nanos() as u64,
            ClockMode::Logical => self.logical.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Claims (or retrieves) this thread's ring slot. Returns
    /// `usize::MAX` when all slots are taken.
    #[inline]
    fn slot(&self) -> usize {
        let (tid, idx) = SLOT.get();
        if tid == self.id {
            return idx;
        }
        let idx = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let idx = if idx < self.rings.len() { idx } else { usize::MAX };
        SLOT.set((self.id, idx));
        idx
    }

    /// Records one event. Lock-free and allocation-free: a timestamp
    /// read, a thread-local hit, three relaxed stores.
    #[inline]
    pub fn record(&self, kind: EventKind, block: u32, lane: u16, payload: u32) {
        let slot = self.slot();
        if slot == usize::MAX {
            self.unslotted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (w1, w2) = Event::pack_words(kind.raw(), block, lane, payload);
        self.rings[slot].push(self.now(), w1, w2);
    }

    /// Interns `name`, returning the string id Phase* payloads carry.
    /// Takes a lock — call from host-side phase boundaries, not from
    /// per-element kernel code.
    pub fn intern(&self, name: &str) -> u32 {
        let mut strings = self.strings.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = strings.iter().position(|s| s == name) {
            return i as u32;
        }
        strings.push(name.to_string());
        (strings.len() - 1) as u32
    }

    /// Events dropped because no ring slot was free.
    pub fn dropped_unslotted(&self) -> u64 {
        self.unslotted.load(Ordering::Relaxed)
    }

    /// Drains every ring into a time-ordered capture. Recording may
    /// continue concurrently; the snapshot sees each ring's state at
    /// its own drain point (an *epoch*, not a global barrier — call
    /// between launches for an exact capture).
    pub fn snapshot(&self) -> Snapshot {
        let claimed = self.next_slot.load(Ordering::Relaxed).min(self.rings.len());
        let mut events = Vec::new();
        let mut overwritten = 0;
        for (slot, ring) in self.rings.iter().enumerate().take(claimed) {
            let (mut ring_events, ring_overwritten) = ring.drain(slot as u32);
            events.append(&mut ring_events);
            overwritten += ring_overwritten;
        }
        // Stable by timestamp: per-ring order (already time-ordered
        // within a thread) breaks ties.
        events.sort_by_key(|e| e.ts);
        Snapshot {
            events,
            dropped_overwritten: overwritten,
            dropped_unslotted: self.dropped_unslotted(),
            threads: claimed as u32,
            strings: self.strings.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            clock: self.clock,
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("slots", &self.rings.len())
            .field("events_per_slot", &(self.rings.first().map_or(0, |r| r.capacity())))
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::observe::Observer;

    fn logical(slots: usize, per_slot: usize) -> Tracer {
        Tracer::new(TracerConfig { slots, events_per_slot: per_slot, clock: ClockMode::Logical })
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let t = logical(4, 64);
        t.record(EventKind::KernelLaunch, 0, 0, 3);
        t.record(EventKind::BlockStart, 1, 0, 32);
        t.record(EventKind::BlockEnd, 1, 0, 32);
        let s = t.snapshot();
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.events[0].kind(), Some(EventKind::KernelLaunch));
        assert_eq!(s.events[0].payload, 3);
        assert!(s.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(s.dropped_overwritten, 0);
        assert_eq!(s.dropped_unslotted, 0);
    }

    #[test]
    fn overwrite_oldest_counts_drops() {
        let t = logical(1, 8);
        for i in 0..20u32 {
            t.record(EventKind::Marker, 0, 0, i);
        }
        let s = t.snapshot();
        assert_eq!(s.events.len(), 8);
        assert_eq!(s.dropped_overwritten, 12);
        // The retained window is the *newest* 8 events.
        let payloads: Vec<u32> = s.events.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, (12..20).collect::<Vec<u32>>());
    }

    #[test]
    fn slotless_threads_count_drops_without_blocking() {
        let t = logical(1, 8);
        t.record(EventKind::Marker, 0, 0, 0); // claims the only slot
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..5 {
                    t.record(EventKind::Marker, 0, 0, i);
                }
            });
        });
        let s = t.snapshot();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.dropped_unslotted, 5);
    }

    #[test]
    fn concurrent_recording_loses_nothing_with_room() {
        let t = logical(8, 4096);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1000 {
                        t.record(EventKind::Marker, w, 0, i);
                    }
                });
            }
        });
        let s = t.snapshot();
        assert_eq!(s.events.len(), 4000);
        assert_eq!(s.dropped_overwritten + s.dropped_unslotted, 0);
        // Logical clock: all timestamps distinct, totally ordered.
        for w in s.events.windows(2) {
            assert!(w[0].ts < w[1].ts);
        }
    }

    #[test]
    fn per_thread_order_is_preserved() {
        let t = logical(8, 4096);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..500 {
                        t.record(EventKind::Marker, 0, 0, i);
                    }
                });
            }
        });
        let s = t.snapshot();
        // Within each thread the payload sequence must be 0..500.
        for thread in 0..4 {
            let seq: Vec<u32> =
                s.events.iter().filter(|e| e.thread == thread).map(|e| e.payload).collect();
            if !seq.is_empty() {
                assert_eq!(seq, (0..500).collect::<Vec<u32>>());
            }
        }
    }

    #[test]
    fn interning_dedupes() {
        let t = logical(2, 16);
        let a = t.intern("hook");
        let b = t.intern("jump");
        let c = t.intern("hook");
        assert_eq!(a, c);
        assert_ne!(a, b);
        t.phase_start("hook");
        t.phase_end("hook");
        let s = t.snapshot();
        assert_eq!(s.strings, vec!["hook".to_string(), "jump".to_string()]);
        assert_eq!(s.events[0].payload, a);
    }

    #[test]
    fn wall_clock_is_monotonic_per_thread() {
        let t = Tracer::new(TracerConfig { slots: 2, events_per_slot: 64, clock: ClockMode::Wall });
        for i in 0..10 {
            t.record(EventKind::Marker, 0, 0, i);
        }
        let s = t.snapshot();
        assert!(s.events.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        Tracer::new(TracerConfig { slots: 0, events_per_slot: 8, clock: ClockMode::Logical });
    }
}
