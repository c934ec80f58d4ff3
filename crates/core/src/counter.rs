//! The two counter granularities of §3: thread-local and global.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::Summary;
use crate::stripe::Striped;
use crate::{LogSketch, SketchSnapshot, Table};

/// One named counter a run reports, read after the run — the paper's
/// three shapes, plus a modeled time. Each kernel crate's result lists
/// its own as `(<algo>/<name>, Counter)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub enum Counter {
    /// A global count (e.g. CAS attempts).
    Count(u64),
    /// A distribution over threads, vertices or launches.
    Sketch(SketchSnapshot),
    /// A per-iteration or per-block series (Figures 1 and 2).
    Table(Table),
    /// A modeled time in cost units, kept exact (printed to whole units).
    Time(f64),
}

/// Whether profiling counters record anything.
///
/// The paper notes that instrumenting code perturbs its timing (§3);
/// `Off` lets the same instrumented source run with counters compiled
/// to no-ops so the perturbation can be measured (see the
/// `bench_profiling_overhead` benchmark).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// Record all counter events.
    #[default]
    On,
    /// Ignore all counter events (near-zero overhead).
    Off,
}

impl ProfileMode {
    /// True when counters record.
    #[inline]
    pub fn enabled(self) -> bool {
        matches!(self, ProfileMode::On)
    }
}

/// A single cumulative counter shared by all threads ("a global counter
/// shows the total number of times an event occurred across all
/// threads", §3).
///
/// Striped per OS thread (see [`crate::stripe`]): an increment is a
/// plain add on the cache line the calling thread owns, the total is
/// the sum over stripes — the paper's thread-local counters reduced at
/// the end, behind a shared-counter interface.
#[derive(Debug, Default)]
pub struct GlobalCounter {
    stripes: Striped<AtomicU64>,
}

impl GlobalCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `k` events: a plain add on the calling thread's own
    /// stripe. Relaxed ordering: counts are aggregated only after the
    /// parallel region joins, which provides the necessary
    /// happens-before edge.
    #[inline]
    pub fn add(&self, k: u64) {
        let (stripe, writer) = self.stripes.local();
        writer.add(stripe, k);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.stripes.iter().fold(0, |acc, s| acc.wrapping_add(s.load(Ordering::Relaxed)))
    }

    /// Resets to zero (requires exclusive access, so it cannot race
    /// with concurrent increments).
    pub fn reset(&mut self) {
        for s in self.stripes.iter_mut() {
            *s.get_mut() = 0;
        }
    }
}

impl Clone for GlobalCounter {
    fn clone(&self) -> Self {
        let c = Self::new();
        c.add(self.get());
        c
    }
}

/// One counter slot per (simulated) thread ("the thread-local counters
/// show the number of times a specific event occurred for each
/// thread", §3).
///
/// Each slot is an `AtomicU64`, but by construction only the pool
/// worker currently executing that simulated thread increments it, so
/// there is no contention; atomics are needed only to satisfy the
/// aliasing rules of sharing the slice across workers.
#[derive(Debug)]
pub struct PerThreadCounter {
    slots: Box<[AtomicU64]>,
}

impl PerThreadCounter {
    /// A counter with `num_threads` zeroed slots.
    pub fn new(num_threads: usize) -> Self {
        let mut v = Vec::with_capacity(num_threads);
        v.resize_with(num_threads, AtomicU64::default);
        Self { slots: v.into_boxed_slice() }
    }

    /// Number of slots.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.slots.len()
    }

    /// Adds one event for thread `tid`.
    #[inline]
    pub fn inc(&self, tid: usize) {
        self.add(tid, 1);
    }

    /// Adds `k` events for thread `tid`.
    #[inline]
    pub fn add(&self, tid: usize, k: u64) {
        self.slots[tid].fetch_add(k, Ordering::Relaxed);
    }

    /// Current count of thread `tid`.
    #[inline]
    pub fn get(&self, tid: usize) -> u64 {
        self.slots[tid].load(Ordering::Relaxed)
    }

    /// Copies all slots out.
    pub fn values(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
    }

    /// Sum over all threads (the global view of a thread-local counter).
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Average / max / min / stddev over all thread slots, the form in
    /// which the paper reports per-thread metrics (Tables 2, 3, 5).
    pub fn summary(&self) -> Summary {
        Summary::of_u64(&self.values())
    }

    /// The distribution of the slots whose index `keep` admits.
    pub fn sketch(&self, keep: impl Fn(usize) -> bool) -> SketchSnapshot {
        let sketch = LogSketch::new();
        for (i, v) in self.values().into_iter().enumerate() {
            if keep(i) {
                sketch.record(v);
            }
        }
        sketch.snapshot()
    }

    /// Resets all slots to zero (requires exclusive access).
    pub fn reset(&mut self) {
        for s in self.slots.iter_mut() {
            *s.get_mut() = 0;
        }
    }
}

impl Clone for PerThreadCounter {
    fn clone(&self) -> Self {
        let slots: Vec<AtomicU64> = self.values().into_iter().map(AtomicU64::new).collect();
        Self { slots: slots.into_boxed_slice() }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stripe::STRIPES;

    #[test]
    fn global_counter_accumulates() {
        let c = GlobalCounter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn global_counter_reset() {
        let mut c = GlobalCounter::new();
        c.add(9);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn global_counter_concurrent() {
        // More OS threads than stripes: some share a stripe, none
        // loses an increment.
        let threads = 3 * STRIPES;
        let c = GlobalCounter::new();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads as u64 * 10_000);
    }

    #[test]
    fn per_thread_slots_independent() {
        let c = PerThreadCounter::new(4);
        c.inc(0);
        c.add(2, 10);
        assert_eq!(c.get(0), 1);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.get(2), 10);
        assert_eq!(c.total(), 11);
        assert_eq!(c.values(), vec![1, 0, 10, 0]);
    }

    #[test]
    fn per_thread_summary() {
        let c = PerThreadCounter::new(4);
        for (tid, k) in [(0, 1), (1, 2), (2, 3), (3, 6)] {
            c.add(tid, k);
        }
        let s = c.summary();
        assert_eq!(s.max, 6.0);
        assert_eq!(s.min, 1.0);
        assert!((s.avg - 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_thread_concurrent_disjoint_slots() {
        let c = PerThreadCounter::new(8);
        std::thread::scope(|s| {
            for tid in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..500 {
                        c.inc(tid);
                    }
                });
            }
        });
        assert!(c.values().iter().all(|&v| v == 500));
    }

    #[test]
    fn per_thread_reset() {
        let mut c = PerThreadCounter::new(2);
        c.add(1, 5);
        c.reset();
        assert_eq!(c.total(), 0);
    }

    #[test]
    #[should_panic]
    fn per_thread_out_of_range_panics() {
        PerThreadCounter::new(2).inc(2);
    }

    #[test]
    fn clone_snapshots_values() {
        let c = GlobalCounter::new();
        c.add(3);
        let d = c.clone();
        c.add(1);
        assert_eq!(d.get(), 3);
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn mode_flags() {
        assert!(ProfileMode::On.enabled());
        assert!(!ProfileMode::Off.enabled());
        assert_eq!(ProfileMode::default(), ProfileMode::On);
    }
}
