//! Per-OS-thread striping: the one primitive
//! [`GlobalCounter`](crate::GlobalCounter) and
//! [`LogSketch`](crate::LogSketch) are built on, so a write from a
//! simulated thread lands in memory only the executing OS thread
//! writes.
//!
//! A `Striped<T>` is `STRIPES` owned copies of `T` plus one shared
//! overflow copy, each on its own cache line(s). An OS thread **owns**
//! a stripe index: on its first write it claims the lowest free bit of
//! a process-wide bitmap word ([`claim`]), and a thread-local's `Drop`
//! gives the bit back ([`release`]) when the thread exits. Only the
//! owner writes its stripe, so a write there is a relaxed load and a
//! relaxed store — no locked RMW, no fence. Readers reduce over
//! `Striped::iter` after the parallel region joins, which orders
//! every owner's stores before the read. The claim is an `Acquire`
//! CAS and the release a `Release` CAS, so a stripe's next owner is
//! ordered after everything its last owner wrote.
//!
//! A thread that finds every index taken (more than `STRIPES` live
//! writers), or that first writes during its own thread-local
//! teardown, writes the overflow slot for the rest of its life, with
//! atomic RMWs: writers there trade a cache line and lose nothing.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Owned stripes per striped value. The default pool runs one worker
/// per core next to the submitting thread; eight owners cover the
/// hosts the suite is measured on, and with the overflow slot keep a
/// counter at 576 bytes.
pub const STRIPES: usize = 8;

/// The shared slot of threads that own no stripe.
const OVERFLOW: usize = STRIPES;

const UNASSIGNED: usize = usize::MAX;

/// Bit `i` set: a live thread owns stripe index `i`.
static CLAIMED: AtomicU64 = AtomicU64::new(0);

/// The index a thread claims from the bitmap word `claimed` — its
/// lowest clear bit — and the word with that bit set; `None` when all
/// `STRIPES` indices are owned.
pub fn claim(claimed: u64) -> Option<(usize, u64)> {
    let i = (!claimed).trailing_zeros() as usize;
    (i < STRIPES).then(|| (i, claimed | 1 << i))
}

/// The bitmap word `claimed` with the owned index `i` free again.
pub fn release(claimed: u64, i: usize) -> u64 {
    claimed & !(1 << i)
}

/// A claimed index; dropping it (at thread exit) releases it.
struct Owner(usize);

impl Drop for Owner {
    fn drop(&mut self) {
        // Writes from later thread-local destructors share the
        // overflow slot: this thread no longer owns a stripe.
        INDEX.set(OVERFLOW);
        let i = self.0;
        let _ = CLAIMED.fetch_update(Ordering::Release, Ordering::Relaxed, |w| Some(release(w, i)));
    }
}

thread_local! {
    static INDEX: Cell<usize> = const { Cell::new(UNASSIGNED) };
    static OWNER: Cell<Option<Owner>> = const { Cell::new(None) };
}

/// The calling OS thread's slot index: owned below `STRIPES`,
/// `OVERFLOW` otherwise.
#[inline]
fn index() -> usize {
    let i = INDEX.get();
    if i != UNASSIGNED {
        return i;
    }
    assign()
}

#[cold]
fn assign() -> usize {
    let i = claim_index().unwrap_or(OVERFLOW);
    INDEX.set(i);
    i
}

fn claim_index() -> Option<usize> {
    let mut word = CLAIMED.load(Ordering::Relaxed);
    let i = loop {
        let (i, next) = claim(word)?;
        match CLAIMED.compare_exchange_weak(word, next, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => break i,
            Err(now) => word = now,
        }
    };
    // During thread-local teardown the owner cannot be stored: the
    // unrun closure drops it, which gives the index straight back.
    let owner = Owner(i);
    OWNER.try_with(move |o| o.set(Some(owner))).ok().map(|()| i)
}

/// How the calling thread writes the slot [`Striped::local`] gave it:
/// a relaxed load and store on a stripe it owns, an atomic RMW on the
/// shared overflow slot.
#[derive(Clone, Copy)]
pub(crate) struct Writer {
    owned: bool,
}

impl Writer {
    /// `*w += k`, wrapping.
    #[inline]
    pub(crate) fn add(self, w: &AtomicU64, k: u64) {
        if self.owned {
            w.store(w.load(Ordering::Relaxed).wrapping_add(k), Ordering::Relaxed);
        } else {
            w.fetch_add(k, Ordering::Relaxed);
        }
    }

    /// `*w = min(*w, v)`; a no-op leaves the line untouched.
    #[inline]
    pub(crate) fn min(self, w: &AtomicU64, v: u64) {
        if v < w.load(Ordering::Relaxed) {
            if self.owned {
                w.store(v, Ordering::Relaxed);
            } else {
                w.fetch_min(v, Ordering::Relaxed);
            }
        }
    }

    /// `*w = max(*w, v)`; a no-op leaves the line untouched.
    #[inline]
    pub(crate) fn max(self, w: &AtomicU64, v: u64) {
        if v > w.load(Ordering::Relaxed) {
            if self.owned {
                w.store(v, Ordering::Relaxed);
            } else {
                w.fetch_max(v, Ordering::Relaxed);
            }
        }
    }
}

/// One stripe, padded to its own cache line(s).
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot<T>(T);

/// `STRIPES` owned cache-line-padded copies of `T` and the overflow
/// copy.
#[derive(Debug, Default)]
pub(crate) struct Striped<T> {
    slots: [Slot<T>; STRIPES + 1],
}

impl<T> Striped<T> {
    /// The calling OS thread's slot and how to write it.
    #[inline]
    pub(crate) fn local(&self) -> (&T, Writer) {
        let i = index();
        (&self.slots[i].0, Writer { owned: i != OVERFLOW })
    }

    /// Every slot, for reductions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.0)
    }

    /// Every slot, exclusively (resets).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| &mut s.0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::{AtomicOutcome, AtomicTally, GlobalCounter, LogSketch};

    /// The slot index of each of `threads` threads, all alive at one
    /// barrier when they report: each writes once, waits until every
    /// other has too, and only then exits and releases.
    fn indices_of_live_threads(threads: usize) -> Vec<usize> {
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let i = index();
                        barrier.wait();
                        assert_eq!(index(), i, "a thread keeps its slot");
                        i
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn live_threads_hold_distinct_owned_indices() {
        // Other tests' threads may own indices meanwhile, pushing some
        // of these to the overflow slot; the owned ones never repeat.
        let seen = indices_of_live_threads(STRIPES);
        assert!(seen.iter().all(|&i| i <= OVERFLOW));
        let mut owned: Vec<usize> = seen.into_iter().filter(|&i| i != OVERFLOW).collect();
        let n = owned.len();
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), n, "two live threads own one stripe");
    }

    #[test]
    fn one_thread_more_than_stripes_overflows() {
        let seen = indices_of_live_threads(STRIPES + 1);
        assert!(
            seen.contains(&OVERFLOW),
            "{} live owners of {STRIPES} stripes: {seen:?}",
            STRIPES + 1
        );
    }

    #[test]
    fn a_released_index_is_claimed_again() {
        assert_eq!(claim(0), Some((0, 0b1)));
        assert_eq!(claim(0b1), Some((1, 0b11)));
        assert_eq!(claim(0b1011), Some((2, 0b1111)));
        let full = (1u64 << STRIPES) - 1;
        assert_eq!(claim(full), None);
        let freed = release(full, 5);
        assert_eq!(freed, full & !(1 << 5));
        assert_eq!(claim(freed), Some((5, full)));
        assert_eq!(release(0b1, 0), 0);
    }

    #[test]
    fn slots_own_their_lines() {
        assert_eq!(std::mem::align_of::<Striped<u64>>(), 64);
        assert_eq!(std::mem::size_of::<Striped<u64>>(), 64 * (STRIPES + 1));
    }

    #[test]
    fn threads_alive_together_record_exactly() {
        // Twice as many live writers as stripes: owners write plain,
        // the rest share the overflow slot, before and after a
        // barrier that holds them all alive at once.
        let threads = 2 * STRIPES as u64;
        let per = 5_000u64;
        let counter = GlobalCounter::new();
        let sketch = LogSketch::new();
        let tally = AtomicTally::new();
        let barrier = Barrier::new(threads as usize);
        let write = |t: u64, i: u64| {
            counter.add(t + 1);
            sketch.record(t * per + i);
            let outcome =
                if i < per / 2 { AtomicOutcome::Updated } else { AtomicOutcome::CasFailed };
            tally.record(outcome);
        };
        std::thread::scope(|s| {
            for t in 0..threads {
                let (write, barrier) = (&write, &barrier);
                s.spawn(move || {
                    (0..per / 2).for_each(|i| write(t, i));
                    barrier.wait();
                    (per / 2..per).for_each(|i| write(t, i));
                });
            }
        });
        assert_eq!(counter.get(), per * threads * (threads + 1) / 2);
        let single = LogSketch::new();
        (0..threads * per).for_each(|v| single.record(v));
        assert_eq!(sketch.snapshot(), single.snapshot());
        assert_eq!(tally.attempted(), threads * per);
        assert_eq!(tally.updated(), threads * per / 2);
        assert_eq!(tally.cas_failed(), threads * per / 2);
    }
}
