//! Per-OS-thread striping: the one primitive [`GlobalCounter`]
//! (crate::GlobalCounter) and [`LogSketch`](crate::LogSketch) are built
//! on, so a write from a simulated thread lands in memory only the
//! executing OS thread writes.
//!
//! A [`Striped<T>`] is `STRIPES` copies of `T`, each on its own cache
//! line(s). Every OS thread is assigned one stripe index on its first
//! write — round-robin over a process-wide ticket, fixed for the
//! thread's life — and writers touch only [`Striped::local`]; readers
//! reduce over [`Striped::iter`]. The slots stay atomic: two threads
//! that share an index trade a cache line and lose nothing else.
//!
//! Sharing does not need more live threads than stripes. The ticket is
//! process-wide and an index is never rebalanced, so two long-lived
//! threads (the two pool workers, say) collide whenever `STRIPES - 1`
//! other threads draw between their first writes, and then stay
//! collided for the life of the process.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stripes per striped value. The default pool runs one worker per
/// core next to the submitting thread; eight covers the hosts the
/// suite is measured on without collisions and keeps a counter at
/// 512 bytes.
pub(crate) const STRIPES: usize = 8;

const UNASSIGNED: usize = usize::MAX;

static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static INDEX: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// The calling OS thread's stripe index.
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
    let i = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    INDEX.set(i);
    i
}

/// One stripe, padded to its own cache line(s).
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot<T>(T);

/// `STRIPES` cache-line-padded copies of `T`.
#[derive(Debug, Default)]
pub(crate) struct Striped<T> {
    slots: [Slot<T>; STRIPES],
}

impl<T> Striped<T> {
    /// The calling OS thread's stripe.
    #[inline]
    pub(crate) fn local(&self) -> &T {
        &self.slots[index()].0
    }

    /// Every stripe, for reductions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.0)
    }

    /// Every stripe, exclusively (resets).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| &mut s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_keeps_its_stripe_and_slots_own_their_lines() {
        assert_eq!(index(), index());
        assert!(index() < STRIPES);
        assert_eq!(std::mem::align_of::<Striped<u64>>(), 64);
        assert_eq!(std::mem::size_of::<Striped<u64>>(), 64 * STRIPES);
    }

    #[test]
    fn round_robin_assignment_spreads_new_threads_over_stripes() {
        // Each spawned thread draws one ticket. Other tests' threads
        // draw in between, so which stripes these land on is not
        // fixed — only that consecutive draws cannot all collide.
        let seen: Vec<usize> = (0..2 * STRIPES)
            .map(|_| std::thread::spawn(index).join().expect("stripe probe thread"))
            .collect();
        assert!(seen.iter().all(|&i| i < STRIPES));
        let distinct: std::collections::BTreeSet<usize> = seen.iter().copied().collect();
        assert!(distinct.len() > 1, "round-robin assignment must spread threads: {seen:?}");
    }
}
