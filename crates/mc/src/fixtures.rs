//! Seeded-defect fixtures: known-bad protocol variants the checker
//! **must** find. They serve two purposes — regression canaries for
//! the detector itself (one fixture per failure class), and the PR 6
//! scheduler bug reintroduced behind a test-only path so the suite
//! proves it would have been caught.
//!
//! Fixtures never ship in a production code path: each is a separate
//! harness body in this test-support crate, flipped on by a boolean
//! the clean harness shares (`finish_path(true)`, `drain(true)`), or
//! written out directly here. CI runs them expecting findings; a
//! fixture that verifies *clean* fails the suite.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ecl_check::Rule;

use crate::harnesses::{
    counted_minmax, drain, finish_path, reactor_handoff, reactor_wakeup, shard_superstep,
    tally_fold,
};
use crate::shim::atomic::McAtomicU64;
use crate::shim::cell::McCell;
use crate::shim::sync::McMutex;
use crate::shim::thread;

/// One seeded defect: a harness body plus the rule the checker must
/// report for it.
#[derive(Clone, Copy)]
pub struct FixtureEntry {
    /// Stable name (suite selector and report kernel name).
    pub name: &'static str,
    /// One-line description for `--list` output.
    pub about: &'static str,
    /// The defective body; run once per explored schedule.
    pub run: fn(),
    /// The rule the checker must report. Any other verdict — clean
    /// included — fails the suite.
    pub expect: Rule,
}

/// All fixtures, suite ordered.
pub const ALL: &[FixtureEntry] = &[
    FixtureEntry {
        name: "finish-counter-after-transition",
        about: "PR 6 scheduler bug: metric counted after the terminal notify",
        run: finish_counter_after_transition,
        expect: Rule::McAssertion,
    },
    FixtureEntry {
        name: "drain-signal-outside-lock",
        about: "shutdown flag + notify without the queue lock: worker sleeps forever",
        run: drain_signal_outside_lock,
        expect: Rule::McLostWakeup,
    },
    FixtureEntry {
        name: "ring-relaxed-head",
        about: "ring head published with Relaxed: reader races the slot writes",
        run: ring_relaxed_head,
        expect: Rule::McRace,
    },
    FixtureEntry {
        name: "lock-order-inversion",
        about: "ABBA double-lock: two threads acquire the same pair in opposite order",
        run: lock_order_inversion,
        expect: Rule::McDeadlock,
    },
    FixtureEntry {
        name: "reactor-wake-without-flag",
        about: "waker notifies without setting the pending flag: reactor parks through it",
        run: reactor_wake_without_flag,
        expect: Rule::McLostWakeup,
    },
    FixtureEntry {
        name: "reactor-handoff-no-recheck",
        about: "no terminal re-check after waiter registration: wait_ms never answered",
        run: reactor_handoff_no_recheck,
        expect: Rule::McAssertion,
    },
    FixtureEntry {
        name: "shard-flush-before-barrier",
        about: "superstep flushes when its own claims run out: a shard still writes its row",
        run: shard_flush_before_barrier,
        expect: Rule::McRace,
    },
    FixtureEntry {
        name: "tally-fold-after-retire",
        about: "block-local cost tally folded after the retire: the launch joins without it",
        run: tally_fold_after_retire,
        expect: Rule::McAssertion,
    },
    FixtureEntry {
        name: "counted-minmax-inverted-skip",
        about: "min/max skip test flipped: a raise is skipped and reported as an update",
        run: counted_minmax_inverted_skip,
        expect: Rule::McAssertion,
    },
];

/// Looks up a fixture by name.
pub fn by_name(name: &str) -> Option<&'static FixtureEntry> {
    ALL.iter().find(|f| f.name == name)
}

/// The PR 6 scheduler finish-path race, reintroduced: the worker
/// transitions the job to `Done` and notifies **before** bumping
/// `jobs_done`, so a waiter woken by the terminal state can read a
/// stale metric. The checker reports the waiter's assertion with the
/// minimal preempting schedule.
pub fn finish_counter_after_transition() {
    finish_path(true);
}

/// `begin_drain` without the queue lock: the store + notify can land
/// in the worker's window between its shutdown check and its wait.
pub fn drain_signal_outside_lock() {
    drain(true);
}

/// The trace-ring publication edge severed: the writer stores `head`
/// with `Relaxed`, so the reader's acquire load establishes no
/// happens-before with the slot writes — a data race on the first
/// schedule that interleaves them.
pub fn ring_relaxed_head() {
    let head = Arc::new(McAtomicU64::new("ring.head", 0));
    let slot = Arc::new(McCell::new("ring.slot[0]", 0u64));

    let writer = {
        let head = Arc::clone(&head);
        let slot = Arc::clone(&slot);
        thread::spawn("writer", move || {
            slot.write(11);
            head.store(1, Ordering::Relaxed); // defect: was Release
        })
    };
    let reader = {
        let head = Arc::clone(&head);
        let slot = Arc::clone(&slot);
        thread::spawn("reader", move || {
            if head.load(Ordering::Acquire) >= 1 {
                assert_eq!(slot.read(), 11);
            }
        })
    };
    writer.join();
    reader.join();
}

/// The reactor waker with its pending flag severed: `wake` takes the
/// mutex and notifies but never sets the flag, so a reactor that
/// finished its drain and decided to park before the notify landed
/// sleeps forever — the signal had nowhere to be remembered.
pub fn reactor_wake_without_flag() {
    reactor_wakeup(false);
}

/// The completion-handoff registration race, unfixed: without the
/// post-registration terminal re-check, a job that completes before
/// the waiter is registered strands the connection — its completion
/// signal was drained and dropped, and no later sweep answers it.
pub fn reactor_handoff_no_recheck() {
    reactor_handoff(false);
}

/// The superstep barrier skipped: the submitter flushes the outbox
/// rows as soon as its own claims run out, while the pool worker may
/// still be running a shard phase that writes its row — sharded runs
/// would lose or half-deliver that shard's messages.
pub fn shard_flush_before_barrier() {
    shard_superstep(false);
}

/// The block-local cost tally folded one statement too late: after
/// the claim's `remaining` decrement instead of before it. The other
/// worker's final decrement then retires the job, and the submitter
/// reads a device tally that is missing this worker's blocks.
pub fn tally_fold_after_retire() {
    tally_fold(false);
}

/// The counted `atomicMax` with its skip test pointing the wrong way
/// (`min_is_noop`, i.e. skip when `v >= seen`): the call that should
/// raise the cell returns the loaded value without writing, so its
/// `Updated` outcome is not its effect and the maximum never lands.
pub fn counted_minmax_inverted_skip() {
    counted_minmax(ecl_gpusim::min_is_noop::<u64>);
}

/// Classic ABBA: thread 1 locks A then B, thread 2 locks B then A.
/// The schedule where each takes its first lock before either takes
/// its second leaves both blocked forever.
pub fn lock_order_inversion() {
    let a = Arc::new(McMutex::new("lock.a", 0u32));
    let b = Arc::new(McMutex::new("lock.b", 0u32));

    let t1 = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        thread::spawn("ab", move || {
            let ga = a.lock();
            let mut gb = b.lock();
            *gb += *ga;
        })
    };
    let t2 = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        thread::spawn("ba", move || {
            let gb = b.lock();
            let mut ga = a.lock();
            *ga += *gb;
        })
    };
    t1.join();
    t2.join();
}
