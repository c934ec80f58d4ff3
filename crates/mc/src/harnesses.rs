//! Production-path harnesses: small 2–4-thread protocols that mirror
//! the lock-free host paths the suite actually runs, built from the
//! instrumented shim primitives and — where the production code
//! exposes its arithmetic as pure functions — the *same* functions
//! the production path calls ([`ecl_gpusim::ticket_range`],
//! [`ecl_gpusim::max_is_noop`], [`ecl_profiling::stripe::claim`],
//! [`ecl_serve::jobs::JobState::can_become`],
//! [`ecl_serve::cache::result_key`]).
//!
//! Each harness recreates all shared state per invocation (the
//! explorer runs it once per schedule) and encodes its correctness
//! contract as plain `assert!`s; memory-ordering bugs surface as
//! [`crate::exec::FailureKind::DataRace`] findings without any
//! assertion at all, because the vector clocks convict the protocol
//! on the first schedule that lacks a happens-before edge.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ecl_gpusim::pool::auto_grain;
use ecl_gpusim::{max_is_noop, ticket_range};
use ecl_profiling::stripe::{claim, release, STRIPES};
use ecl_serve::cache::result_key;
use ecl_serve::jobs::{Algo, JobSpec, JobState};
use ecl_serve::ring::ring_slot;

use crate::shim::atomic::{McAtomicBool, McAtomicU64, McAtomicUsize};
use crate::shim::cell::McCell;
use crate::shim::sync::{McCondvar, McMutex};
use crate::shim::thread;

/// One registered harness: a named, self-contained protocol body the
/// suite explores.
#[derive(Clone, Copy)]
pub struct HarnessEntry {
    /// Stable name (suite selector and report kernel name).
    pub name: &'static str,
    /// One-line description for `--list` output.
    pub about: &'static str,
    /// The body; run once per explored schedule.
    pub run: fn(),
}

/// All clean harnesses, suite ordered. Every entry must verify clean
/// on main — CI fails on any finding.
pub const ALL: &[HarnessEntry] = &[
    HarnessEntry {
        name: "pool-ticket-claim",
        about: "atomic-ticket block claiming: every block exactly once, none lost",
        run: ticket_claim,
    },
    HarnessEntry {
        name: "tally-fold",
        about: "block-local cost tally folded before the retire: the launch join sees all of it",
        run: tally_fold_clean,
    },
    HarnessEntry {
        name: "counted-minmax",
        about: "test-first atomicMax: a skipped RMW is a no-op, every call counted once",
        run: counted_minmax_clean,
    },
    HarnessEntry {
        name: "stripe-claim",
        about: "owned counter stripes: claim, plain adds, release at exit; the next owner sees the last",
        run: stripe_claim_clean,
    },
    HarnessEntry {
        name: "scheduler-finish",
        about: "admission/finish counters vs. terminal-state waiter (PR 6 bug class)",
        run: scheduler_finish,
    },
    HarnessEntry {
        name: "scheduler-drain",
        about: "drain flag + condvar wakeup: no worker sleeps through shutdown",
        run: scheduler_drain,
    },
    HarnessEntry {
        name: "trace-ring",
        about: "ring writer/reader publication: acquire load sees released words",
        run: trace_ring,
    },
    HarnessEntry {
        name: "result-cache",
        about: "insert/hit path: one miss fills, later lookups hit, counters agree",
        run: result_cache,
    },
    HarnessEntry {
        name: "serve-conn-ring",
        about: "event-ring push/pop (Vyukov sequences + depth bound): exactly-once, race-free",
        run: conn_ring,
    },
    HarnessEntry {
        name: "serve-reactor-wakeup",
        about: "reactor park/wake flag protocol: no wake lost between drain and park",
        run: reactor_wakeup_clean,
    },
    HarnessEntry {
        name: "serve-reactor-handoff",
        about: "completion vs. waiter registration: every wait_ms answered exactly once",
        run: reactor_handoff_clean,
    },
    HarnessEntry {
        name: "shard-superstep",
        about: "shards write their own outbox rows, the pool's countdown is the barrier, then one flush",
        run: shard_superstep_clean,
    },
];

/// Looks up a harness by name.
pub fn by_name(name: &str) -> Option<&'static HarnessEntry> {
    ALL.iter().find(|h| h.name == name)
}

/// The pool's dynamic block-claim protocol (`pool::run_job`): two
/// workers `fetch_add` a shared ticket counter and interpret the
/// claim with the production [`ticket_range`]. Exactly-once execution
/// is checked two ways: a per-block [`McCell`] write catches double
/// claims as write-write races, and a retire counter checks none were
/// lost. The `done` flag mirrors the pool's job-completion handoff
/// (release `fetch_sub`, acquire read under the completion mutex).
pub fn ticket_claim() {
    const N: usize = 4;
    let grain = auto_grain(N, 2).max(2);
    let next = Arc::new(McAtomicUsize::new("job.next", 0));
    let remaining = Arc::new(McAtomicUsize::new("job.remaining", N));
    let blocks: Arc<Vec<McCell<u32>>> =
        Arc::new((0..N).map(|b| McCell::new(&format!("block[{b}]"), 0)).collect());
    let done = Arc::new((McMutex::new("job.done", false), McCondvar::new("job.done_cv")));

    let worker = |w: usize| {
        let next = Arc::clone(&next);
        let remaining = Arc::clone(&remaining);
        let blocks = Arc::clone(&blocks);
        let done = Arc::clone(&done);
        thread::spawn(&format!("worker{w}"), move || loop {
            let claimed = next.fetch_add(grain, Ordering::Relaxed);
            let Some((start, end)) = ticket_range(claimed, N, grain) else {
                return;
            };
            for b in start..end {
                let seen = blocks[b].read();
                assert_eq!(seen, 0, "block {b} claimed twice");
                blocks[b].write(1);
            }
            // Release retire, as in the pool: the claimer that drops
            // `remaining` to zero publishes all block writes to the
            // completion waiter.
            let before = remaining.fetch_sub(end - start, Ordering::AcqRel);
            if before == end - start {
                let (lock, cv) = &*done;
                *lock.lock() = true;
                cv.notify_all();
            }
        })
    };
    let h0 = worker(0);
    let h1 = worker(1);

    // The host side of `Job::wait`: sleep until the last retire.
    let (lock, cv) = &*done;
    let mut finished = lock.lock();
    while !*finished {
        finished = cv.wait(finished);
    }
    drop(finished);
    let run: u32 = (0..N).map(|b| blocks[b].read()).sum();
    assert_eq!(run as usize, N, "every block ran exactly once");
    h0.join();
    h1.join();
}

/// Shared body for the block-local cost tally harness and its
/// seeded-defect fixture. `run_grid`'s per-block closure charges into
/// a plain thread-local array and folds it into the device's shared
/// `CostTally` when the block ends — inside the closure, so before
/// `pool::run_job` retires the claim. Two workers claim tickets with
/// the production [`ticket_range`], fold each block's local (a plain
/// `u64` here: nothing else can see it) into the shared tally, then
/// decrement `remaining`; the submitter reads the tally after the
/// `done` handoff and asserts nothing is missing.
///
/// `fold_before_retire = false` moves the fold after the decrement:
/// the other worker can then retire the job and wake the submitter
/// while this worker's charges are still in its local.
pub fn tally_fold(fold_before_retire: bool) {
    const N: usize = 4;
    let charged_by = |b: usize| b as u64 + 1;
    let grain = auto_grain(N, 2).max(2);
    let next = Arc::new(McAtomicUsize::new("job.next", 0));
    let remaining = Arc::new(McAtomicUsize::new("job.remaining", N));
    let tally = Arc::new(McAtomicU64::new("device.cost", 0));
    let done = Arc::new((McMutex::new("job.done", false), McCondvar::new("job.done_cv")));

    let worker = |w: usize| {
        let next = Arc::clone(&next);
        let remaining = Arc::clone(&remaining);
        let tally = Arc::clone(&tally);
        let done = Arc::clone(&done);
        thread::spawn(&format!("worker{w}"), move || loop {
            let claimed = next.fetch_add(grain, Ordering::Relaxed);
            let Some((start, end)) = ticket_range(claimed, N, grain) else {
                return;
            };
            let mut unfolded = 0u64;
            for b in start..end {
                let local = charged_by(b);
                if fold_before_retire {
                    tally.fetch_add(local, Ordering::Relaxed);
                } else {
                    unfolded += local;
                }
            }
            let before = remaining.fetch_sub(end - start, Ordering::AcqRel);
            if !fold_before_retire {
                tally.fetch_add(unfolded, Ordering::Relaxed);
            }
            if before == end - start {
                let (lock, cv) = &*done;
                *lock.lock() = true;
                cv.notify_all();
            }
        })
    };
    let h0 = worker(0);
    let h1 = worker(1);

    let (lock, cv) = &*done;
    let mut finished = lock.lock();
    while !*finished {
        finished = cv.wait(finished);
    }
    drop(finished);
    assert_eq!(
        tally.load(Ordering::Relaxed),
        (0..N).map(charged_by).sum::<u64>(),
        "launch joined with block charges still unfolded"
    );
    h0.join();
    h1.join();
}

/// The clean fold (inside the block, before the retire).
pub fn tally_fold_clean() {
    tally_fold(true);
}

/// Shared body for the counted min/max harness and its seeded-defect
/// fixture: `CountedU64::fetch_max`'s test-first shape on the shim
/// atomics. Each of two threads runs two maxes: a relaxed load, the
/// skip test `skip(seen, v)`, and the RMW only when the test fails. The
/// outcome is derived from the returned old value as production derives
/// it (`Updated` iff `old < v`) and tallied; a call *wrote* iff it ran
/// the RMW and that RMW raised the cell.
///
/// `skip = max_is_noop` is production's test: a call it skips writes
/// nothing, so its `NoEffect` is true, and the cell ends at the maximum.
/// `skip = min_is_noop` flips the direction: the first call already
/// skips a raise, reports `Updated` for a write that never happened,
/// and the maximum is lost.
pub fn counted_minmax(skip: fn(u64, u64) -> bool) {
    const VALUES: [[u64; 2]; 2] = [[3, 1], [2, 4]];
    let cell = Arc::new(McAtomicU64::new("counted.cell", 0));
    let updated = Arc::new(McAtomicU64::new("tally.updated", 0));
    let no_effect = Arc::new(McAtomicU64::new("tally.no_effect", 0));

    let worker = |w: usize| {
        let cell = Arc::clone(&cell);
        let updated = Arc::clone(&updated);
        let no_effect = Arc::clone(&no_effect);
        thread::spawn(&format!("thread{w}"), move || {
            for v in VALUES[w] {
                let seen = cell.load(Ordering::Relaxed);
                let (old, wrote) = if skip(seen, v) {
                    (seen, false)
                } else {
                    let old = cell.fetch_max(v, Ordering::Relaxed);
                    (old, old < v)
                };
                let outcome_updated = old < v;
                assert_eq!(
                    outcome_updated, wrote,
                    "max({v}) returned {old}: outcome is not the effect"
                );
                let tally = if outcome_updated { &updated } else { &no_effect };
                tally.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let h0 = worker(0);
    let h1 = worker(1);
    h0.join();
    h1.join();
    assert_eq!(cell.load(Ordering::Relaxed), 4, "the maximum was lost");
    assert_eq!(
        updated.load(Ordering::Relaxed) + no_effect.load(Ordering::Relaxed),
        4,
        "a call escaped the tally"
    );
}

/// The clean counted min/max (production's skip test).
pub fn counted_minmax_clean() {
    counted_minmax(max_is_noop::<u64>);
}

/// Shared body for the scheduler finish-path harness and its seeded-
/// defect fixture. A worker drives a job `Queued → Running → Done`
/// using the production [`JobState::can_become`] transition table and
/// bumps the `jobs_done` metric; a waiter blocks on the job condvar
/// until the state is terminal and then asserts the metric is
/// visible.
///
/// `counter_after_transition = false` is the production shape after
/// the PR 6 fix: count **before** the transition and undo on the lost
/// race, so the terminal-state notification happens-after the counter
/// bump. `true` reintroduces the PR 6 defect — transition + notify
/// first, count after — and the checker finds the schedule where the
/// waiter wakes between the two.
pub fn finish_path(counter_after_transition: bool) {
    let state = Arc::new((McMutex::new("job.state", JobState::Queued), McCondvar::new("job.cv")));
    let jobs_done = Arc::new(McAtomicU64::new("metrics.jobs_done", 0));

    let worker = {
        let state = Arc::clone(&state);
        let jobs_done = Arc::clone(&jobs_done);
        thread::spawn("worker", move || {
            let (lock, cv) = &*state;
            {
                let mut st = lock.lock();
                assert!(st.can_become(JobState::Running));
                *st = JobState::Running;
            }
            if counter_after_transition {
                // PR 6 defect: terminal transition and wakeup first…
                let mut st = lock.lock();
                assert!(st.can_become(JobState::Done));
                *st = JobState::Done;
                cv.notify_all();
                drop(st);
                // …metric counted after. A waiter scheduled between
                // the notify and this add reads jobs_done == 0.
                jobs_done.fetch_add(1, Ordering::Relaxed);
            } else {
                // Production shape: count before the transition, undo
                // on a lost transition race.
                jobs_done.fetch_add(1, Ordering::Relaxed);
                let mut st = lock.lock();
                if !st.can_become(JobState::Done) {
                    jobs_done.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                *st = JobState::Done;
                cv.notify_all();
            }
        })
    };

    let (lock, cv) = &*state;
    let mut st = lock.lock();
    while !st.is_terminal() {
        st = cv.wait(st);
    }
    assert_eq!(*st, JobState::Done);
    drop(st);
    // The scheduler's invariant: a waiter woken by a terminal state
    // always observes the finish metrics.
    assert!(
        jobs_done.load(Ordering::Relaxed) >= 1,
        "terminal state visible before its finish metric"
    );
    worker.join();
}

/// The clean finish-path harness (production ordering).
pub fn scheduler_finish() {
    finish_path(false);
}

/// Shared body for the drain harness and its seeded-defect fixture.
/// A worker loops the production `worker_loop` shape — pop under the
/// queue lock, check the shutdown flag, condvar-wait — while the main
/// thread submits two jobs and then drains.
///
/// `signal_outside_lock = false` follows `begin_drain`'s contract as
/// the harness models it: the shutdown store and `notify_all` happen
/// while holding the queue lock, so a worker between its empty check
/// and its wait cannot miss the wakeup. `true` sets the flag and
/// notifies without the lock — the classic lost-wakeup window the
/// checker reports when the notify lands before the worker parks.
pub fn drain(signal_outside_lock: bool) {
    let queue = Arc::new((
        McMutex::new("sched.queue", Vec::<u32>::new()),
        McCondvar::new("sched.work_ready"),
    ));
    // Atomic as in production (`Shared::shutdown`), so the defect
    // variant is a pure lost wakeup, not a data race.
    let shutdown = Arc::new(McAtomicBool::new("sched.shutdown", false));
    let processed = Arc::new(McAtomicUsize::new("sched.processed", 0));

    let worker = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        let processed = Arc::clone(&processed);
        thread::spawn("worker", move || loop {
            let (lock, cv) = &*queue;
            let job = {
                let mut q = lock.lock();
                loop {
                    if let Some(job) = q.pop() {
                        break job;
                    }
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = cv.wait(q);
                }
            };
            let _ = job;
            processed.fetch_add(1, Ordering::Relaxed);
        })
    };

    let (lock, cv) = &*queue;
    for job in [1u32, 2] {
        let mut q = lock.lock();
        q.push(job);
        cv.notify_one();
    }
    if signal_outside_lock {
        // Defect: the worker can sit between "queue empty, shutdown
        // false" and its wait while both the store and the notify
        // fire — it then sleeps forever on a drained scheduler.
        shutdown.store(true, Ordering::Release);
        cv.notify_all();
    } else {
        let q = lock.lock();
        shutdown.store(true, Ordering::Release);
        cv.notify_all();
        drop(q);
    }
    worker.join();
    assert_eq!(processed.load(Ordering::Relaxed), 2, "drain lost submitted jobs");
}

/// The clean drain harness (signal under the queue lock).
pub fn scheduler_drain() {
    drain(false);
}

/// The trace ring's writer→reader publication protocol: a writer
/// fills word slots then publishes the count with a release store of
/// `head`; the reader's acquire load of `head` must make every
/// published word visible. Plain-cell slot writes mean any missing
/// edge is a data race, not just a wrong value — exactly the property
/// the real ring's `Ordering::Release`/`Acquire` head pair provides.
/// (No wraparound here: the real ring tolerates overwrite races by
/// using atomic words; this harness checks the publication edge.)
pub fn trace_ring() {
    const CAP: usize = 4;
    let head = Arc::new(McAtomicU64::new("ring.head", 0));
    let slots: Arc<Vec<McCell<u64>>> =
        Arc::new((0..CAP).map(|i| McCell::new(&format!("ring.slot[{i}]"), 0)).collect());

    let writer = {
        let head = Arc::clone(&head);
        let slots = Arc::clone(&slots);
        thread::spawn("writer", move || {
            for (i, payload) in [11u64, 22, 33].into_iter().enumerate() {
                slots[i].write(payload);
                head.store((i + 1) as u64, Ordering::Release);
            }
        })
    };

    let reader = {
        let head = Arc::clone(&head);
        let slots = Arc::clone(&slots);
        thread::spawn("reader", move || {
            let n = head.load(Ordering::Acquire) as usize;
            let mut sum = 0u64;
            for slot in slots.iter().take(n) {
                sum += slot.read();
            }
            let want: u64 = [11u64, 22, 33].iter().take(n).sum();
            assert_eq!(sum, want, "acquire load exposed unpublished slots");
        })
    };

    writer.join();
    reader.join();
}

/// The result-cache insert/hit path: two clients race to resolve the
/// same key (built with the production [`result_key`] /
/// [`JobSpec::param_key`]); the slow path fills under the map mutex,
/// hit/miss counters are relaxed atomics. Checks the filled value is
/// coherent and `hits + misses` accounts for every lookup.
pub fn result_cache() {
    let spec = JobSpec::new(Algo::Cc, "internet");
    let key = result_key(0xEC, &spec);
    let map = Arc::new(McMutex::new("cache.map", HashMap::<String, u64>::new()));
    let hits = Arc::new(McAtomicU64::new("cache.hits", 0));
    let misses = Arc::new(McAtomicU64::new("cache.misses", 0));

    let client = |c: usize| {
        let key = key.clone();
        let map = Arc::clone(&map);
        let hits = Arc::clone(&hits);
        let misses = Arc::clone(&misses);
        thread::spawn(&format!("client{c}"), move || {
            let mut m = map.lock();
            match m.get(&key) {
                Some(&v) => {
                    assert_eq!(v, 42, "cache served a torn value");
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    m.insert(key.clone(), 42);
                    misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };
    let h0 = client(0);
    let h1 = client(1);
    h0.join();
    h1.join();
    let (h, m) = (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed));
    assert_eq!(h + m, 2, "a lookup escaped both counters");
    assert!(m >= 1, "first resolver must miss");
}

/// The serve `EventRing` protocol (accept/completion handoffs): two
/// producers claim positions with a tail CAS, write the payload into a
/// plain cell, and publish with a release store of the slot sequence;
/// a concurrent consumer acquires the sequence before reading. Slot
/// indexing uses the production [`ring_slot`]. The depth counter keeps
/// the bound exact, as in `EventRing::try_push`. A missing
/// release/acquire edge here is a data race on the payload cell; the
/// exactly-once contract is the summed-payload assertion.
pub fn conn_ring() {
    const BOUND: usize = 2;
    const MASK: usize = BOUND - 1;
    let seqs: Arc<Vec<McAtomicUsize>> =
        Arc::new((0..BOUND).map(|i| McAtomicUsize::new(&format!("ring.seq[{i}]"), i)).collect());
    let values: Arc<Vec<McCell<u64>>> =
        Arc::new((0..BOUND).map(|i| McCell::new(&format!("ring.value[{i}]"), 0)).collect());
    let head = Arc::new(McAtomicUsize::new("ring.head", 0));
    let tail = Arc::new(McAtomicUsize::new("ring.tail", 0));
    let depth = Arc::new(McAtomicUsize::new("ring.depth", 0));
    let rejected = Arc::new(McAtomicUsize::new("ring.rejected", 0));

    let producer = |name: &str, payload: u64| {
        let seqs = Arc::clone(&seqs);
        let values = Arc::clone(&values);
        let tail = Arc::clone(&tail);
        let depth = Arc::clone(&depth);
        let rejected = Arc::clone(&rejected);
        thread::spawn(name, move || {
            // Exact-bound admission: reserve depth first, undo on
            // overflow (cannot trigger here — 2 pushes, bound 2).
            if depth.fetch_add(1, Ordering::AcqRel) >= BOUND {
                depth.fetch_sub(1, Ordering::AcqRel);
                rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
            loop {
                let pos = tail.load(Ordering::Relaxed);
                let slot = ring_slot(MASK, pos);
                if seqs[slot].load(Ordering::Acquire) == pos
                    && tail
                        .compare_exchange(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    values[slot].write(payload);
                    seqs[slot].store(pos + 1, Ordering::Release);
                    return;
                }
                // Slot claimed by the other producer; retry at the new
                // tail (bounded: only two pushes ever happen).
            }
        })
    };
    let p0 = producer("producer0", 11);
    let p1 = producer("producer1", 22);

    // A consumer racing the producers, bounded attempts: whatever it
    // leaves behind the main thread drains after the joins.
    let consumer = {
        let seqs = Arc::clone(&seqs);
        let values = Arc::clone(&values);
        let head = Arc::clone(&head);
        let depth = Arc::clone(&depth);
        thread::spawn("consumer", move || {
            let mut sum = 0u64;
            let mut popped = 0usize;
            for _ in 0..3 {
                let pos = head.load(Ordering::Relaxed);
                let slot = ring_slot(MASK, pos);
                if seqs[slot].load(Ordering::Acquire) == pos + 1 {
                    // Single consumer: a plain store advances head.
                    head.store(pos + 1, Ordering::Relaxed);
                    sum += values[slot].read();
                    seqs[slot].store(pos + MASK + 1, Ordering::Release);
                    depth.fetch_sub(1, Ordering::AcqRel);
                    popped += 1;
                }
            }
            (sum, popped)
        })
    };

    p0.join();
    p1.join();
    let (mut sum, mut popped) = consumer.join();
    while popped < 2 {
        let pos = head.load(Ordering::Relaxed);
        let slot = ring_slot(MASK, pos);
        assert_eq!(seqs[slot].load(Ordering::Acquire), pos + 1, "published item not poppable");
        head.store(pos + 1, Ordering::Relaxed);
        sum += values[slot].read();
        seqs[slot].store(pos + MASK + 1, Ordering::Release);
        depth.fetch_sub(1, Ordering::AcqRel);
        popped += 1;
    }
    assert_eq!(rejected.load(Ordering::Relaxed), 0, "bounded pushes were rejected");
    assert_eq!(sum, 33, "payloads delivered exactly once");
    assert_eq!(depth.load(Ordering::Acquire), 0, "depth accounting drifted");
}

/// Shared body for the reactor wake protocol and its seeded-defect
/// fixture. A producer queues work with a release increment then
/// wakes the reactor; the reactor drains, then parks by checking the
/// pending flag under the mutex before waiting.
///
/// `set_flag_before_notify = true` is the production `Waker::wake`:
/// the flag is set under the mutex before the notify, so a wake that
/// lands between the reactor's drain and its park is consumed by the
/// flag check instead of lost. `false` notifies without setting the
/// flag — the reactor that already decided to park sleeps through the
/// signal forever, the classic lost wakeup.
pub fn reactor_wakeup(set_flag_before_notify: bool) {
    const TOTAL: usize = 2;
    let queued = Arc::new(McAtomicUsize::new("reactor.queued", 0));
    let wake = Arc::new((McMutex::new("reactor.pending", false), McCondvar::new("reactor.ready")));

    let producer = {
        let queued = Arc::clone(&queued);
        let wake = Arc::clone(&wake);
        thread::spawn("producer", move || {
            for _ in 0..TOTAL {
                queued.fetch_add(1, Ordering::Release);
                let (lock, cv) = &*wake;
                if set_flag_before_notify {
                    let mut pending = lock.lock();
                    *pending = true;
                    cv.notify_one();
                } else {
                    // Defect: notify with no flag — nothing records
                    // the wake for a reactor not yet waiting.
                    let _pending = lock.lock();
                    cv.notify_one();
                }
            }
        })
    };

    // The reactor loop: sweep, then park.
    let mut consumed = 0;
    while consumed < TOTAL {
        while consumed < queued.load(Ordering::Acquire) {
            consumed += 1;
        }
        if consumed >= TOTAL {
            break;
        }
        let (lock, cv) = &*wake;
        let mut pending = lock.lock();
        if !*pending {
            pending = cv.wait(pending);
        }
        *pending = false;
    }
    producer.join();
    assert_eq!(consumed, TOTAL, "reactor missed queued work");
}

/// The clean wake protocol (flag set under the mutex before notify).
pub fn reactor_wakeup_clean() {
    reactor_wakeup(true);
}

/// Shared body for the completion-handoff harness and its fixture.
/// A worker drives a job terminal (release store) then pushes a
/// completion signal; the reactor may drain that signal *before* the
/// route step registers the waiter — the registration race.
///
/// `recheck_after_register = true` is the production shape: after
/// registering, the reactor re-checks the job's terminal state and
/// responds directly if the signal already came and went. Exactly-once
/// is enforced by removing the waiter before responding. `false`
/// drops the re-check, and the schedule where the worker finishes
/// before registration leaves the connection waiting forever (zero
/// responses).
pub fn reactor_handoff(recheck_after_register: bool) {
    let terminal = Arc::new(McAtomicBool::new("job.terminal", false));
    let completed = Arc::new(McAtomicBool::new("reactor.completion", false));
    let waiter = Arc::new(McCell::new("reactor.waiter", false));
    let responses = Arc::new(McAtomicUsize::new("conn.responses", 0));

    let worker = {
        let terminal = Arc::clone(&terminal);
        let completed = Arc::clone(&completed);
        thread::spawn("worker", move || {
            terminal.store(true, Ordering::Release);
            // The completion hook: push onto the ring (modeled as a
            // flag the reactor consumes with a swap).
            completed.store(true, Ordering::Release);
        })
    };

    let reactor = {
        let terminal = Arc::clone(&terminal);
        let completed = Arc::clone(&completed);
        let waiter = Arc::clone(&waiter);
        let responses = Arc::clone(&responses);
        thread::spawn("reactor", move || {
            let respond = |waiter: &McCell<bool>, responses: &McAtomicUsize| {
                // Waiter removed before responding: a duplicate signal
                // finds no waiter and is a no-op.
                if waiter.read() {
                    waiter.write(false);
                    responses.fetch_add(1, Ordering::Relaxed);
                }
            };
            // Sweep 1: drains the ring before the request is routed —
            // an early completion finds no waiter and is dropped.
            let _early = completed.swap(false, Ordering::AcqRel);
            // Route: register the waiter.
            waiter.write(true);
            if recheck_after_register && terminal.load(Ordering::Acquire) {
                respond(&waiter, &responses);
            }
            // Sweep 2: a later reactor iteration drains again.
            if completed.swap(false, Ordering::AcqRel) {
                respond(&waiter, &responses);
            }
        })
    };

    worker.join();
    reactor.join();
    // The reactor keeps sweeping after these two iterations; model
    // one final drain so only the *dropped-before-registration* signal
    // can strand the waiter.
    if completed.swap(false, Ordering::AcqRel) && waiter.read() {
        waiter.write(false);
        responses.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(
        responses.load(Ordering::Relaxed),
        1,
        "wait_ms submission must be answered exactly once"
    );
}

/// The clean handoff (post-registration terminal re-check).
pub fn reactor_handoff_clean() {
    reactor_handoff(true);
}

/// Shared body for the sharded-superstep harness and its seeded-defect
/// fixture: the barrier and flush of `ecl-shard`'s superstep driver.
/// The pool dispatches one block per shard, claimed off the ticket with
/// the production [`ticket_range`]; the submitter participates, as
/// `pool::dispatch` does, next to one pool worker. Each block writes
/// only its own shard's outbox row `out[s][*]`. The claim whose
/// `remaining` decrement reaches zero retires the job and wakes the
/// submitter — the barrier — which then flushes: each destination's
/// inbox takes `out[0][dst]`, then `out[1][dst]`. Rows are plain
/// cells, so a block writing another shard's row would be a
/// write-write race.
///
/// `flush_after_barrier = false` has the submitter flush as soon as its
/// own claims run out, without waiting for the retire: a block the
/// worker still runs writes a row the flush reads, with nothing
/// ordering the two — a data race, and the lost-message class. The
/// inboxes are checked only after the joins, so a flush that read
/// early is convicted as the race it is.
pub fn shard_superstep(flush_after_barrier: bool) {
    const SHARDS: usize = 2;
    let message = |src: usize, dst: usize| (1 + src * SHARDS + dst) as u64;
    let grain = auto_grain(SHARDS, 2);
    let next = Arc::new(McAtomicUsize::new("job.next", 0));
    let remaining = Arc::new(McAtomicUsize::new("job.remaining", SHARDS));
    let out: Arc<Vec<McCell<u64>>> = Arc::new(
        (0..SHARDS * SHARDS)
            .map(|i| McCell::new(&format!("out[{}][{}]", i / SHARDS, i % SHARDS), 0))
            .collect(),
    );
    let done = Arc::new((McMutex::new("job.done", false), McCondvar::new("job.done_cv")));

    // `run_job`: claim, run shard phases, count down, retire.
    let run_job = {
        let (next, remaining, out, done) =
            (Arc::clone(&next), Arc::clone(&remaining), Arc::clone(&out), Arc::clone(&done));
        move || loop {
            let claimed = next.fetch_add(grain, Ordering::Relaxed);
            let Some((start, end)) = ticket_range(claimed, SHARDS, grain) else {
                return;
            };
            for src in start..end {
                for dst in 0..SHARDS {
                    out[src * SHARDS + dst].write(message(src, dst));
                }
            }
            if remaining.fetch_sub(end - start, Ordering::AcqRel) == end - start {
                let (lock, cv) = &*done;
                *lock.lock() = true;
                cv.notify_all();
            }
        }
    };
    let worker = thread::spawn("pool-worker", run_job.clone());
    run_job();
    if flush_after_barrier {
        let (lock, cv) = &*done;
        let mut finished = lock.lock();
        while !*finished {
            finished = cv.wait(finished);
        }
    }
    let inboxes: Vec<Vec<u64>> = (0..SHARDS)
        .map(|dst| (0..SHARDS).map(|src| out[src * SHARDS + dst].read()).collect())
        .collect();
    worker.join();
    for (dst, inbox) in inboxes.iter().enumerate() {
        let sent: Vec<u64> = (0..SHARDS).map(|src| message(src, dst)).collect();
        assert_eq!(*inbox, sent, "inbox {dst} flushed without every shard's messages");
    }
}

/// The clean superstep (flush after the barrier).
pub fn shard_superstep_clean() {
    shard_superstep(true);
}

/// Shared body for the stripe-ownership harness and its seeded-defect
/// fixture (`ecl_profiling::stripe`). A writer claims the lowest free
/// index of the bitmap word with an `Acquire` CAS through the
/// production [`claim`], adds to its stripe with a plain load and
/// store (an [`McCell`]: only its owner may touch it), and at exit
/// gives the index back with a CAS through the production [`release`]
/// in `release_order`. A writer that finds every index taken adds to
/// the shared overflow slot with an RMW. All but two indices start
/// held by threads outside the harness, so of the three writers one
/// overflows — unless an owner exits first, and the latecomer claims
/// the freed index and loads what the last owner stored. After the
/// joins the reader must see every add exactly once and every index
/// given back.
///
/// `release_order = Relaxed` drops the edge from an owner's last store
/// to the next owner's load: the reuse schedule races on the stripe.
pub fn stripe_claim(release_order: Ordering) {
    let outside = ((1u64 << STRIPES) - 1) & !0b11;
    let claimed = Arc::new(McAtomicU64::new("stripe.claimed", outside));
    let stripes: Arc<Vec<McCell<u64>>> =
        Arc::new((0..STRIPES).map(|i| McCell::new(&format!("stripe[{i}]"), 0)).collect());
    let overflow = Arc::new(McAtomicU64::new("stripe.overflow", 0));

    let writer = |name: &str, k: u64| {
        let claimed = Arc::clone(&claimed);
        let stripes = Arc::clone(&stripes);
        let overflow = Arc::clone(&overflow);
        thread::spawn(name, move || {
            let mut word = claimed.load(Ordering::Relaxed);
            let owned = loop {
                let Some((i, next)) = claim(word) else {
                    break None;
                };
                match claimed.compare_exchange(word, next, Ordering::Acquire, Ordering::Relaxed) {
                    Ok(_) => break Some(i),
                    Err(now) => word = now,
                }
            };
            let Some(i) = owned else {
                overflow.fetch_add(k, Ordering::Relaxed);
                return;
            };
            stripes[i].write(stripes[i].read() + k);
            // Thread exit: the owner's destructor.
            let mut word = claimed.load(Ordering::Relaxed);
            while let Err(now) =
                claimed.compare_exchange(word, release(word, i), release_order, Ordering::Relaxed)
            {
                word = now;
            }
        })
    };
    let handles = [writer("owner-a", 1), writer("owner-b", 2), writer("late", 4)];
    for h in handles {
        h.join();
    }
    let total = stripes.iter().map(McCell::read).sum::<u64>() + overflow.load(Ordering::Relaxed);
    assert_eq!(total, 7, "a stripe add was lost");
    assert_eq!(claimed.load(Ordering::Relaxed), outside, "an owned index was never given back");
}

/// The clean ownership protocol (`Release` give-back).
pub fn stripe_claim_clean() {
    stripe_claim(Ordering::Release);
}
