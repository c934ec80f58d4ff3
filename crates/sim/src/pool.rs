//! Persistent execution pool with dynamic (ticket-based) block
//! dispatch.
//!
//! A launch engine that splits a grid into one contiguous chunk per
//! core and spawns fresh OS threads per launch has exactly the two
//! defects the paper profiles in its subjects: on power-law inputs the
//! chunk holding the high-degree vertices serializes the launch
//! (load imbalance), and iterative algorithms — ECL-CC's
//! pointer-jumping rounds, ECL-SCC's propagate-until-quiescent loop —
//! pay the spawn/join churn dozens of times per run (launch overhead).
//! This module uses the scheme GPU block schedulers (and Gunrock-style
//! load balancers) use instead:
//!
//! - **Persistent workers.** A process-wide pool is created lazily on
//!   first parallel dispatch (or warmed by [`prewarm`], which
//!   `Device::new` calls). Workers park on a condvar between launches
//!   instead of being respawned, so a launch costs one queue push and
//!   one wake instead of N `thread::spawn` + join.
//! - **Dynamic block claiming.** Blocks are claimed off a shared
//!   `AtomicUsize` ticket in small ranges (the *grain*, auto-sized
//!   from `blocks / workers` and clamped so claims stay cheap). A
//!   heavy block no longer strands its chunk-mates' work behind it on
//!   one core — idle workers keep pulling tickets, which is faithful
//!   to how hardware SMs pick up the next ready block.
//!
//! Dispatch order is intentionally *not* deterministic — exactly like
//! a GPU grid. Kernel code may only rely on what CUDA guarantees:
//! blocks run in any order, possibly sequentially, and must not
//! spin-wait on other blocks. Everything the simulator aggregates
//! (counter totals, cost charges, check verdicts) is a commutative
//! reduction over per-block contributions, so the order of the
//! reduction never matters; `tests/scheduler_determinism.rs` asserts
//! that across worker counts and grains. What a block contributes can
//! depend on the interleaving, though: a CAS that fails under one
//! schedule succeeds under another, and SCC's block-local loops run a
//! different number of rounds.
//!
//! # Policy
//!
//! A policy is a worker count and a claim grain. One worker is the
//! in-order schedule: every block runs in index order on the calling
//! thread, so those schedule-dependent charges repeat bit for bit. It
//! is the only definition of "in order" —
//! [`DispatchPolicy::sequential`] is `workers: 1`.
//!
//! The policy is set per calling thread with [`with_policy`] (tests,
//! the tuner's evaluations, benches). The process-wide default worker
//! count is `ECL_SIM_WORKERS=n`, read once at first use (default: the
//! cores available at each dispatch); the grain is always auto-sized
//! unless a caller forces one.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use ecl_profiling::WorkerStat;

/// Per-thread override of the dispatch defaults. `None` fields take
/// the process defaults: `ECL_SIM_WORKERS` (else the core count) and
/// an auto-sized grain.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchPolicy {
    /// Number of OS threads that execute blocks (the calling thread
    /// participates, so `workers: 1` runs inline, in index order).
    pub workers: Option<usize>,
    /// Blocks claimed per ticket. `None` auto-sizes from
    /// `blocks / (workers * 4)`.
    pub grain: Option<usize>,
}

impl DispatchPolicy {
    /// One worker: in-order execution on the calling thread — the
    /// determinism reference schedule.
    pub fn sequential() -> Self {
        Self::pooled(1)
    }

    /// `workers` pool workers with automatic grain.
    pub fn pooled(workers: usize) -> Self {
        Self { workers: Some(workers), grain: None }
    }
}

thread_local! {
    static POLICY: Cell<DispatchPolicy> =
        const { Cell::new(DispatchPolicy { workers: None, grain: None }) };
}

/// Runs `f` with `policy` overriding the dispatch defaults for every
/// launch issued from this thread, restoring the previous override on
/// exit (including on panic).
pub fn with_policy<R>(policy: DispatchPolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(DispatchPolicy);
    impl Drop for Restore {
        fn drop(&mut self) {
            POLICY.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(POLICY.with(|p| p.replace(policy)));
    f()
}

/// The process-wide worker count: `ECL_SIM_WORKERS` if set to a
/// positive integer (read once), else the available cores — asked on
/// every call, so an affinity or cpuset change made while the process
/// runs is honoured.
fn default_workers() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("ECL_SIM_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w > 0)
    })
    .unwrap_or_else(|| std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4))
}

/// The worker count the next dispatch from this thread would use.
pub fn effective_workers() -> usize {
    POLICY.with(|p| p.get()).workers.unwrap_or_else(default_workers).max(1)
}

/// Claim size for `n` blocks over `workers` threads: small enough
/// that a heavy block cannot strand much work behind it (≥ 4 claims
/// per worker), large enough that ticket traffic stays cheap, and
/// capped so pathological grids still interleave.
pub fn auto_grain(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 4)).clamp(1, 256)
}

/// Interprets one atomic-ticket claim: `start` is the value a
/// `fetch_add(grain)` on the job's `next` counter returned; the
/// result is the half-open block range this claim owns, or `None`
/// when the tickets ran out (an overshooting final claim observes
/// `start >= n` and retires). Pure so the `ecl-mc` ticket-claim
/// harness explores the *same* arithmetic the pool runs.
pub fn ticket_range(start: usize, n: usize, grain: usize) -> Option<(usize, usize)> {
    (start < n).then(|| (start, (start + grain).min(n)))
}

/// Runs `f(0..n)` across the effective worker set. Blocks run in an
/// unspecified order; each index exactly once. Panics in `f` are
/// propagated to the caller after all claimed blocks finish — worker
/// threads survive (they are pooled, not per-launch).
pub fn dispatch<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    dispatch_inner(n, &f, false);
}

/// [`dispatch`] with per-participant execution stats: every thread
/// that executed at least one block contributes one
/// [`WorkerStat`] (in completion order). Used by the launch layer
/// when an observer wants launch samples; costs one `Instant` pair per
/// ticket claim plus one short mutex per claim, none of which is paid
/// by the unprofiled [`dispatch`] path.
pub fn dispatch_profiled<F>(n: usize, f: F) -> Vec<WorkerStat>
where
    F: Fn(usize) + Sync,
{
    dispatch_inner(n, &f, true).unwrap_or_default()
}

fn dispatch_inner(n: usize, f: &(dyn Fn(usize) + Sync), profiled: bool) -> Option<Vec<WorkerStat>> {
    if n == 0 {
        return profiled.then(Vec::new);
    }
    let workers = effective_workers().min(n);
    if workers == 1 {
        let started = profiled.then(Instant::now);
        for i in 0..n {
            f(i);
        }
        return started.map(|t0| {
            vec![WorkerStat {
                blocks: n as u64,
                claims: 1,
                busy_ns: t0.elapsed().as_nanos() as u64,
            }]
        });
    }
    let grain = POLICY.with(|p| p.get()).grain.unwrap_or_else(|| auto_grain(n, workers)).max(1);
    pooled_dispatch(n, workers, grain, f, profiled)
}

/// Number of pool workers spawned so far (0 until the first parallel
/// pooled dispatch or [`prewarm`] call).
pub fn worker_count() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

/// Ensures the pool can serve the effective worker count without
/// spawning on the first launch's critical path. Idempotent and cheap
/// when already warm; called by `Device::new`.
pub fn prewarm() {
    let target = effective_workers();
    if target > 1 {
        pool().ensure_workers(target - 1);
    }
}

/// One in-flight dispatch. Workers claim `grain`-sized index ranges
/// off `next`; the worker whose claim completes the final block
/// retires the job from the queue and wakes the submitter.
struct Job {
    /// Next unclaimed block index (may overshoot `n` once per worker).
    next: AtomicUsize,
    /// Blocks claimed but not yet finished, plus blocks unclaimed.
    remaining: AtomicUsize,
    n: usize,
    grain: usize,
    /// Request context of the submitting thread (`ecl-obs`
    /// correlation; 0 = none). Workers re-enter it around their claims
    /// so per-thread trace streams stay attributable even when workers
    /// interleave claims from several concurrent jobs.
    ctx: u64,
    /// The dispatch closure with its lifetime erased. See the SAFETY
    /// argument at the transmute in [`pooled_dispatch`].
    func: &'static (dyn Fn(usize) + Sync),
    /// First panic payload observed while running blocks.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Per-participant stats when this dispatch is profiled. Each
    /// claim's contribution is merged in *before* that claim's
    /// `remaining` decrement, so by the time the job retires (and the
    /// submitter wakes) every executed block is accounted for.
    stats: Option<Mutex<Vec<WorkerStat>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

struct PoolShared {
    /// In-flight jobs. Concurrent dispatches (e.g. two tests launching
    /// at once) coexist; workers scan for any job with tickets left.
    queue: Mutex<Vec<Arc<Job>>>,
    /// Signals workers that the queue gained work.
    work_cv: Condvar,
    /// Workers spawned so far (they park forever when idle; the pool
    /// never shrinks — bounded by the largest worker count requested).
    spawned: AtomicUsize,
    /// Serializes spawning.
    grow: Mutex<()>,
}

fn pool() -> &'static PoolShared {
    static POOL: OnceLock<PoolShared> = OnceLock::new();
    POOL.get_or_init(|| PoolShared {
        queue: Mutex::new(Vec::new()),
        work_cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
        grow: Mutex::new(()),
    })
}

impl PoolShared {
    fn ensure_workers(&self, target: usize) {
        if self.spawned.load(Ordering::Acquire) >= target {
            return;
        }
        let _grow = self.grow.lock().unwrap_or_else(|e| e.into_inner());
        while self.spawned.load(Ordering::Acquire) < target {
            let id = self.spawned.load(Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("ecl-sim-{id}"))
                .spawn(|| worker_loop(pool()))
                .expect("failed to spawn simulator pool worker");
            self.spawned.fetch_add(1, Ordering::Release);
        }
    }

    /// Claims and runs ticket ranges of `job` until none remain.
    fn run_job(&self, job: &Arc<Job>) {
        // Adopt the submitter's request context for the duration of
        // this job's claims (restored on return and on panic unwind).
        // On the submitting thread this re-enters the same id — a
        // cheap no-op with no trace marker.
        let _ctx = (job.ctx != 0).then(|| crate::ctx::CtxGuard::request(job.ctx));
        // Index of this thread's entry in `job.stats`, claimed lazily
        // on its first executed ticket range.
        let mut stat_slot: Option<usize> = None;
        loop {
            let claimed = job.next.fetch_add(job.grain, Ordering::Relaxed);
            let Some((start, end)) = ticket_range(claimed, job.n, job.grain) else {
                return;
            };
            let started = job.stats.as_ref().map(|_| Instant::now());
            for i in start..end {
                // Panics must not kill the pooled worker: record the
                // payload for the submitter and keep draining (every
                // block runs before the launch fails). Drop guards inside `f` (the launch shapes'
                // agent scope) run during this unwind, so no
                // per-thread checker state leaks past the block.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.func)(i))) {
                    let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                }
            }
            let finished = end - start;
            if let (Some(stats), Some(t0)) = (&job.stats, started) {
                // Merge before the `remaining` decrement below: the
                // job can only retire (waking the submitter to read
                // these stats) after every claim's decrement.
                let busy = t0.elapsed().as_nanos() as u64;
                let mut stats = stats.lock().unwrap_or_else(|e| e.into_inner());
                let idx = *stat_slot.get_or_insert_with(|| {
                    stats.push(WorkerStat::default());
                    stats.len() - 1
                });
                stats[idx].blocks += finished as u64;
                stats[idx].claims += 1;
                stats[idx].busy_ns += busy;
            }
            if job.remaining.fetch_sub(finished, Ordering::AcqRel) == finished {
                self.retire(job);
            }
        }
    }

    /// Removes a completed job from the queue and wakes its submitter.
    fn retire(&self, job: &Arc<Job>) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.retain(|j| !Arc::ptr_eq(j, job));
        drop(queue);
        let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        job.done_cv.notify_all();
    }
}

fn worker_loop(p: &'static PoolShared) {
    loop {
        let job = {
            let mut queue = p.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) =
                    queue.iter().find(|j| j.next.load(Ordering::Relaxed) < j.n).cloned()
                {
                    break job;
                }
                queue = p.work_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        p.run_job(&job);
    }
}

fn pooled_dispatch(
    n: usize,
    workers: usize,
    grain: usize,
    f: &(dyn Fn(usize) + Sync),
    profiled: bool,
) -> Option<Vec<WorkerStat>> {
    let p = pool();
    p.ensure_workers(workers - 1);
    // SAFETY: the only thing this transmute changes is the reference
    // lifetime. The erased reference is dropped before this function
    // returns: `run_job` stops dereferencing `func` once its final
    // ticket claim completes, `remaining` reaching zero retires the
    // job from the queue (so no parked worker can rediscover it), and
    // this function blocks on `done_cv` until that retirement — after
    // which the only live uses of `func` are gone. Workers that raced
    // a last overshooting `fetch_add` observe `start >= n` and return
    // without touching `func`.
    let func: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
    let job = Arc::new(Job {
        next: AtomicUsize::new(0),
        remaining: AtomicUsize::new(n),
        n,
        grain,
        ctx: crate::ctx::request(),
        func,
        panic: Mutex::new(None),
        stats: profiled.then(|| Mutex::new(Vec::new())),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    {
        let mut queue = p.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push(Arc::clone(&job));
    }
    p.work_cv.notify_all();
    // The submitting thread is a full participant — with one worker
    // configured no pool thread is involved at all.
    p.run_job(&job);
    let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
    while !*done {
        done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
    }
    drop(done);
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    job.stats.as_ref().map(|s| std::mem::take(&mut *s.lock().unwrap_or_else(|e| e.into_inner())))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn covers_exactly(n: usize, policy: DispatchPolicy) {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        with_policy(policy, || {
            dispatch(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} under {policy:?}");
        }
    }

    #[test]
    fn every_policy_runs_each_index_exactly_once() {
        for n in [0, 1, 2, 7, 64, 257] {
            covers_exactly(n, DispatchPolicy::sequential());
            covers_exactly(n, DispatchPolicy::pooled(4));
            covers_exactly(n, DispatchPolicy { grain: Some(3), ..DispatchPolicy::pooled(8) });
        }
    }

    #[test]
    fn commutative_sums_are_schedule_independent() {
        let total = |policy: DispatchPolicy| {
            let sum = AtomicU64::new(0);
            with_policy(policy, || {
                dispatch(1000, |i| {
                    sum.fetch_add(i as u64 * i as u64, Ordering::Relaxed);
                });
            });
            sum.load(Ordering::Relaxed)
        };
        let reference = total(DispatchPolicy::sequential());
        assert_eq!(total(DispatchPolicy::pooled(8)), reference);
        assert_eq!(
            total(DispatchPolicy { grain: Some(1), ..DispatchPolicy::pooled(3) }),
            reference
        );
    }

    #[test]
    fn pool_threads_persist_across_dispatches() {
        with_policy(DispatchPolicy::pooled(4), || {
            dispatch(16, |_| {});
            let after_first = worker_count();
            assert!(after_first >= 3, "pool should have spawned workers");
            for _ in 0..50 {
                dispatch(16, |_| {});
            }
            assert_eq!(worker_count(), after_first, "no per-launch spawning");
        });
    }

    #[test]
    fn panics_propagate_and_workers_survive() {
        let run = || {
            with_policy(DispatchPolicy::pooled(4), || {
                dispatch(64, |i| {
                    if i == 33 {
                        panic!("block 33 failed");
                    }
                });
            })
        };
        let err = catch_unwind(AssertUnwindSafe(run)).expect_err("must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "block 33 failed");
        // The pool is still serviceable after a panicked dispatch.
        covers_exactly(128, DispatchPolicy::pooled(4));
    }

    #[test]
    fn auto_grain_bounds() {
        assert_eq!(auto_grain(0, 4), 1);
        assert_eq!(auto_grain(15, 4), 1);
        assert_eq!(auto_grain(64, 4), 4);
        assert_eq!(auto_grain(1 << 20, 1), 256);
    }

    #[test]
    fn profiled_dispatch_accounts_every_block() {
        for policy in [
            DispatchPolicy::sequential(),
            DispatchPolicy::pooled(4),
            DispatchPolicy { grain: Some(3), ..DispatchPolicy::pooled(8) },
        ] {
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            let stats = with_policy(policy, || {
                dispatch_profiled(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{policy:?}");
            let blocks: u64 = stats.iter().map(|s| s.blocks).sum();
            assert_eq!(blocks, 257, "stats must account every block under {policy:?}");
            assert!(!stats.is_empty());
            assert!(stats.iter().all(|s| s.claims > 0), "{policy:?}: {stats:?}");
        }
    }

    #[test]
    fn profiled_dispatch_of_empty_grid() {
        assert!(dispatch_profiled(0, |_| {}).is_empty());
    }

    #[test]
    fn profiled_dispatch_measures_busy_time() {
        let stats = with_policy(DispatchPolicy::sequential(), || {
            dispatch_profiled(4, |_| std::thread::sleep(std::time::Duration::from_millis(2)))
        });
        assert_eq!(stats.len(), 1);
        assert!(stats[0].busy_ns >= 4_000_000, "slept ~8ms, got {}ns", stats[0].busy_ns);
    }

    #[test]
    fn with_policy_restores_on_exit() {
        let before = effective_workers();
        with_policy(DispatchPolicy::pooled(7), || {
            assert_eq!(effective_workers(), 7);
        });
        assert_eq!(effective_workers(), before);
    }
}
