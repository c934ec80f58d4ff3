//! Job scheduler: bounded admission, a fixed worker pool, deadlines,
//! cancellation, panic containment, and drain-on-shutdown.
//!
//! Admission is **reject, not queue**: once the queue holds
//! `max_queue` jobs, `submit` fails immediately (the HTTP layer maps
//! that to 429) instead of building unbounded backlog. Concurrency is
//! sized against the simulator's own parallelism — each job run
//! saturates [`ecl_gpusim::pool::effective_workers`] OS threads, so
//! running more than `available_parallelism / effective_workers` jobs
//! at once just thrashes.
//!
//! Shutdown is a drain: no new admissions (503), but every job already
//! admitted runs to a terminal state before `shutdown()` returns. The
//! e2e tests assert the "zero dropped in-flight jobs" half of that
//! contract.
//!
//! The queue itself is the lock-free [`EventRing`] (reactor pushes,
//! workers pop); idle workers park on a condvar with the re-check-
//! under-lock protocol the `ecl-mc` drain harness verifies, so a push
//! can never be lost between a worker's emptiness check and its wait.
//! Terminal transitions fire an optional *completion hook* — the
//! event-driven front end installs one that wakes its reactor so a
//! `wait_ms` submission is answered the moment its job finishes,
//! without any thread blocking in `wait_terminal`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cache::{result_key, ResultCache};
use crate::catalog::GraphCatalog;
use crate::exec::execute_for;
use crate::jobs::{Fault, JobEnd, JobRecord, JobSpec, JobState};
use crate::metrics::ServeMetrics;
use crate::ring::EventRing;

/// Observer invoked with a job's id right after it reaches a terminal
/// state (worker finish, start-deadline expiry, or cancellation).
/// Runs on whichever thread drove the transition — keep it cheap and
/// non-blocking (the reactor's hook pushes onto a ring and wakes).
pub type CompletionHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Scheduler sizing.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Queue capacity; submissions beyond it are rejected.
    pub max_queue: usize,
    /// Concurrent job executions (worker threads).
    pub max_concurrency: usize,
    /// Terminal jobs retained for status queries.
    pub max_history: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { max_queue: 64, max_concurrency: default_concurrency(), max_history: 4096 }
    }
}

/// Concurrency that avoids oversubscription: host parallelism divided
/// by the threads one simulated-device run already uses.
pub fn default_concurrency() -> usize {
    let host = std::thread::available_parallelism().map_or(4, |n| n.get());
    (host / ecl_gpusim::pool::effective_workers().max(1)).max(1)
}

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity (HTTP 429).
    QueueFull,
    /// The scheduler is draining for shutdown (HTTP 503).
    ShuttingDown,
}

struct Shared {
    queue: EventRing<Arc<JobRecord>>,
    /// Parking lot for idle workers. A worker only waits after
    /// re-checking the ring *while holding this lock*; wakers acquire
    /// it (empty) before notifying. That handshake is what makes the
    /// lock-free push + condvar park combination lost-wakeup-free.
    idle: Mutex<()>,
    work_ready: Condvar,
    hook: OnceLock<CompletionHook>,
    /// The server's flight recorder and SLO engine, once attached.
    obs: OnceLock<Arc<ecl_obs::Obs>>,
    shutdown: AtomicBool,
    running: AtomicUsize,
    jobs: Mutex<HashMap<u64, Arc<JobRecord>>>,
    next_id: AtomicU64,
    config: SchedulerConfig,
    catalog: Arc<GraphCatalog>,
    results: Arc<ResultCache>,
    metrics: Arc<ServeMetrics>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The scheduler. Construct with [`Scheduler::start`]; call
/// [`Scheduler::shutdown`] to drain (also runs on drop).
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `config.max_concurrency` workers.
    pub fn start(
        config: SchedulerConfig,
        catalog: Arc<GraphCatalog>,
        results: Arc<ResultCache>,
        metrics: Arc<ServeMetrics>,
    ) -> Scheduler {
        let shared = Arc::new(Shared {
            queue: EventRing::new(config.max_queue.max(1)),
            idle: Mutex::new(()),
            work_ready: Condvar::new(),
            hook: OnceLock::new(),
            obs: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            config: config.clone(),
            catalog,
            results,
            metrics,
        });
        let workers = (0..config.max_concurrency.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ecl-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { shared, workers: Mutex::new(workers) }
    }

    /// Admits a job or rejects it. Never blocks (the ring push is
    /// lock-free; the rejection bound is exactly `max_queue`).
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<JobRecord>, SubmitError> {
        self.submit_with_req(spec, 0)
    }

    /// [`Scheduler::submit`] with the originating HTTP request id
    /// attached, so every trace span and kernel sample the job produces
    /// carries the request that caused it (0 = no request context).
    pub fn submit_with_req(&self, spec: JobSpec, req: u64) -> Result<Arc<JobRecord>, SubmitError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(JobRecord::with_req(id, spec, req));
        if self.shared.queue.try_push(Arc::clone(&job)).is_err() {
            self.shared.metrics.admission_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        self.shared.metrics.jobs_admitted.fetch_add(1, Ordering::Relaxed);
        self.retain_history();
        lock(&self.shared.jobs).insert(id, Arc::clone(&job));
        // Acquire-then-drop the idle lock before notifying: a worker
        // between its ring re-check and its wait still holds the lock,
        // so this cannot slip into that window (`scheduler-drain`
        // harness protocol).
        drop(lock(&self.shared.idle));
        self.shared.work_ready.notify_one();
        Ok(job)
    }

    /// Installs the terminal-transition observer (first install wins;
    /// the server wires this to its reactor before serving traffic).
    pub fn set_completion_hook(&self, hook: CompletionHook) {
        let _ = self.shared.hook.set(hook);
    }

    /// Attaches the server's observability state (first attach wins):
    /// jobs carrying a request id are recorded into it.
    pub(crate) fn set_obs(&self, obs: Arc<ecl_obs::Obs>) {
        let _ = self.shared.obs.set(obs);
    }

    /// Looks up a job by id.
    pub fn job(&self, id: u64) -> Option<Arc<JobRecord>> {
        lock(&self.shared.jobs).get(&id).cloned()
    }

    /// All known jobs (admitted and retained terminal).
    pub fn jobs_snapshot(&self) -> Vec<Arc<JobRecord>> {
        lock(&self.shared.jobs).values().cloned().collect()
    }

    /// Cancels a queued job. Returns `false` if the job already
    /// started (running jobs are not preemptible).
    pub fn cancel(&self, job: &JobRecord) -> bool {
        job.request_cancel();
        let cancelled = job
            .transition(JobState::Cancelled, Some(JobEnd::Message("cancelled by client".into())));
        if cancelled {
            self.shared.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            observe_terminal(&self.shared, job);
            notify_completion(&self.shared, job.id);
        }
        cancelled
    }

    /// Jobs waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.shared.running.load(Ordering::Relaxed)
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Begins draining without blocking: stops admissions and wakes
    /// idle workers (they exit once the queue empties). Used by the
    /// HTTP shutdown route, which must answer before the drain ends;
    /// [`Scheduler::shutdown`] still performs the join.
    pub fn begin_drain(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Same acquire-then-notify handshake as `submit`: a worker
        // that read the flag as false under the idle lock is still
        // holding it, so the notify below cannot be lost.
        drop(lock(&self.shared.idle));
        self.shared.work_ready.notify_all();
    }

    /// Drains: stops admissions, lets every admitted job reach a
    /// terminal state, joins the workers. Idempotent.
    pub fn shutdown(&self) {
        self.begin_drain();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // A submit can race the drain flag: it passed the shutdown
        // check, then pushed after the last worker exited. Run any
        // such leftovers inline so "zero dropped admitted jobs" holds
        // unconditionally.
        while let Some(job) = self.shared.queue.pop() {
            self.shared.running.fetch_add(1, Ordering::Relaxed);
            run_one(&self.shared, &job);
            self.shared.running.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Evicts oldest terminal jobs beyond the history cap.
    fn retain_history(&self) {
        let mut jobs = lock(&self.shared.jobs);
        if jobs.len() < self.shared.config.max_history {
            return;
        }
        let mut terminal: Vec<u64> =
            jobs.iter().filter(|(_, j)| j.state().is_terminal()).map(|(&id, _)| id).collect();
        terminal.sort_unstable();
        let excess = jobs.len().saturating_sub(self.shared.config.max_history / 2);
        for id in terminal.into_iter().take(excess) {
            jobs.remove(&id);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if let Some(job) = shared.queue.pop() {
            shared.running.fetch_add(1, Ordering::Relaxed);
            run_one(shared, &job);
            shared.running.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        // Park protocol: re-check the ring *under the idle lock*.
        // Pushers acquire the same lock before notifying, so a push
        // between the re-check and the wait is impossible to miss.
        let guard = lock(&shared.idle);
        if !shared.queue.is_empty() {
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        drop(shared.work_ready.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner));
    }
}

/// Fires the completion hook, if one is installed.
fn notify_completion(shared: &Shared, id: u64) {
    if let Some(hook) = shared.hook.get() {
        hook(id);
    }
}

/// Takes one admitted job to a terminal state.
fn run_one(shared: &Shared, job: &Arc<JobRecord>) {
    // Client cancellation won the race: the record is already terminal.
    if job.state().is_terminal() {
        return;
    }
    // Start-deadline check: a job that waited too long never runs.
    if let Some(deadline) = job.deadline() {
        if Instant::now() >= deadline {
            // Counted before the transition so a waiter woken by the
            // terminal state always observes the metric; undone on the
            // rare lost race with a concurrent cancellation.
            shared.metrics.jobs_deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            if job.transition(
                JobState::DeadlineExceeded,
                Some(JobEnd::Message("start deadline exceeded while queued".into())),
            ) {
                observe_terminal(shared, job);
                notify_completion(shared, job.id);
            } else {
                shared.metrics.jobs_deadline_exceeded.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
    }
    if !job.transition(JobState::Running, None) {
        return; // Lost a race with cancellation.
    }

    // Request-context scope: every trace span and kernel sample emitted
    // below this point (including from the simulator's worker threads,
    // which inherit the context through the pool's job records) carries
    // the originating request id. Jobs without one skip all of it.
    let _ctx = (job.req != 0).then(|| ecl_gpusim::ctx::CtxGuard::request(job.req));
    let obs = shared.obs.get().filter(|_| job.req != 0);
    if let Some(obs) = obs {
        obs.recorder.begin(job.req, job.id, job.spec.algo.name(), &job.spec.graph);
    }

    let spec = job.spec.clone();
    // Result-cache probe. Resolving the graph here is not wasted work:
    // the catalog memoizes it, so a subsequent miss-path execute() gets
    // a cache hit. Faulted jobs bypass the cache — they exist to
    // exercise the execution path.
    let probe_start = Instant::now();
    let resolved = if spec.fault == Fault::None {
        shared
            .catalog
            .resolve(&spec.graph, spec.scale, spec.seed, spec.algo.algorithm().weighted())
            .ok()
    } else {
        None
    };
    let key = resolved.as_ref().map(|g| result_key(g.content_hash, &spec));
    let hit = key.as_ref().and_then(|k| shared.results.get(k));
    if let Some(obs) = obs {
        let probe_ns = probe_start.elapsed().as_nanos() as u64;
        obs.recorder.on_phase(job.req, "cache.probe", probe_ns);
    }
    if let Some(hit) = hit {
        job.mark_cached();
        shared.metrics.result_cache_serves.fetch_add(1, Ordering::Relaxed);
        finish(shared, job, JobState::Done, JobEnd::Output(Box::new((*hit).clone())));
        return;
    }

    // Per-request trace span: the algorithm's own kernel/phase events
    // (recorded through the same installed tracer) nest inside it, so
    // an exported timeline shows which request drove which launches.
    // Tuned jobs (manifest schedule attached to the resolved graph)
    // get a `/tuned` suffix so timelines separate the two populations.
    let tuned = resolved.as_ref().is_some_and(|g| g.schedule_for(spec.algo.name()).is_some());
    let span = if tuned {
        format!("serve.job/{}/tuned", spec.algo.name())
    } else {
        format!("serve.job/{}", spec.algo.name())
    };
    let outcome = ecl_gpusim::observe::phase_span(ecl_gpusim::observe::defaults(), &span, || {
        catch_unwind(AssertUnwindSafe(|| execute_for(&spec, &shared.catalog, obs)))
    });
    match outcome {
        Ok(Ok(output)) => {
            if let Some(k) = key {
                shared.results.put(k, Arc::new(output.clone()));
            }
            finish(shared, job, JobState::Done, JobEnd::Output(Box::new(output)));
        }
        Ok(Err(message)) => {
            finish(shared, job, JobState::Failed, JobEnd::Message(message));
        }
        Err(panic) => {
            shared.metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            finish(shared, job, JobState::Failed, JobEnd::Message(format!("job panicked: {msg}")));
        }
    }
}

fn finish(shared: &Shared, job: &Arc<JobRecord>, state: JobState, end: JobEnd) {
    // Counted before the transition so a waiter woken by the terminal
    // state always observes the metrics; undone on the rare lost race
    // with a concurrent cancellation. The tuned=true/false split
    // includes cache-served results — the cached output remembers how
    // it was computed.
    let state_ctr = match state {
        JobState::Done => Some(&shared.metrics.jobs_done),
        JobState::Failed => Some(&shared.metrics.jobs_failed),
        _ => None,
    };
    let tuned_ctr = match &end {
        JobEnd::Output(o) if o.tuned => Some(&shared.metrics.jobs_tuned),
        JobEnd::Output(_) => Some(&shared.metrics.jobs_untuned),
        JobEnd::Message(_) => None,
    };
    for ctr in [state_ctr, tuned_ctr].into_iter().flatten() {
        ctr.fetch_add(1, Ordering::Relaxed);
    }
    if !job.transition(state, Some(end)) {
        for ctr in [state_ctr, tuned_ctr].into_iter().flatten() {
            ctr.fetch_sub(1, Ordering::Relaxed);
        }
        return;
    }
    // Flight-recorder/SLO record lands *before* the completion hook: a
    // client answered through the hook can immediately fetch the trace.
    observe_terminal(shared, job);
    notify_completion(shared, job.id);
    let st = job.status();
    shared.metrics.record_latency(
        job.spec.algo,
        (st.queue_ms * 1e3) as u64,
        (st.run_ms * 1e3) as u64,
    );
}

/// Folds a just-terminal job into the observability state (flight
/// recorder + SLO engine), if one is attached and the job carries a
/// request id. Called exactly once per terminal transition, from
/// whichever path won the transition race.
fn observe_terminal(shared: &Shared, job: &JobRecord) {
    let Some(obs) = shared.obs.get().filter(|_| job.req != 0) else { return };
    let state = job.state();
    let st = job.status();
    let queue_ns = (st.queue_ms * 1e6) as u64;
    let run_ns = (st.run_ms * 1e6) as u64;
    let (graph_hash, tuned, rounds) = job
        .with_output(|o| {
            let rounds = o
                .aggregates
                .iter()
                .find(|(n, _)| *n == "rounds" || *n == "outer_iterations")
                .map_or(0, |&(_, v)| v);
            (o.graph_hash, o.tuned, rounds)
        })
        .unwrap_or((0, false, 0));
    let info = ecl_obs::FinishInfo {
        outcome: state.name().to_string(),
        graph_hash,
        tuned,
        cached: st.cached,
        queue_ns,
        run_ns,
        rounds,
    };
    obs.recorder.finish(job.req, job.id, job.spec.algo.name(), &job.spec.graph, info);
    if let Some(slo) = &obs.slo {
        slo.observe(job.spec.algo.name(), job.req, queue_ns + run_ns, state == JobState::Done);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::jobs::Algo;
    use std::time::Duration;

    fn harness(config: SchedulerConfig) -> (Scheduler, Arc<ServeMetrics>) {
        let metrics = ServeMetrics::new();
        let sched = Scheduler::start(
            config,
            Arc::new(GraphCatalog::new(CatalogConfig::default())),
            Arc::new(ResultCache::new(64)),
            Arc::clone(&metrics),
        );
        (sched, metrics)
    }

    fn quick_spec() -> JobSpec {
        JobSpec::new(Algo::Cc, "internet")
    }

    #[test]
    fn submit_run_and_cache_hit() {
        let (sched, metrics) = harness(SchedulerConfig::default());
        let a = sched.submit(quick_spec()).unwrap();
        assert_eq!(a.wait_terminal(Duration::from_secs(60)), JobState::Done);
        let b = sched.submit(quick_spec()).unwrap();
        assert_eq!(b.wait_terminal(Duration::from_secs(60)), JobState::Done);
        assert!(b.status().cached, "identical resubmission must hit the result cache");
        let (na, nb) =
            (a.with_output(|o| o.clone()).unwrap(), b.with_output(|o| o.clone()).unwrap());
        assert_eq!(na, nb, "cache hit must be bit-identical");
        assert_eq!(metrics.result_cache_serves.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn queue_overflow_rejects() {
        let (sched, metrics) =
            harness(SchedulerConfig { max_queue: 2, max_concurrency: 1, max_history: 64 });
        // Stall the single worker with a long delay job.
        let mut slow = quick_spec();
        slow.fault = Fault::DelayMs(300);
        let stalled = sched.submit(slow).unwrap();
        // Wait until the worker picked it up (queue empty again).
        let t0 = Instant::now();
        while sched.running() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        // Fill the queue, then overflow.
        sched.submit(quick_spec()).unwrap();
        sched.submit(quick_spec()).unwrap();
        assert!(matches!(sched.submit(quick_spec()), Err(SubmitError::QueueFull)));
        assert_eq!(metrics.admission_rejections.load(Ordering::Relaxed), 1);
        assert_eq!(stalled.wait_terminal(Duration::from_secs(60)), JobState::Done);
    }

    #[test]
    fn panic_is_contained_and_worker_survives() {
        let (sched, metrics) =
            harness(SchedulerConfig { max_queue: 8, max_concurrency: 1, max_history: 64 });
        let mut bad = quick_spec();
        bad.fault = Fault::Panic;
        let b = sched.submit(bad).unwrap();
        assert_eq!(b.wait_terminal(Duration::from_secs(30)), JobState::Failed);
        assert!(b.end_message().unwrap().contains("panicked"));
        assert_eq!(metrics.jobs_panicked.load(Ordering::Relaxed), 1);
        // The same (single) worker must still process new jobs.
        let ok = sched.submit(quick_spec()).unwrap();
        assert_eq!(ok.wait_terminal(Duration::from_secs(60)), JobState::Done);
    }

    #[test]
    fn cancellation_and_deadline_while_queued() {
        let (sched, metrics) =
            harness(SchedulerConfig { max_queue: 8, max_concurrency: 1, max_history: 64 });
        let mut slow = quick_spec();
        slow.fault = Fault::DelayMs(400);
        sched.submit(slow).unwrap();
        // Cancel a queued job before the worker reaches it.
        let c = sched.submit(quick_spec()).unwrap();
        assert!(sched.cancel(&c));
        assert_eq!(c.state(), JobState::Cancelled);
        // A 1ms start deadline behind a 400ms job always expires.
        let mut dead = quick_spec();
        dead.deadline_ms = Some(1);
        let d = sched.submit(dead).unwrap();
        assert_eq!(d.wait_terminal(Duration::from_secs(30)), JobState::DeadlineExceeded);
        assert_eq!(metrics.jobs_cancelled.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.jobs_deadline_exceeded.load(Ordering::Relaxed), 1);
        // Cancelling a terminal job reports false.
        assert!(!sched.cancel(&d));
    }

    #[test]
    fn completion_hook_fires_exactly_once_per_terminal_job() {
        let (sched, _) =
            harness(SchedulerConfig { max_queue: 8, max_concurrency: 1, max_history: 64 });
        let fired = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&fired);
        sched.set_completion_hook(Arc::new(move |id| lock(&sink).push(id)));
        // Worker finish path.
        let done = sched.submit(quick_spec()).unwrap();
        assert_eq!(done.wait_terminal(Duration::from_secs(60)), JobState::Done);
        // Cancellation path: park the worker first so the job stays
        // queued long enough to cancel.
        let mut slow = quick_spec();
        slow.fault = Fault::DelayMs(300);
        sched.submit(slow).unwrap();
        let queued = sched.submit(quick_spec()).unwrap();
        assert!(sched.cancel(&queued));
        sched.shutdown();
        let ids = lock(&fired).clone();
        assert!(ids.contains(&done.id), "finish fires the hook: {ids:?}");
        assert!(ids.contains(&queued.id), "cancel fires the hook: {ids:?}");
        let hits = ids.iter().filter(|&&i| i == done.id).count();
        assert_eq!(hits, 1, "exactly one notification per job: {ids:?}");
    }

    #[test]
    fn shutdown_drains_every_admitted_job() {
        let (sched, _) =
            harness(SchedulerConfig { max_queue: 32, max_concurrency: 2, max_history: 64 });
        let jobs: Vec<_> = (0..6)
            .map(|i| {
                let mut s = quick_spec();
                s.fault = Fault::DelayMs(30 + i);
                sched.submit(s).unwrap()
            })
            .collect();
        sched.shutdown();
        for j in &jobs {
            assert_eq!(j.state(), JobState::Done, "job {} dropped by shutdown", j.id);
        }
        assert!(matches!(sched.submit(quick_spec()), Err(SubmitError::ShuttingDown)));
    }

    /// A catalog whose manifest pins an optimized-init CC schedule to
    /// the family of `quick_spec()`'s graph at its (scale, seed).
    fn tuned_catalog() -> Arc<GraphCatalog> {
        let plain = GraphCatalog::new(CatalogConfig::default());
        let g = plain.resolve("internet", 0.001, 0, false).unwrap();
        let sketch = ecl_profiling::LogSketch::new();
        sketch.record(1);
        let manifest = ecl_tune::TuneManifest::new(vec![ecl_tune::TuneEntry {
            algo: "cc".into(),
            input: "internet".into(),
            family: g.fingerprint.family_key(),
            fingerprint: g.fingerprint.clone(),
            scale: 0.001,
            seed: 0,
            method: "exhaustive".into(),
            evaluations: 1,
            space: 1,
            default_time: 2.0,
            tuned_time: 1.0,
            eval_sketch: sketch.snapshot(),
            schedule: Algo::Cc
                .algorithm()
                .default_schedule()
                .with("optimized_init", ecl_gpusim::KnobValue::Bool(true)),
        }]);
        Arc::new(GraphCatalog::new(CatalogConfig {
            tune: Some(Arc::new(manifest)),
            ..CatalogConfig::default()
        }))
    }

    #[test]
    fn jobs_record_per_request_trace_spans() {
        let tracer = Arc::new(ecl_trace::Tracer::with_clock(ecl_trace::ClockMode::Wall));
        ecl_trace::sink::install(Arc::clone(&tracer));
        let (sched, _) =
            harness(SchedulerConfig { max_queue: 8, max_concurrency: 1, max_history: 64 });
        let job = sched.submit(quick_spec()).unwrap();
        assert_eq!(job.wait_terminal(Duration::from_secs(60)), JobState::Done);
        sched.shutdown();
        // Same tracer, second scheduler with a manifest-bearing
        // catalog: the span gains the /tuned suffix.
        let metrics = ServeMetrics::new();
        let tuned_sched = Scheduler::start(
            SchedulerConfig { max_queue: 8, max_concurrency: 1, max_history: 64 },
            tuned_catalog(),
            Arc::new(ResultCache::new(64)),
            Arc::clone(&metrics),
        );
        let job = tuned_sched.submit(quick_spec()).unwrap();
        assert_eq!(job.wait_terminal(Duration::from_secs(60)), JobState::Done);
        tuned_sched.shutdown();
        ecl_trace::sink::uninstall();
        let snap = tracer.snapshot();
        assert!(
            snap.strings.iter().any(|s| s == "serve.job/cc"),
            "no serve.job span interned: {:?}",
            snap.strings
        );
        assert!(
            snap.strings.iter().any(|s| s == "serve.job/cc/tuned"),
            "no tuned serve.job span interned: {:?}",
            snap.strings
        );
    }

    #[test]
    fn tuned_jobs_split_the_done_counters() {
        let metrics = ServeMetrics::new();
        let sched = Scheduler::start(
            SchedulerConfig { max_queue: 8, max_concurrency: 1, max_history: 64 },
            tuned_catalog(),
            Arc::new(ResultCache::new(64)),
            Arc::clone(&metrics),
        );
        // CC hits the manifest; MIS has no entry and runs defaults.
        let a = sched.submit(quick_spec()).unwrap();
        let b = sched.submit(JobSpec::new(Algo::Mis, "internet")).unwrap();
        assert_eq!(a.wait_terminal(Duration::from_secs(60)), JobState::Done);
        assert_eq!(b.wait_terminal(Duration::from_secs(60)), JobState::Done);
        assert!(a.with_output(|o| o.tuned).unwrap());
        assert!(!b.with_output(|o| o.tuned).unwrap());
        assert_eq!(metrics.jobs_tuned.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.jobs_untuned.load(Ordering::Relaxed), 1);
        // A cache hit of the tuned result still counts as tuned.
        let c = sched.submit(quick_spec()).unwrap();
        assert_eq!(c.wait_terminal(Duration::from_secs(60)), JobState::Done);
        assert!(c.status().cached);
        assert_eq!(metrics.jobs_tuned.load(Ordering::Relaxed), 2);
    }
}
