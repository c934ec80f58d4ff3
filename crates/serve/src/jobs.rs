//! Job model: what a client submits, the lifecycle state machine, and
//! the completed-run record.
//!
//! The state machine is deliberately explicit — [`JobState::can_become`]
//! is the single source of truth for legal transitions, the scheduler
//! goes through [`JobRecord::transition`] for every change, and a
//! proptest (`tests/job_state_proptests.rs`) checks that no sequence
//! of scheduler-shaped events can produce an illegal transition:
//!
//! ```text
//! queued ──▶ running ──▶ done | failed | deadline-exceeded
//!    │                                 ▲
//!    └─────▶ cancelled | deadline-exceeded (before ever running)
//! ```
//!
//! Terminal states are sinks; `cancelled` is reachable only from
//! `queued` (a running job cannot be preempted mid-kernel — the
//! simulator's launches are not interruptible, matching a real GPU).

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::exec::RunOutput;

/// The five servable algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// ECL-CC connected components.
    Cc,
    /// ECL-GC graph coloring.
    Gc,
    /// ECL-MIS maximal independent set.
    Mis,
    /// ECL-MST minimum spanning tree.
    Mst,
    /// ECL-SCC strongly connected components.
    Scc,
}

impl Algo {
    /// Stable wire name — the registered algorithm's.
    pub fn name(self) -> &'static str {
        self.algorithm().name()
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<Algo> {
        Algo::ALL.into_iter().find(|a| a.name() == s)
    }

    /// The registered implementation: variants are declared in
    /// [`ecl_algos::ALL`] order (`tests/algo_registry.rs` holds the
    /// parity).
    pub fn algorithm(self) -> &'static dyn ecl_algos::Algorithm {
        ecl_algos::ALL[self as usize]
    }

    /// All five, in wire order.
    pub const ALL: [Algo; 5] = [Algo::Cc, Algo::Gc, Algo::Mis, Algo::Mst, Algo::Scc];
}

/// Fault injected into a job for testing the server's isolation
/// (never set by well-behaved clients; documented in the README).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Fault {
    /// No fault.
    #[default]
    None,
    /// Panic inside the job body — the scheduler must contain it.
    Panic,
    /// Sleep this many milliseconds before running (makes queueing,
    /// deadline, and drain tests deterministic).
    DelayMs(u32),
}

/// Everything a `POST /v1/jobs` body can specify.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Algorithm to run.
    pub algo: Algo,
    /// Catalog graph name (registry input or `--graphs-dir` file stem).
    pub graph: String,
    /// Input scale for generated graphs (1.0 = paper size).
    pub scale: f64,
    /// Deterministic job seed: feeds the generator registry, the MST
    /// weight hashing, and the MIS tie-break permutation, so identical
    /// `(algo, graph, scale, seed, params)` requests are byte-identical.
    pub seed: u64,
    /// SCC/GC block size override.
    pub block_size: Option<usize>,
    /// Number of dispatch-pool shards (modeled GPUs). 1 = single-pool
    /// execution through the ordinary kernels; >1 routes CC/MIS/SCC
    /// through `ecl-shard` with one device per shard.
    pub shards: u32,
    /// Relative deadline; a job that has not *started* by then is
    /// failed with `deadline-exceeded` instead of running.
    pub deadline_ms: Option<u64>,
    /// Test-only fault injection.
    pub fault: Fault,
}

impl JobSpec {
    /// A well-formed default spec for `algo` on `graph` (tests).
    pub fn new(algo: Algo, graph: &str) -> JobSpec {
        JobSpec {
            algo,
            graph: graph.to_string(),
            scale: 0.001,
            seed: 0,
            block_size: None,
            shards: 1,
            deadline_ms: None,
            fault: Fault::None,
        }
    }

    /// The canonical parameter string used in result-cache keys and
    /// status bodies: every field that affects the output, in a fixed
    /// order. (Deadline and fault do not change *what* is computed.)
    pub fn param_key(&self) -> String {
        format!(
            "algo={};scale={};seed={};block_size={};shards={}",
            self.algo.name(),
            // Exact bit pattern: 0.1 and 0.1000001 must not collide.
            self.scale.to_bits(),
            self.seed,
            self.block_size.map_or(-1i64, |b| b as i64),
            // Sharded and single-pool runs share a cache entry only if
            // bit-identical — which they are for results, but not for
            // modeled time, so the shard count is always part of the
            // key.
            self.shards,
        )
    }
}

/// Lifecycle states. Wire names are the kebab-case of the variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Admitted, waiting for a scheduler slot.
    Queued,
    /// Executing.
    Running,
    /// Completed successfully; a result is attached.
    Done,
    /// The job body failed (panic, unknown graph, bad configuration).
    Failed,
    /// Cancelled while still queued.
    Cancelled,
    /// Missed its deadline before starting.
    DeadlineExceeded,
}

impl JobState {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Whether the job has reached a sink state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The transition relation — the *only* definition of legality.
    pub fn can_become(self, next: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, next),
            (Queued, Running)
                | (Queued, Cancelled)
                | (Queued, DeadlineExceeded)
                | (Running, Done)
                | (Running, Failed)
                | (Running, DeadlineExceeded)
        )
    }
}

/// What terminated a job, attached at the terminal transition.
#[derive(Debug)]
pub enum JobEnd {
    /// Success, with the run's output.
    Output(Box<RunOutput>),
    /// Failure or cancellation message.
    Message(String),
}

/// Shared mutable state of one admitted job.
#[derive(Debug)]
struct JobInner {
    state: JobState,
    end: Option<JobEnd>,
    /// Whether the result came from the result cache.
    cached: bool,
    /// Set → a cancel request arrived while queued.
    cancel_requested: bool,
    queued_at: Instant,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
}

/// One admitted job: spec + monitored lifecycle state.
#[derive(Debug)]
pub struct JobRecord {
    /// Server-assigned id.
    pub id: u64,
    /// Originating HTTP request id (`ecl-obs` correlation; 0 for jobs
    /// submitted outside the HTTP surface, e.g. direct scheduler use).
    pub req: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    inner: Mutex<JobInner>,
    changed: Condvar,
}

/// Snapshot of a job's observable state for status bodies.
#[derive(Debug)]
pub struct JobStatus {
    /// Current state.
    pub state: JobState,
    /// Whether the result was a cache hit.
    pub cached: bool,
    /// Milliseconds spent queued (so far, or total once started).
    pub queue_ms: f64,
    /// Milliseconds spent running (0 until started).
    pub run_ms: f64,
}

impl JobRecord {
    /// A freshly admitted job in `Queued` with no request context.
    pub fn new(id: u64, spec: JobSpec) -> JobRecord {
        JobRecord::with_req(id, spec, 0)
    }

    /// A freshly admitted job in `Queued`, correlated to the HTTP
    /// request that submitted it.
    pub fn with_req(id: u64, spec: JobSpec, req: u64) -> JobRecord {
        JobRecord {
            id,
            req,
            spec,
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                end: None,
                cached: false,
                cancel_requested: false,
                queued_at: Instant::now(),
                started_at: None,
                finished_at: None,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobInner> {
        // A panicking job never holds this lock (the scheduler
        // transitions outside catch_unwind), so poisoning here means a
        // bug in the server itself, not in a job body.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// Attempts `next`; returns whether the transition was applied.
    /// Illegal transitions are rejected (not panics): the scheduler
    /// races cancellation against startup, and the loser must be a
    /// clean no-op.
    pub fn transition(&self, next: JobState, end: Option<JobEnd>) -> bool {
        let mut g = self.lock();
        if !g.state.can_become(next) {
            return false;
        }
        g.state = next;
        match next {
            JobState::Running => g.started_at = Some(Instant::now()),
            _ if next.is_terminal() => {
                g.finished_at = Some(Instant::now());
                g.end = end;
            }
            _ => {}
        }
        drop(g);
        self.changed.notify_all();
        true
    }

    /// Marks the result as served from the result cache.
    pub fn mark_cached(&self) {
        self.lock().cached = true;
    }

    /// Requests cancellation. Returns true if the job was still queued
    /// (it will be cancelled before it can start).
    pub fn request_cancel(&self) -> bool {
        let mut g = self.lock();
        if g.state == JobState::Queued {
            g.cancel_requested = true;
            true
        } else {
            false
        }
    }

    /// Whether a cancel request is pending (checked by the scheduler
    /// before starting the job).
    pub fn cancel_requested(&self) -> bool {
        self.lock().cancel_requested
    }

    /// The absolute start deadline, if the spec set one.
    pub fn deadline(&self) -> Option<Instant> {
        let g = self.lock();
        self.spec.deadline_ms.map(|ms| g.queued_at + Duration::from_millis(ms))
    }

    /// Observable status snapshot.
    pub fn status(&self) -> JobStatus {
        let g = self.lock();
        let queue_end = g.started_at.or(g.finished_at).unwrap_or_else(Instant::now);
        let run_ms = match (g.started_at, g.finished_at) {
            (Some(s), Some(f)) => f.duration_since(s).as_secs_f64() * 1e3,
            (Some(s), None) => s.elapsed().as_secs_f64() * 1e3,
            _ => 0.0,
        };
        JobStatus {
            state: g.state,
            cached: g.cached,
            queue_ms: queue_end.duration_since(g.queued_at).as_secs_f64() * 1e3,
            run_ms,
        }
    }

    /// Runs `f` on the terminal output, if the job ended with one.
    pub fn with_output<R>(&self, f: impl FnOnce(&RunOutput) -> R) -> Option<R> {
        let g = self.lock();
        match &g.end {
            Some(JobEnd::Output(out)) => Some(f(out)),
            _ => None,
        }
    }

    /// The failure/cancellation message, if the job ended with one.
    pub fn end_message(&self) -> Option<String> {
        let g = self.lock();
        match &g.end {
            Some(JobEnd::Message(m)) => Some(m.clone()),
            _ => None,
        }
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses; returns the final observed state.
    pub fn wait_terminal(&self, timeout: Duration) -> JobState {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock();
        while !g.state.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g = guard;
        }
        g.state
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_roundtrip() {
        for a in Algo::ALL {
            assert_eq!(Algo::from_name(a.name()), Some(a));
        }
        assert_eq!(Algo::from_name("bfs"), None);
    }

    #[test]
    fn transition_relation_shape() {
        use JobState::*;
        let all = [Queued, Running, Done, Failed, Cancelled, DeadlineExceeded];
        for s in all {
            // Terminal states are sinks.
            if s.is_terminal() {
                assert!(all.iter().all(|&t| !s.can_become(t)), "{s:?} must be a sink");
            }
            // No self-loops anywhere.
            assert!(!s.can_become(s));
        }
        assert!(Queued.can_become(Running));
        assert!(Queued.can_become(Cancelled));
        assert!(!Running.can_become(Cancelled));
        assert!(!Queued.can_become(Done), "a job cannot finish without running");
    }

    #[test]
    fn record_lifecycle_and_timing() {
        let job = JobRecord::new(7, JobSpec::new(Algo::Cc, "internet"));
        assert_eq!(job.state(), JobState::Queued);
        assert!(job.transition(JobState::Running, None));
        assert!(!job.transition(JobState::Cancelled, None), "running can't cancel");
        assert!(job.transition(JobState::Done, Some(JobEnd::Message("x".into()))));
        assert!(!job.transition(JobState::Failed, None), "done is a sink");
        let st = job.status();
        assert_eq!(st.state, JobState::Done);
        assert!(st.queue_ms >= 0.0 && st.run_ms >= 0.0);
        assert_eq!(job.wait_terminal(Duration::from_millis(1)), JobState::Done);
    }

    #[test]
    fn cancel_only_while_queued() {
        let job = JobRecord::new(1, JobSpec::new(Algo::Mis, "internet"));
        assert!(job.request_cancel());
        assert!(job.cancel_requested());
        assert!(job.transition(JobState::Cancelled, Some(JobEnd::Message("cancelled".into()))));
        let job2 = JobRecord::new(2, JobSpec::new(Algo::Mis, "internet"));
        job2.transition(JobState::Running, None);
        assert!(!job2.request_cancel());
    }

    #[test]
    fn param_key_separates_everything_relevant() {
        let a = JobSpec::new(Algo::Cc, "internet");
        let mut b = a.clone();
        b.seed = 1;
        let mut c = a.clone();
        c.scale = 0.0011;
        let mut d = a.clone();
        d.block_size = Some(64);
        let mut f = a.clone();
        f.shards = 4;
        let mut keys: Vec<String> = [&a, &b, &c, &d, &f].iter().map(|s| s.param_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 5);
        // Deadline and fault do NOT affect the key.
        let mut e = a.clone();
        e.deadline_ms = Some(5);
        e.fault = Fault::DelayMs(1);
        assert_eq!(a.param_key(), e.param_key());
    }
}
