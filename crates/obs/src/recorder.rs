//! The flight recorder: an always-on, bounded black box of recent
//! request activity.
//!
//! Three tiers of retention, all bounded so the recorder can stay on
//! in production forever:
//!
//! 1. **Summary ring** — one compact [`RequestSummary`] per finished
//!    request, newest-evicts-oldest ([`RecorderConfig::ring`] entries).
//!    This is what `GET /v1/debug/requests` serves.
//! 2. **Recent traces** — the full per-kernel span list
//!    ([`RequestTrace`]) of the most recent requests
//!    ([`RecorderConfig::recent`] entries), so a trace endpoint can
//!    answer for anything that just happened.
//! 3. **Pinned slow traces** — requests whose total latency crossed
//!    [`RecorderConfig::slow_threshold_ns`] keep their full traces in
//!    a separate slowest-first set ([`RecorderConfig::pinned`]
//!    entries, evicting the least-slow). Postmortems of outliers need
//!    no pre-enabled tracing: the black box already has them.
//!
//! Kernel spans arrive via the observers' launch hook while the
//! request is in flight; per-request span counts are capped
//! ([`RecorderConfig::max_kernels`]) with explicit drop accounting, so
//! a pathological million-launch job cannot balloon the recorder.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ecl_profiling::LaunchSample;

/// Sizing and thresholds of the recorder. All bounds are hard.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Finished-request summaries retained.
    pub ring: usize,
    /// Full traces retained for the most recent requests.
    pub recent: usize,
    /// Full traces pinned for the slowest requests.
    pub pinned: usize,
    /// Total latency (queue + run) at or above which a request's trace
    /// is pinned as a slow outlier.
    pub slow_threshold_ns: u64,
    /// Kernel spans kept per request; further launches are counted but
    /// not stored.
    pub max_kernels: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring: 512,
            recent: 64,
            pinned: 32,
            slow_threshold_ns: 250_000_000,
            max_kernels: 4096,
        }
    }
}

/// One kernel launch attributed to a request.
#[derive(Clone, Debug)]
pub struct KernelSpan {
    /// Kernel name (the `*_named` launch name).
    pub kernel: String,
    /// Launch shape label.
    pub shape: &'static str,
    /// Launch sequence number within the request (0-based).
    pub seq: u32,
    /// Offset of the launch start from the request's run start.
    pub start_ns: u64,
    /// Submitter-side wall time of the dispatch.
    pub wall_ns: u64,
    /// Grid blocks.
    pub blocks: u64,
    /// Threads per block.
    pub block_size: u64,
    /// Load-imbalance factor × 1000 (fixed point).
    pub imbalance_milli: u64,
}

/// One host-side phase (cache probe, graph resolve) attributed to a
/// request.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: String,
    /// Offset from the request's run start.
    pub start_ns: u64,
    /// Phase duration.
    pub wall_ns: u64,
}

/// Terminal facts about a request, supplied by the scheduler at
/// completion.
#[derive(Clone, Debug, Default)]
pub struct FinishInfo {
    /// Terminal job state wire name (`done`, `failed`, …).
    pub outcome: String,
    /// Content hash of the resolved input graph (0 when unresolved).
    pub graph_hash: u64,
    /// Whether a manifest schedule was applied.
    pub tuned: bool,
    /// Whether the result came from the result cache.
    pub cached: bool,
    /// Time spent queued.
    pub queue_ns: u64,
    /// Time spent running.
    pub run_ns: u64,
    /// Algorithm rounds/iterations reported by the run (0 if none).
    pub rounds: u64,
}

/// Compact per-request record kept in the summary ring.
#[derive(Clone, Debug)]
pub struct RequestSummary {
    /// Correlation id.
    pub req: u64,
    /// Server job id.
    pub job: u64,
    /// Algorithm wire name.
    pub algo: String,
    /// Catalog graph name.
    pub graph: String,
    /// Content hash of the resolved graph (0 when unresolved).
    pub graph_hash: u64,
    /// Whether a manifest schedule was applied.
    pub tuned: bool,
    /// Whether the result was a cache hit.
    pub cached: bool,
    /// Terminal state wire name.
    pub outcome: String,
    /// Time spent queued.
    pub queue_ns: u64,
    /// Time spent running.
    pub run_ns: u64,
    /// End-to-end latency (queue + run).
    pub total_ns: u64,
    /// Algorithm rounds (0 if the run reports none).
    pub rounds: u64,
    /// Kernel launches attributed to this request.
    pub kernels: u64,
    /// Sum of attributed kernel wall times.
    pub kernel_wall_ns: u64,
}

/// A finished request's full span record.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The summary row.
    pub summary: RequestSummary,
    /// Attributed kernel launches, in launch order.
    pub kernels: Vec<KernelSpan>,
    /// Attributed host phases, in completion order.
    pub phases: Vec<PhaseSpan>,
    /// Launches beyond [`RecorderConfig::max_kernels`] that were
    /// counted but not stored.
    pub dropped_kernels: u64,
}

/// A request the scheduler has started but not finished.
struct InFlight {
    started: Instant,
    job: u64,
    algo: String,
    graph: String,
    kernels: Vec<KernelSpan>,
    phases: Vec<PhaseSpan>,
    dropped: u64,
    launches: u64,
    kernel_wall_ns: u64,
}

struct Inner {
    ring: VecDeque<RequestSummary>,
    inflight: HashMap<u64, InFlight>,
    recent: VecDeque<Arc<RequestTrace>>,
    pinned: Vec<Arc<RequestTrace>>,
}

/// The recorder. One per server, inside its [`crate::Obs`]: the
/// scheduler records jobs into it, the observer hooks hand it request
/// launches, and the debug/trace HTTP endpoints read it.
pub struct FlightRecorder {
    cfg: RecorderConfig,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// An empty recorder with the given bounds.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                inflight: HashMap::new(),
                recent: VecDeque::new(),
                pinned: Vec::new(),
            }),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> RecorderConfig {
        self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Marks `req` as running (called by the scheduler right after the
    /// job transitions to `Running`). Kernel spans recorded from now on
    /// get offsets relative to this instant.
    pub fn begin(&self, req: u64, job: u64, algo: &str, graph: &str) {
        if req == 0 {
            return;
        }
        self.lock().inflight.insert(
            req,
            InFlight {
                started: Instant::now(),
                job,
                algo: algo.to_string(),
                graph: graph.to_string(),
                kernels: Vec::new(),
                phases: Vec::new(),
                dropped: 0,
                launches: 0,
                kernel_wall_ns: 0,
            },
        );
    }

    /// Attributes one completed launch to `req`. No-op for unknown or
    /// already-finished requests (a launch can race the finish on
    /// another worker; losing that race only costs the sample).
    pub fn on_launch(&self, req: u64, sample: &LaunchSample) {
        let mut g = self.lock();
        let Some(fl) = g.inflight.get_mut(&req) else {
            return;
        };
        let seq = fl.launches;
        fl.launches += 1;
        fl.kernel_wall_ns += sample.wall_ns;
        if fl.kernels.len() >= self.cfg.max_kernels {
            fl.dropped += 1;
            return;
        }
        let elapsed = fl.started.elapsed().as_nanos() as u64;
        fl.kernels.push(KernelSpan {
            kernel: sample.kernel.clone(),
            shape: sample.shape,
            seq: seq.min(u32::MAX as u64) as u32,
            start_ns: elapsed.saturating_sub(sample.wall_ns),
            wall_ns: sample.wall_ns,
            blocks: sample.blocks,
            block_size: sample.block_size,
            imbalance_milli: (sample.imbalance() * 1000.0).round().max(0.0) as u64,
        });
    }

    /// Attributes one completed host phase (cache probe, graph
    /// resolve) to `req`.
    pub fn on_phase(&self, req: u64, name: &str, wall_ns: u64) {
        let mut g = self.lock();
        let Some(fl) = g.inflight.get_mut(&req) else {
            return;
        };
        if fl.phases.len() >= 64 {
            return;
        }
        let elapsed = fl.started.elapsed().as_nanos() as u64;
        fl.phases.push(PhaseSpan {
            name: name.to_string(),
            start_ns: elapsed.saturating_sub(wall_ns),
            wall_ns,
        });
    }

    /// Retires `req` into the summary ring (and the recent/pinned
    /// trace tiers), returning the summary. Works even if `begin` was
    /// never called (e.g. a job cancelled while queued): the summary
    /// then simply carries no kernel spans.
    pub fn finish(
        &self,
        req: u64,
        job: u64,
        algo: &str,
        graph: &str,
        info: FinishInfo,
    ) -> Option<RequestSummary> {
        if req == 0 {
            return None;
        }
        let mut g = self.lock();
        let fl = g.inflight.remove(&req);
        // The in-flight record (written at `begin`) is authoritative
        // for identity; the parameters cover the never-began case
        // (e.g. cancelled while queued).
        let (job, algo, graph, kernels, phases, dropped, launches, kernel_wall_ns) = match fl {
            Some(fl) => (
                fl.job,
                fl.algo,
                fl.graph,
                fl.kernels,
                fl.phases,
                fl.dropped,
                fl.launches,
                fl.kernel_wall_ns,
            ),
            None => (job, algo.to_string(), graph.to_string(), Vec::new(), Vec::new(), 0, 0, 0),
        };
        let summary = RequestSummary {
            req,
            job,
            algo,
            graph,
            graph_hash: info.graph_hash,
            tuned: info.tuned,
            cached: info.cached,
            outcome: info.outcome,
            queue_ns: info.queue_ns,
            run_ns: info.run_ns,
            total_ns: info.queue_ns.saturating_add(info.run_ns),
            rounds: info.rounds,
            kernels: launches,
            kernel_wall_ns,
        };
        g.ring.push_back(summary.clone());
        while g.ring.len() > self.cfg.ring.max(1) {
            g.ring.pop_front();
        }
        let trace = Arc::new(RequestTrace {
            summary: summary.clone(),
            kernels,
            phases,
            dropped_kernels: dropped,
        });
        g.recent.push_back(Arc::clone(&trace));
        while g.recent.len() > self.cfg.recent.max(1) {
            g.recent.pop_front();
        }
        if summary.total_ns >= self.cfg.slow_threshold_ns && self.cfg.pinned > 0 {
            g.pinned.push(trace);
            if g.pinned.len() > self.cfg.pinned {
                // Evict the least-slow pinned trace, keeping the set
                // "slowest N seen".
                if let Some((idx, _)) =
                    g.pinned.iter().enumerate().min_by_key(|(_, t)| t.summary.total_ns)
                {
                    g.pinned.swap_remove(idx);
                }
            }
        }
        Some(summary)
    }

    /// All retained summaries, newest first.
    pub fn snapshot(&self) -> Vec<RequestSummary> {
        self.lock().ring.iter().rev().cloned().collect()
    }

    /// The `n` slowest retained summaries by total latency, slowest
    /// first.
    pub fn slowest(&self, n: usize) -> Vec<RequestSummary> {
        let mut rows: Vec<RequestSummary> = self.lock().ring.iter().cloned().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        rows.truncate(n);
        rows
    }

    /// The full trace of `req`, if it is still in the recent or pinned
    /// tiers.
    pub fn trace(&self, req: u64) -> Option<Arc<RequestTrace>> {
        let g = self.lock();
        g.recent
            .iter()
            .rev()
            .find(|t| t.summary.req == req)
            .or_else(|| g.pinned.iter().find(|t| t.summary.req == req))
            .cloned()
    }

    /// Whether `req` is currently marked in flight.
    pub fn in_flight(&self, req: u64) -> bool {
        self.lock().inflight.contains_key(&req)
    }

    /// Finished requests currently retained in the summary ring.
    pub fn retained(&self) -> usize {
        self.lock().ring.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample(wall_ns: u64) -> LaunchSample {
        LaunchSample {
            kernel: "k".into(),
            shape: "flat",
            blocks: 8,
            block_size: 32,
            wall_ns,
            units: [0; 6],
            workers: Vec::new(),
            req: 7,
            shard: 0,
        }
    }

    fn finish_info(queue_ns: u64, run_ns: u64) -> FinishInfo {
        FinishInfo {
            outcome: "done".into(),
            graph_hash: 0xABCD,
            tuned: false,
            cached: false,
            queue_ns,
            run_ns,
            rounds: 3,
        }
    }

    #[test]
    fn lifecycle_attributes_kernels_and_retires() {
        let r = FlightRecorder::new(RecorderConfig::default());
        r.begin(7, 1, "cc", "internet");
        assert!(r.in_flight(7));
        r.on_launch(7, &sample(100));
        r.on_launch(7, &sample(50));
        r.on_phase(7, "resolve", 10);
        let s = r.finish(7, 1, "cc", "internet", finish_info(5, 200)).unwrap();
        assert!(!r.in_flight(7));
        assert_eq!(s.kernels, 2);
        assert_eq!(s.kernel_wall_ns, 150);
        assert_eq!(s.total_ns, 205);
        assert_eq!(s.rounds, 3);
        let t = r.trace(7).unwrap();
        assert_eq!(t.kernels.len(), 2);
        assert_eq!(t.kernels[0].seq, 0);
        assert_eq!(t.kernels[1].seq, 1);
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.dropped_kernels, 0);
    }

    #[test]
    fn unknown_request_launches_are_dropped() {
        let r = FlightRecorder::new(RecorderConfig::default());
        r.on_launch(99, &sample(10)); // never began: no-op
        r.begin(0, 1, "cc", "g"); // id 0 is "no request"
        assert!(!r.in_flight(0));
        assert!(r.finish(0, 1, "cc", "g", finish_info(1, 1)).is_none());
    }

    #[test]
    fn kernel_cap_counts_drops() {
        let r = FlightRecorder::new(RecorderConfig { max_kernels: 2, ..RecorderConfig::default() });
        r.begin(7, 1, "cc", "g");
        for _ in 0..5 {
            r.on_launch(7, &sample(10));
        }
        let s = r.finish(7, 1, "cc", "g", finish_info(0, 100)).unwrap();
        assert_eq!(s.kernels, 5, "all launches counted");
        assert_eq!(s.kernel_wall_ns, 50);
        let t = r.trace(7).unwrap();
        assert_eq!(t.kernels.len(), 2, "only the cap is stored");
        assert_eq!(t.dropped_kernels, 3);
    }

    #[test]
    fn ring_is_bounded_and_slowest_sorted() {
        let r = FlightRecorder::new(RecorderConfig { ring: 4, ..RecorderConfig::default() });
        for i in 1..=10u64 {
            r.begin(i, i, "cc", "g");
            r.finish(i, i, "cc", "g", finish_info(0, i * 100)).unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].req, 10, "newest first");
        let slow = r.slowest(2);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].req, 10);
        assert_eq!(slow[1].req, 9);
    }

    #[test]
    fn slow_outliers_stay_pinned_past_recent_eviction() {
        let r = FlightRecorder::new(RecorderConfig {
            recent: 2,
            pinned: 2,
            slow_threshold_ns: 1000,
            ..RecorderConfig::default()
        });
        // One slow request, then enough fast ones to evict it from
        // the recent tier.
        r.begin(1, 1, "cc", "g");
        r.on_launch(1, &sample(900));
        r.finish(1, 1, "cc", "g", finish_info(500, 900)).unwrap();
        for i in 2..=5u64 {
            r.begin(i, i, "cc", "g");
            r.finish(i, i, "cc", "g", finish_info(0, 10)).unwrap();
        }
        let t = r.trace(1).expect("slow trace must stay pinned");
        assert_eq!(t.kernels.len(), 1);
        assert!(r.trace(2).is_none(), "fast traces age out of the recent tier");
    }

    #[test]
    fn pinned_set_keeps_the_slowest() {
        let r = FlightRecorder::new(RecorderConfig {
            recent: 1,
            pinned: 2,
            slow_threshold_ns: 1,
            ..RecorderConfig::default()
        });
        for (req, run) in [(1u64, 100u64), (2, 500), (3, 300), (4, 900)] {
            r.begin(req, req, "cc", "g");
            r.finish(req, req, "cc", "g", finish_info(0, run)).unwrap();
        }
        assert!(r.trace(4).is_some(), "slowest pinned");
        assert!(r.trace(2).is_some(), "second slowest pinned");
        assert!(r.trace(1).is_none(), "least slow evicted from the pin set");
    }

    #[test]
    fn finish_without_begin_still_records() {
        let r = FlightRecorder::new(RecorderConfig::default());
        let s = r
            .finish(
                42,
                9,
                "mis",
                "g",
                FinishInfo { outcome: "cancelled".into(), ..FinishInfo::default() },
            )
            .unwrap();
        assert_eq!(s.outcome, "cancelled");
        assert_eq!(s.kernels, 0);
        assert_eq!(r.snapshot().len(), 1);
    }
}
