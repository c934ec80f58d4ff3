//! Service metrics: lifecycle counters, per-algorithm latency
//! sketches, and the `GET /metrics` Prometheus rendering.
//!
//! The rendering reuses [`ecl_prof::to_prometheus`] for everything a
//! run manifest can express — per-algorithm queue/run latency
//! distributions (as summary-quantile series) and per-kernel launch
//! stats from the installed profiling collector — and appends the
//! service-specific families (queue depth, admission rejections, cache
//! hit ratios) and the `ecl_slo_*` families of `ecl-obs`. All three
//! are data handed to the one writer, [`ecl_profiling::expo`], which
//! also holds the lint the `metrics_lint` test runs over the result.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecl_prof::{git_sha, to_prometheus, Collector, DispatchInfo, Manifest};
use ecl_profiling::expo::Exposition;
use ecl_profiling::LogSketch;

use crate::cache::ResultCache;
use crate::catalog::GraphCatalog;
use crate::jobs::Algo;

/// Monotonic counters and latency sketches for the service. Shared as
/// `Arc<ServeMetrics>` between the scheduler and the HTTP surface.
#[derive(Default)]
pub struct ServeMetrics {
    /// Jobs admitted to the queue.
    pub jobs_admitted: AtomicU64,
    /// Jobs rejected at admission (queue full → HTTP 429).
    pub admission_rejections: AtomicU64,
    /// Jobs that finished in `done`.
    pub jobs_done: AtomicU64,
    /// Jobs that finished in `failed` (including contained panics).
    pub jobs_failed: AtomicU64,
    /// Contained job panics (subset of `jobs_failed`).
    pub jobs_panicked: AtomicU64,
    /// Jobs cancelled while queued.
    pub jobs_cancelled: AtomicU64,
    /// Jobs that missed their start deadline.
    pub jobs_deadline_exceeded: AtomicU64,
    /// Results served from the result cache.
    pub result_cache_serves: AtomicU64,
    /// Completed jobs whose result ran with a manifest schedule
    /// (subset of `jobs_done`; includes cache hits of tuned results).
    pub jobs_tuned: AtomicU64,
    /// Completed jobs whose result ran with default configs.
    pub jobs_untuned: AtomicU64,
    /// HTTP requests accepted (parsed successfully).
    pub http_requests: AtomicU64,
    /// HTTP requests answered with a 4xx/5xx status.
    pub http_errors: AtomicU64,
    /// Malformed/oversized requests rejected by the parser *with* a
    /// response (400/413/431 — includes best-effort 400s for requests
    /// cut off by EOF).
    pub http_malformed: AtomicU64,
    /// Connections dropped mid-request with no response possible
    /// (transport error before a status could be written).
    pub http_unanswerable: AtomicU64,
    /// Requests served beyond the first on a keep-alive connection.
    pub keepalive_reuses: AtomicU64,
    /// Connections accepted by the listener.
    pub connections_accepted: AtomicU64,
    /// Connections refused with an immediate 503 because
    /// `--max-connections` was reached.
    pub connections_rejected: AtomicU64,
    /// Transient `accept(2)` failures (EMFILE and friends); each one
    /// also backs the accept loop off briefly.
    pub accept_errors: AtomicU64,
    /// Connections closed because no complete request arrived within
    /// the read deadline (idle keep-alive or slow-loris).
    pub conn_read_timeouts: AtomicU64,
    /// Connections closed because the peer stopped draining a response
    /// past the write deadline (stalled reader).
    pub conn_write_timeouts: AtomicU64,
    queue_us: [LogSketch; Algo::ALL.len()],
    run_us: [LogSketch; Algo::ALL.len()],
}

impl ServeMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Arc<ServeMetrics> {
        Arc::new(ServeMetrics::default())
    }

    /// Records a finished job's queue wait and run time (µs).
    pub fn record_latency(&self, algo: Algo, queue_us: u64, run_us: u64) {
        let i = algo as usize;
        self.queue_us[i].record(queue_us);
        self.run_us[i].record(run_us);
    }

    /// Total terminal jobs.
    pub fn jobs_finished(&self) -> u64 {
        self.jobs_done.load(Ordering::Relaxed)
            + self.jobs_failed.load(Ordering::Relaxed)
            + self.jobs_cancelled.load(Ordering::Relaxed)
            + self.jobs_deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Renders the full `/metrics` payload. `queue_depth`/`running`/
    /// `open_connections` are instantaneous gauges; `collector`
    /// contributes per-kernel series when profiling is installed;
    /// `obs` contributes the `ecl_slo_*` family and the flight-recorder
    /// retention gauge.
    #[allow(clippy::too_many_arguments)]
    pub fn render_prometheus(
        &self,
        catalog: &GraphCatalog,
        results: &ResultCache,
        queue_depth: usize,
        running: usize,
        open_connections: usize,
        collector: Option<&Collector>,
        obs: Option<&ecl_obs::Obs>,
    ) -> String {
        // Per-algorithm latency distributions + kernel stats ride the
        // manifest exposition.
        let mut manifest = Manifest {
            schema: "ecl-serve/1".to_string(),
            git_sha: git_sha(),
            dispatch: DispatchInfo {
                mode: "pool".to_string(),
                workers: ecl_gpusim::pool::effective_workers() as u64,
            },
            context: vec![("service".to_string(), "ecl-serve".to_string())],
            metrics: Vec::new(),
            kernels: collector.map(|c| c.snapshot()).unwrap_or_default(),
            distributions: Vec::new(),
        };
        for algo in Algo::ALL {
            let i = algo as usize;
            if self.run_us[i].count() > 0 {
                manifest
                    .distributions
                    .push((format!("job_run_us/{}", algo.name()), self.run_us[i].snapshot()));
                manifest
                    .distributions
                    .push((format!("job_queue_us/{}", algo.name()), self.queue_us[i].snapshot()));
            }
        }
        let mut out = to_prometheus(&manifest);
        let mut exp = Exposition::new(&mut out);

        exp.gauge("ecl_serve_queue_depth", "Jobs waiting for a slot.").sample(&[], queue_depth);
        exp.gauge("ecl_serve_jobs_running", "Jobs currently executing.").sample(&[], running);
        exp.gauge("ecl_serve_connections_open", "Connections currently held by the reactor.")
            .sample(&[], open_connections);
        let r = Ordering::Relaxed;
        for (name, help, v) in [
            (
                "ecl_serve_connections_accepted_total",
                "Connections accepted by the listener.",
                &self.connections_accepted,
            ),
            (
                "ecl_serve_connections_rejected_total",
                "Connections answered 503-and-close at the --max-connections bound.",
                &self.connections_rejected,
            ),
            (
                "ecl_serve_accept_errors_total",
                "Transient accept(2) failures (each backs the accept loop off).",
                &self.accept_errors,
            ),
            (
                "ecl_serve_conn_read_timeouts_total",
                "Connections closed with no complete request within the read deadline.",
                &self.conn_read_timeouts,
            ),
            (
                "ecl_serve_conn_write_timeouts_total",
                "Connections closed because the peer stopped reading past the write deadline.",
                &self.conn_write_timeouts,
            ),
            (
                "ecl_serve_keepalive_reuses_total",
                "Requests served beyond the first on a keep-alive connection.",
                &self.keepalive_reuses,
            ),
            ("ecl_serve_jobs_admitted_total", "Jobs admitted to the queue.", &self.jobs_admitted),
            (
                "ecl_serve_admission_rejections_total",
                "Jobs rejected with 429 because the queue was full.",
                &self.admission_rejections,
            ),
        ] {
            exp.counter(name, help).sample(&[], v.load(r));
        }
        let mut finished =
            exp.counter("ecl_serve_jobs_finished_total", "Terminal jobs by final state.");
        for (state, v) in [
            ("done", &self.jobs_done),
            ("failed", &self.jobs_failed),
            ("cancelled", &self.jobs_cancelled),
            ("deadline_exceeded", &self.jobs_deadline_exceeded),
        ] {
            finished.sample(&[("state", state)], v.load(r));
        }
        let mut by_schedule = exp.counter(
            "ecl_serve_jobs_done_by_schedule_total",
            "Completed jobs by schedule source (tuned = manifest schedule attached at graph registration).",
        );
        for (tuned, v) in [("true", &self.jobs_tuned), ("false", &self.jobs_untuned)] {
            by_schedule.sample(&[("tuned", tuned)], v.load(r));
        }
        for (name, help, v) in [
            (
                "ecl_serve_jobs_panicked_total",
                "Job bodies that panicked and were contained.",
                &self.jobs_panicked,
            ),
            ("ecl_serve_http_requests_total", "HTTP requests parsed.", &self.http_requests),
            (
                "ecl_serve_http_errors_total",
                "HTTP responses with a 4xx/5xx status.",
                &self.http_errors,
            ),
            (
                "ecl_serve_http_malformed_total",
                "Requests rejected by the parser and answered 400/413/431.",
                &self.http_malformed,
            ),
            (
                "ecl_serve_http_unanswerable_total",
                "Connections dropped mid-request before any response could be written.",
                &self.http_unanswerable,
            ),
        ] {
            exp.counter(name, help).sample(&[], v.load(r));
        }

        let (gh, gm, gev, gbytes) = catalog.stats();
        exp.counter("ecl_serve_graph_cache_hits_total", "Graph catalog cache hits.")
            .sample(&[], gh);
        exp.counter("ecl_serve_graph_cache_misses_total", "Graph catalog cache misses.")
            .sample(&[], gm);
        exp.counter("ecl_serve_graph_cache_evictions_total", "Graph LRU evictions.")
            .sample(&[], gev);
        exp.gauge("ecl_serve_graph_cache_resident_bytes", "Bytes held by cached graphs.")
            .sample(&[], gbytes);

        let (rh, rm, rlen) = results.stats();
        exp.counter("ecl_serve_result_cache_hits_total", "Result cache hits.").sample(&[], rh);
        exp.counter("ecl_serve_result_cache_misses_total", "Result cache misses.").sample(&[], rm);
        exp.gauge("ecl_serve_result_cache_entries", "Resident cached results.").sample(&[], rlen);
        exp.gauge("ecl_serve_result_cache_hit_ratio", "Result cache hit ratio in [0,1].")
            .sample(&[], results.hit_ratio());

        if let Some(obs) = obs {
            exp.gauge(
                "ecl_obs_requests_retained",
                "Request summaries currently held by the flight recorder.",
            )
            .sample(&[], obs.recorder.retained());
            if let Some(slo) = &obs.slo {
                slo.render(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;

    #[test]
    fn prometheus_rendering_contains_required_series() {
        let m = ServeMetrics::new();
        m.jobs_admitted.store(5, Ordering::Relaxed);
        m.admission_rejections.store(2, Ordering::Relaxed);
        m.jobs_done.store(4, Ordering::Relaxed);
        m.jobs_tuned.store(3, Ordering::Relaxed);
        m.jobs_untuned.store(1, Ordering::Relaxed);
        m.record_latency(Algo::Cc, 120, 4500);
        m.record_latency(Algo::Cc, 90, 5100);
        let catalog = GraphCatalog::new(CatalogConfig::default());
        let results = ResultCache::new(4);
        assert!(results.get("k").is_none()); // one miss, for a 0.5 ratio
        results.put(
            "k".into(),
            Arc::new(crate::exec::RunOutput {
                algo: Algo::Cc,
                graph: "g".into(),
                graph_hash: 1,
                vertices: 1,
                arcs: 0,
                aggregates: vec![],
                modeled_time: 0.0,
                tuned: false,
            }),
        );
        results.get("k").unwrap();

        m.connections_accepted.store(7, Ordering::Relaxed);
        m.connections_rejected.store(1, Ordering::Relaxed);
        m.accept_errors.store(2, Ordering::Relaxed);
        m.conn_write_timeouts.store(1, Ordering::Relaxed);
        m.http_unanswerable.store(1, Ordering::Relaxed);
        let text = m.render_prometheus(&catalog, &results, 3, 2, 6, None, None);
        for needle in [
            "ecl_serve_queue_depth 3",
            "ecl_serve_jobs_running 2",
            "ecl_serve_connections_open 6",
            "ecl_serve_connections_accepted_total 7",
            "ecl_serve_connections_rejected_total 1",
            "ecl_serve_accept_errors_total 2",
            "ecl_serve_conn_read_timeouts_total 0",
            "ecl_serve_conn_write_timeouts_total 1",
            "ecl_serve_keepalive_reuses_total 0",
            "ecl_serve_http_unanswerable_total 1",
            "ecl_serve_jobs_admitted_total 5",
            "ecl_serve_admission_rejections_total 2",
            "ecl_serve_jobs_finished_total{state=\"done\"} 4",
            "ecl_serve_jobs_done_by_schedule_total{tuned=\"true\"} 3",
            "ecl_serve_jobs_done_by_schedule_total{tuned=\"false\"} 1",
            "ecl_serve_result_cache_hit_ratio 0.5",
            "ecl_distribution{name=\"job_run_us/cc\"",
            "quantile=\"0.99\"",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn latency_sketches_are_per_algorithm() {
        let m = ServeMetrics::new();
        m.record_latency(Algo::Mis, 1, 1000);
        let catalog = GraphCatalog::new(CatalogConfig::default());
        let results = ResultCache::new(1);
        let text = m.render_prometheus(&catalog, &results, 0, 0, 0, None, None);
        assert!(text.contains("job_run_us/mis"));
        assert!(!text.contains("job_run_us/cc"), "cc has no samples");
    }

    #[test]
    fn jobs_finished_family_has_help_and_type() {
        let m = ServeMetrics::new();
        let catalog = GraphCatalog::new(CatalogConfig::default());
        let results = ResultCache::new(1);
        let text = m.render_prometheus(&catalog, &results, 0, 0, 0, None, None);
        assert!(text.contains("# HELP ecl_serve_jobs_finished_total"));
        assert!(text.contains("# TYPE ecl_serve_jobs_finished_total counter"));
        let help_pos = text.find("# HELP ecl_serve_jobs_finished_total").unwrap();
        let sample_pos = text.find("ecl_serve_jobs_finished_total{state=").unwrap();
        assert!(help_pos < sample_pos, "metadata precedes the samples");
    }
}
