//! The HTTP surface: an event-driven `std::net` server wiring the
//! catalog, scheduler, result cache, and metrics together.
//!
//! Routes:
//!
//! | Route                  | Meaning                                   |
//! |------------------------|-------------------------------------------|
//! | `GET  /healthz`        | liveness (also reports draining)          |
//! | `GET  /v1/graphs`      | catalog listing                           |
//! | `POST /v1/jobs`        | submit (202, or 429/503 on backpressure)  |
//! | `GET  /v1/jobs/:id`    | status + result                           |
//! | `GET  /v1/jobs/:id/trace` | merged per-request span tree (ecl-obs) |
//! | `DELETE /v1/jobs/:id`  | cancel a queued job                       |
//! | `GET  /v1/debug/requests` | flight-recorder ring (`?slowest=N`)    |
//! | `GET  /metrics`        | Prometheus exposition (incl. `ecl_slo_*`) |
//! | `POST /v1/admin/shutdown` | begin graceful drain                   |
//!
//! Threading model (fixed, independent of connection count):
//!
//! * **accept thread** — blocking `accept`, immediate 503-and-close
//!   beyond [`ServeConfig::max_connections`], short backoff (plus the
//!   `accept_errors` counter) on transient accept failures. Accepted
//!   sockets go nonblocking into a lock-free ring toward the reactor.
//! * **reactor thread** ([`crate::reactor`]) — owns every connection
//!   and its state machine; HTTP/1.1 keep-alive, read/write deadlines,
//!   and `wait_ms` submissions parked until the scheduler's completion
//!   hook wakes it.
//! * **scheduler workers** — unchanged job execution.
//!
//! There is no per-connection thread and no per-request thread;
//! `handle_connection` is gone. Graceful shutdown is: stop accepting,
//! let the reactor flush/park-out its connections, then drain the
//! scheduler so every admitted job reaches a terminal state.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ecl_gpusim::observe::{self, Attached};
use ecl_prof::Collector;
use ecl_profiling::json::{self, escape, num, Value};

use crate::cache::ResultCache;
use crate::catalog::{CatalogConfig, GraphCatalog};
use crate::http::{self, Limits, Request};
use crate::jobs::{Algo, Fault, JobRecord, JobSpec};
use crate::metrics::ServeMetrics;
use crate::reactor::{Reactor, Waker};
use crate::ring::EventRing;
use crate::scheduler::{Scheduler, SchedulerConfig, SubmitError};

/// Longest `wait_ms` a submission may be parked for (closed-loop
/// clients).
const MAX_WAIT_MS: u64 = 120_000;

/// Sleep after a transient `accept` error — EMFILE and friends recover
/// on the order of milliseconds; busy-looping would pin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// Accepted-socket handoff ring (accept thread → reactor).
const ACCEPT_RING: usize = 1024;

/// Full server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub listen: String,
    /// Graph catalog settings.
    pub catalog: CatalogConfig,
    /// Scheduler sizing.
    pub scheduler: SchedulerConfig,
    /// Result-cache entry cap.
    pub result_entries: usize,
    /// HTTP parser limits.
    pub limits: Limits,
    /// Hard bound on concurrently open connections; beyond it the
    /// accept thread answers 503 and closes immediately.
    pub max_connections: usize,
    /// A connection with no complete request within this window is
    /// closed (idle keep-alive *and* slow-loris trickles — the clock
    /// runs from the request boundary, not the last byte).
    pub read_timeout_ms: u64,
    /// A response not fully flushed within this window closes the
    /// connection (stalled reader).
    pub write_timeout_ms: u64,
    /// SLO spec (`"cc:p99=5ms,err=0.1%;gc:p95=2ms"`); `None` disables
    /// the SLO engine (the flight recorder stays on regardless).
    pub slo: Option<String>,
    /// Requests slower than this pin their full trace in the flight
    /// recorder instead of aging out with the recent ring.
    pub slow_request_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            catalog: CatalogConfig::default(),
            scheduler: SchedulerConfig::default(),
            result_entries: 256,
            limits: Limits::default(),
            max_connections: 1024,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            slo: None,
            slow_request_ms: 250,
        }
    }
}

pub(crate) struct ServerShared {
    pub(crate) catalog: Arc<GraphCatalog>,
    pub(crate) results: Arc<ResultCache>,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) scheduler: Scheduler,
    pub(crate) collector: Arc<Collector>,
    /// Request-scoped observability: the flight recorder plus the
    /// optional SLO engine. Attached to the scheduler, and to the
    /// process default observer set (as [`Server`]'s `obs_attached`)
    /// for the lifetime of the server.
    pub(crate) obs: Arc<ecl_obs::Obs>,
    pub(crate) limits: Limits,
    pub(crate) max_connections: usize,
    pub(crate) stopping: AtomicBool,
    /// Connections counted from accept to reactor reap — the value the
    /// accept thread bounds against and `/metrics` exposes.
    pub(crate) live_connections: AtomicUsize,
}

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// drains gracefully.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    waker: Arc<Waker>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    reactor_thread: Mutex<Option<JoinHandle<()>>>,
    /// `shared.obs` in the process default observer set, which every
    /// job's device starts from; dropped on shutdown.
    obs_attached: Mutex<Option<Attached<'static>>>,
}

impl Server {
    /// Binds and starts serving. Installs a profiling collector so
    /// `/metrics` carries per-kernel series.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let catalog = Arc::new(GraphCatalog::new(config.catalog.clone()));
        let results = Arc::new(ResultCache::new(config.result_entries));
        let metrics = ServeMetrics::new();
        let scheduler = Scheduler::start(
            config.scheduler.clone(),
            Arc::clone(&catalog),
            Arc::clone(&results),
            Arc::clone(&metrics),
        );
        let collector = Arc::new(Collector::new());
        ecl_prof::sink::install(Arc::clone(&collector));
        // Wall-clock tracer for per-request spans (`serve.job/<algo>`
        // phases emitted by the scheduler, kernel events from the
        // simulator nesting inside them). Flushed on shutdown.
        ecl_trace::sink::install(Arc::new(ecl_trace::Tracer::with_clock(
            ecl_trace::ClockMode::Wall,
        )));
        // Request-scoped observability: flight recorder (always on) and
        // the SLO engine when objectives were configured. The scheduler
        // records jobs into it; as an observer it gets the launches
        // issued on behalf of a request.
        let slo = match &config.slo {
            Some(spec) => Some(ecl_obs::SloEngine::from_spec(spec).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("bad --slo: {e}"))
            })?),
            None => None,
        };
        let recorder_config = ecl_obs::RecorderConfig {
            slow_threshold_ns: config.slow_request_ms.saturating_mul(1_000_000),
            ..ecl_obs::RecorderConfig::default()
        };
        let obs = Arc::new(ecl_obs::Obs::new(recorder_config, slo));
        scheduler.set_obs(Arc::clone(&obs));
        let obs_attached = observe::defaults().attach(obs.clone());

        let shared = Arc::new(ServerShared {
            catalog,
            results,
            metrics,
            scheduler,
            collector,
            obs,
            limits: config.limits,
            max_connections: config.max_connections.max(1),
            stopping: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
        });

        let waker = Waker::new();
        let accepts = Arc::new(EventRing::new(ACCEPT_RING));
        // Every terminal job pushes exactly one completion; size for
        // the whole admitted population completing inside one reactor
        // park window, with an overflow flag as the safety net.
        let completions = Arc::new(EventRing::new(
            config.scheduler.max_queue + config.scheduler.max_concurrency + 16,
        ));
        let completions_overflow = Arc::new(AtomicBool::new(false));
        {
            let ring = Arc::clone(&completions);
            let overflow = Arc::clone(&completions_overflow);
            let waker = Arc::clone(&waker);
            shared.scheduler.set_completion_hook(Arc::new(move |job_id| {
                if ring.try_push(job_id).is_err() {
                    overflow.store(true, Ordering::Release);
                }
                waker.wake();
            }));
        }

        let reactor = Reactor::new(
            Arc::clone(&shared),
            Arc::clone(&accepts),
            Arc::clone(&completions),
            Arc::clone(&completions_overflow),
            Arc::clone(&waker),
            Duration::from_millis(config.read_timeout_ms.max(1)),
            Duration::from_millis(config.write_timeout_ms.max(1)),
        );
        let reactor_thread = std::thread::Builder::new()
            .name("ecl-serve-reactor".to_string())
            .spawn(move || reactor.run())?;

        let accept_shared = Arc::clone(&shared);
        let accept_waker = Arc::clone(&waker);
        let accept_thread = std::thread::Builder::new()
            .name("ecl-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accepts, &accept_waker))?;

        Ok(Server {
            addr,
            shared,
            waker,
            accept_thread: Mutex::new(Some(accept_thread)),
            reactor_thread: Mutex::new(Some(reactor_thread)),
            obs_attached: Mutex::new(Some(obs_attached)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// All retained jobs (admitted + terminal). Valid before and after
    /// shutdown — the drain tests use it to assert that no admitted
    /// job was dropped.
    pub fn jobs_snapshot(&self) -> Vec<Arc<JobRecord>> {
        self.shared.scheduler.jobs_snapshot()
    }

    /// True once a drain has begun (`POST /v1/admin/shutdown` or
    /// [`Server::shutdown`]). The `ecl-serve` binary polls this to
    /// know when an operator asked the process to exit.
    pub fn is_draining(&self) -> bool {
        self.shared.scheduler.is_shutting_down()
    }

    /// Connections currently held by the reactor.
    pub fn open_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, let the reactor finish or
    /// reclaim its connections, let every admitted job reach a
    /// terminal state, uninstall the observers. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let handle =
            self.accept_thread.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        // The reactor notices `stopping`, closes idle connections,
        // answers in-flight waits, and exits once its map is empty.
        self.waker.wake();
        let handle =
            self.reactor_thread.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.shared.scheduler.shutdown();
        ecl_prof::sink::uninstall();
        // Uninstall the tracer after the last job has finished so no
        // span is cut mid-record; the snapshot is discarded here —
        // callers who want the capture install their own tracer first.
        ecl_trace::sink::uninstall();
        // The recorder/SLO state itself stays alive through
        // `self.shared.obs`; only its observer registration ends.
        drop(self.obs_attached.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    accepts: &Arc<EventRing<TcpStream>>,
    waker: &Arc<Waker>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                shared.metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
                if shared.live_connections.load(Ordering::Acquire) >= shared.max_connections {
                    reject_over_capacity(stream, shared);
                    continue;
                }
                shared.live_connections.fetch_add(1, Ordering::AcqRel);
                let _ = stream.set_nonblocking(true);
                match accepts.try_push(stream) {
                    Ok(()) => waker.wake(),
                    Err(stream) => {
                        // Handoff ring full — the reactor is that far
                        // behind; treat it as over capacity.
                        shared.live_connections.fetch_sub(1, Ordering::AcqRel);
                        reject_over_capacity(stream, shared);
                    }
                }
            }
            Err(_) => {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                // Transient resource exhaustion (EMFILE, ENFILE,
                // ECONNABORTED): count it and back off instead of
                // spinning the accept thread at 100% CPU.
                shared.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Best-effort 503 + close for a connection beyond the bound. The
/// write is blocking-with-timeout on purpose: the response is a few
/// hundred bytes (fits any socket buffer), and the stream drops —
/// closing the connection — the moment this returns.
fn reject_over_capacity(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    shared.metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = http::write_json(
        &mut stream,
        503,
        "{\"error\": \"connection limit reached\", \"retry\": true}",
    );
}

pub(crate) type Response = (u16, &'static str, String);

/// How a routed request is answered.
pub(crate) enum Routed {
    /// Response is ready; stage it now.
    Now(Response),
    /// A `wait_ms` submission: park the connection; the completion
    /// hook (or the wait deadline) produces the response.
    Wait {
        /// The admitted job.
        job: Arc<JobRecord>,
        /// How long the client is willing to wait.
        wait: Duration,
    },
}

pub(crate) const JSON: &str = "application/json";
const PROM: &str = "text/plain; version=0.0.4";

pub(crate) fn route(req: &Request, shared: &Arc<ServerShared>, req_id: u64) -> Routed {
    let path = req.path.split('?').next().unwrap_or("");
    let response = match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let draining = shared.scheduler.is_shutting_down();
            (200, JSON, format!("{{\"ok\": true, \"draining\": {draining}}}"))
        }
        ("GET", "/v1/graphs") => graphs_body(shared),
        ("POST", "/v1/jobs") => return submit_job(req, shared, req_id),
        // Must precede the generic `/v1/jobs/:id` arm: ":id/trace"
        // does not parse as a bare id.
        ("GET", p) if p.starts_with("/v1/jobs/") && p.ends_with("/trace") => {
            match p.strip_prefix("/v1/jobs/").and_then(|r| r.strip_suffix("/trace")) {
                Some(raw) => match raw.parse::<u64>().ok() {
                    Some(id) => trace_body(shared, id),
                    None => (400, JSON, "{\"error\": \"bad job id\"}".to_string()),
                },
                None => (400, JSON, "{\"error\": \"bad job id\"}".to_string()),
            }
        }
        ("GET", "/v1/debug/requests") => debug_requests_body(shared, &req.path),
        ("GET", p) if p.starts_with("/v1/jobs/") => match parse_id(p) {
            Some(id) => match shared.scheduler.job(id) {
                Some(job) => (200, JSON, job_body(&job)),
                None => (404, JSON, "{\"error\": \"no such job\"}".to_string()),
            },
            None => (400, JSON, "{\"error\": \"bad job id\"}".to_string()),
        },
        ("DELETE", p) if p.starts_with("/v1/jobs/") => match parse_id(p) {
            Some(id) => match shared.scheduler.job(id) {
                Some(job) => {
                    if shared.scheduler.cancel(&job) {
                        (200, JSON, job_body(&job))
                    } else {
                        (
                            409,
                            JSON,
                            format!(
                                "{{\"error\": \"job is {} and cannot be cancelled\"}}",
                                job.state().name()
                            ),
                        )
                    }
                }
                None => (404, JSON, "{\"error\": \"no such job\"}".to_string()),
            },
            None => (400, JSON, "{\"error\": \"bad job id\"}".to_string()),
        },
        ("GET", "/metrics") => {
            let body = shared.metrics.render_prometheus(
                &shared.catalog,
                &shared.results,
                shared.scheduler.queue_depth(),
                shared.scheduler.running(),
                shared.live_connections.load(Ordering::Acquire),
                Some(&shared.collector),
                Some(&shared.obs),
            );
            (200, PROM, body)
        }
        ("POST", "/v1/admin/shutdown") => {
            // Flip the scheduler to draining; the process owner (the
            // binary's main) notices via healthz/is_shutting_down and
            // completes the full server shutdown.
            shared.scheduler.begin_drain();
            (202, JSON, "{\"draining\": true}".to_string())
        }
        _ => (404, JSON, "{\"error\": \"no such route\"}".to_string()),
    };
    Routed::Now(response)
}

fn parse_id(path: &str) -> Option<u64> {
    path.strip_prefix("/v1/jobs/")?.parse().ok()
}

fn graphs_body(shared: &Arc<ServerShared>) -> Response {
    let rows: Vec<String> = shared
        .catalog
        .list()
        .into_iter()
        .map(|r| {
            let mut row = format!(
                "{{\"name\": \"{}\", \"source\": \"{}\", \"kind\": \"{}\", \
                 \"directed\": {}, \"paper_vertices\": {}",
                escape(&r.name),
                r.source,
                escape(&r.kind),
                r.directed,
                r.paper_vertices
            );
            // Family fingerprint of the resident materialization, so
            // operators can see which manifest bucket the graph
            // resolves to. Absent until the graph is first resolved.
            if let Some(fp) = &r.fingerprint {
                row.push_str(&format!(
                    ", \"fingerprint\": {{\"vertices\": {}, \"arcs\": {}, \
                     \"directed\": {}, \"degree_cv\": {}, \"family\": \"{}\"}}",
                    fp.vertices,
                    fp.arcs,
                    fp.directed,
                    num(fp.degree_cv),
                    escape(&fp.family_key())
                ));
            }
            row.push('}');
            row
        })
        .collect();
    (200, JSON, format!("{{\"graphs\": [{}]}}", rows.join(", ")))
}

/// Parses a submission body into a spec, or an error message.
fn parse_job_spec(body: &[u8]) -> Result<(JobSpec, Option<u64>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let algo_name = v
        .get("algo")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing required field \"algo\"".to_string())?;
    let algo = Algo::from_name(algo_name)
        .ok_or_else(|| format!("unknown algo {algo_name:?} (cc|gc|mis|mst|scc)"))?;
    let graph = v
        .get("graph")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing required field \"graph\"".to_string())?
        .to_string();
    let scale = v.get("scale").and_then(Value::as_f64).unwrap_or(0.001);
    if scale <= 0.0 || !scale.is_finite() || scale > 1.0 {
        return Err(format!("scale must be in (0, 1], got {scale}"));
    }
    let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let block_size = v.get("block_size").and_then(Value::as_f64).map(|b| b as usize);
    if let Some(bs) = block_size {
        if bs == 0 || bs > 1024 {
            return Err(format!("block_size must be in [1, 1024], got {bs}"));
        }
    }
    let shards = match v.get("shards").and_then(Value::as_f64) {
        Some(s) if (1.0..=64.0).contains(&s) && s.fract() == 0.0 => s as u32,
        Some(s) => return Err(format!("shards must be an integer in [1, 64], got {s}")),
        None => 1,
    };
    let deadline_ms = v.get("deadline_ms").and_then(Value::as_f64).map(|d| d as u64);
    let wait_ms = v.get("wait_ms").and_then(Value::as_f64).map(|w| (w as u64).min(MAX_WAIT_MS));
    let fault = match v.get("fault").and_then(Value::as_str) {
        Some("panic") => Fault::Panic,
        Some(other) => return Err(format!("unknown fault {other:?}")),
        None => match v.get("delay_ms").and_then(Value::as_f64) {
            Some(ms) if (0.0..=60_000.0).contains(&ms) => Fault::DelayMs(ms as u32),
            Some(ms) => return Err(format!("delay_ms out of range: {ms}")),
            None => Fault::None,
        },
    };
    Ok((JobSpec { algo, graph, scale, seed, block_size, shards, deadline_ms, fault }, wait_ms))
}

fn submit_job(req: &Request, shared: &Arc<ServerShared>, req_id: u64) -> Routed {
    let (spec, wait_ms) = match parse_job_spec(&req.body) {
        Ok(parsed) => parsed,
        Err(msg) => {
            return Routed::Now((400, JSON, format!("{{\"error\": \"{}\"}}", escape(&msg))));
        }
    };
    match shared.scheduler.submit_with_req(spec, req_id) {
        Ok(job) => match wait_ms {
            Some(ms) => Routed::Wait { job, wait: Duration::from_millis(ms) },
            None => Routed::Now((202, JSON, job_body(&job))),
        },
        Err(SubmitError::QueueFull) => {
            Routed::Now((429, JSON, "{\"error\": \"queue full\", \"retry\": true}".to_string()))
        }
        Err(SubmitError::ShuttingDown) => Routed::Now((
            503,
            JSON,
            "{\"error\": \"server is draining\", \"retry\": false}".to_string(),
        )),
    }
}

/// Renders one flight-recorder summary as a JSON object.
fn summary_json(s: &ecl_obs::RequestSummary) -> String {
    format!(
        "{{\"req\": {}, \"job\": {}, \"algo\": \"{}\", \"graph\": \"{}\", \
         \"graph_hash\": \"{:016x}\", \"outcome\": \"{}\", \"tuned\": {}, \"cached\": {}, \
         \"queue_ns\": {}, \"run_ns\": {}, \"total_ns\": {}, \"rounds\": {}, \
         \"kernels\": {}, \"kernel_wall_ns\": {}}}",
        s.req,
        s.job,
        escape(&s.algo),
        escape(&s.graph),
        s.graph_hash,
        escape(&s.outcome),
        s.tuned,
        s.cached,
        s.queue_ns,
        s.run_ns,
        s.total_ns,
        s.rounds,
        s.kernels,
        s.kernel_wall_ns,
    )
}

/// `GET /v1/jobs/:id/trace` — the merged, time-ordered span tree for
/// the request that submitted job `id`: queue/cache/resolve phases and
/// every per-round kernel launch, each tagged with its kind.
fn trace_body(shared: &Arc<ServerShared>, id: u64) -> Response {
    let Some(job) = shared.scheduler.job(id) else {
        return (404, JSON, "{\"error\": \"no such job\"}".to_string());
    };
    if job.req == 0 {
        return (
            404,
            JSON,
            "{\"error\": \"job was not submitted over HTTP; no request context\"}".to_string(),
        );
    }
    let Some(trace) = shared.obs.recorder.trace(job.req) else {
        return (
            404,
            JSON,
            "{\"error\": \"no trace retained for this request (aged out of the ring)\"}"
                .to_string(),
        );
    };
    // Merge phases and kernels into one start-ordered timeline; ties
    // put the (enclosing) phase first.
    enum Span<'a> {
        Phase(&'a ecl_obs::PhaseSpan),
        Kernel(&'a ecl_obs::KernelSpan),
    }
    let mut spans: Vec<Span> = trace.phases.iter().map(Span::Phase).collect();
    spans.extend(trace.kernels.iter().map(Span::Kernel));
    spans.sort_by_key(|s| match s {
        Span::Phase(p) => (p.start_ns, 0u8),
        Span::Kernel(k) => (k.start_ns, 1u8),
    });
    let rows: Vec<String> = spans
        .iter()
        .map(|s| match s {
            Span::Phase(p) => format!(
                "{{\"kind\": \"phase\", \"name\": \"{}\", \"start_ns\": {}, \"wall_ns\": {}}}",
                escape(&p.name),
                p.start_ns,
                p.wall_ns
            ),
            Span::Kernel(k) => format!(
                "{{\"kind\": \"kernel\", \"name\": \"{}\", \"shape\": \"{}\", \"seq\": {}, \
                 \"start_ns\": {}, \"wall_ns\": {}, \"blocks\": {}, \"block_size\": {}, \
                 \"imbalance_milli\": {}}}",
                escape(&k.kernel),
                k.shape,
                k.seq,
                k.start_ns,
                k.wall_ns,
                k.blocks,
                k.block_size,
                k.imbalance_milli
            ),
        })
        .collect();
    let body = format!(
        "{{\"summary\": {}, \"spans\": [{}], \"dropped_kernels\": {}}}",
        summary_json(&trace.summary),
        rows.join(", "),
        trace.dropped_kernels
    );
    (200, JSON, body)
}

/// `GET /v1/debug/requests[?slowest=N]` — the flight-recorder ring,
/// newest-first by default or the N slowest completed requests.
fn debug_requests_body(shared: &Arc<ServerShared>, raw_path: &str) -> Response {
    let query = raw_path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let mut slowest: Option<usize> = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "slowest" {
            match value.parse::<usize>() {
                Ok(n) => slowest = Some(n),
                Err(_) => {
                    return (
                        400,
                        JSON,
                        "{\"error\": \"slowest must be a non-negative integer\"}".to_string(),
                    );
                }
            }
        }
    }
    let recorder = &shared.obs.recorder;
    let (order, summaries) = match slowest {
        Some(n) => ("slowest", recorder.slowest(n)),
        None => ("newest", recorder.snapshot()),
    };
    let rows: Vec<String> = summaries.iter().map(summary_json).collect();
    let body = format!(
        "{{\"order\": \"{order}\", \"retained\": {}, \"requests\": [{}]}}",
        recorder.retained(),
        rows.join(", ")
    );
    (200, JSON, body)
}

/// Renders a job's full status document.
pub(crate) fn job_body(job: &Arc<JobRecord>) -> String {
    let st = job.status();
    let mut out = format!(
        "{{\"id\": {}, \"state\": \"{}\", \"algo\": \"{}\", \"graph\": \"{}\", \
         \"seed\": {}, \"cached\": {}, \"queue_ms\": {}, \"run_ms\": {}",
        job.id,
        st.state.name(),
        job.spec.algo.name(),
        escape(&job.spec.graph),
        job.spec.seed,
        st.cached,
        num(st.queue_ms),
        num(st.run_ms),
    );
    if let Some(result) = job.with_output(|o| {
        let aggs: Vec<String> = o.aggregates.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!(
            "{{\"graph_hash\": \"{:016x}\", \"vertices\": {}, \"arcs\": {}, \
             \"modeled_time\": {}, \"tuned\": {}, \"aggregates\": {{{}}}}}",
            o.graph_hash,
            o.vertices,
            o.arcs,
            num(o.modeled_time),
            o.tuned,
            aggs.join(", ")
        )
    }) {
        out.push_str(&format!(", \"result\": {result}"));
    }
    if let Some(msg) = job.end_message() {
        out.push_str(&format!(", \"error\": \"{}\"", escape(&msg)));
    }
    out.push('}');
    out
}
