//! Load generator for `ecl-serve`: closed- and open-loop drivers, a
//! tiny blocking HTTP client (persistent keep-alive connections via
//! [`HttpClient`], or one-shot via [`http_call`]), and an
//! `ecl-bench/2` JSON report that `ecl-prof gate` can regression-gate.
//!
//! **Closed loop** (`concurrency = N`): N workers each keep exactly
//! one request in flight (submit with `wait_ms`, measure, repeat) —
//! the latency you get when clients back off under load. Each worker
//! holds one keep-alive connection unless `keep_alive` is off.
//!
//! **Open loop** (`rate_per_sec = R`): arrivals are paced on a fixed
//! schedule regardless of completions — the latency you get when
//! demand does not care how the server is doing, including 429s once
//! the admission queue fills.
//!
//! The report separates *wall* latency (scheduling noise, gate it
//! locally if you like) from *modeled* GPU time (deterministic given
//! the job mix, so CI gates it across machines — see the `serve-smoke`
//! workflow job).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ecl_profiling::json::{self, Value};
use ecl_profiling::{LogSketch, SketchSnapshot};

use crate::jobs::Algo;

/// Arrival discipline.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// `N` workers, one request in flight each.
    Closed {
        /// Concurrent in-flight requests.
        concurrency: usize,
    },
    /// Fixed arrival schedule of `rate` requests/second.
    Open {
        /// Arrivals per second.
        rate: f64,
    },
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// `host:port` of the server.
    pub target: String,
    /// Arrival discipline.
    pub mode: LoadMode,
    /// How long to generate load for.
    pub duration: Duration,
    /// Algorithms, round-robined per request.
    pub algos: Vec<Algo>,
    /// Catalog graph each job runs on.
    pub graph: String,
    /// Job scale.
    pub scale: f64,
    /// Jobs rotate through seeds `0..distinct_seeds` — 1 makes every
    /// request after the first a result-cache hit; larger values mix
    /// misses in.
    pub distinct_seeds: u64,
    /// Per-request `wait_ms` (closed-loop completion bound).
    pub wait_ms: u64,
    /// Reuse one connection per closed-loop worker (HTTP/1.1
    /// keep-alive) instead of a fresh connect per request. On is the
    /// realistic client; off measures connection-setup overhead.
    pub keep_alive: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            target: "127.0.0.1:0".to_string(),
            mode: LoadMode::Closed { concurrency: 2 },
            duration: Duration::from_secs(2),
            algos: vec![Algo::Cc, Algo::Mis, Algo::Gc],
            graph: "internet".to_string(),
            scale: 0.001,
            distinct_seeds: 4,
            wait_ms: 30_000,
            keep_alive: true,
        }
    }
}

/// Outcome of a run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests issued.
    pub requests: u64,
    /// Jobs that reached `done` within the wait.
    pub ok: u64,
    /// Subset of `ok` whose result ran under a manifest schedule
    /// (`result.tuned` in the job body) — distinguishes a run against
    /// a `--tuned` server from a default-config run.
    pub tuned_ok: u64,
    /// 429 admission rejections.
    pub rejected: u64,
    /// Transport failures, 5xx, failed/timed-out jobs.
    pub errors: u64,
    /// End-to-end request latency (µs), successful requests only.
    pub latency_us: SketchSnapshot,
    /// The slowest successful requests as `(latency_us, req_id)` pairs,
    /// worst first — the server-assigned `x-ecl-req` ids feed straight
    /// into `GET /v1/debug/requests` / the job trace endpoint, so a bad
    /// tail in a load run is debuggable after the fact.
    pub worst_requests: Vec<(u64, u64)>,
    /// Server-assigned request ids of failed/timed-out requests
    /// (bounded sample; 0 = the failure happened before a response
    /// head carried an id, e.g. connect refused).
    pub error_req_ids: Vec<u64>,
    /// Deterministic modeled GPU time per completed job (cost units).
    pub modeled_times: Vec<f64>,
    /// Wall-clock span of the run.
    pub wall_seconds: f64,
    /// Echo of the generating config (for the report header).
    pub config: LoadgenConfig,
}

/// Minimal blocking HTTP/1.1 exchange: one request, `Connection:
/// close`, whole response read to EOF. Returns `(status, body)`.
pub fn http_call(
    target: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(target).map_err(|e| format!("connect {target}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(150)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {target}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 =
        text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            format!("unparseable response: {:?}", text.get(..64).unwrap_or(&text))
        })?;
    let body_start = text.find("\r\n\r\n").map(|i| i + 4).unwrap_or(text.len());
    Ok((status, text[body_start..].to_string()))
}

/// Persistent HTTP/1.1 client: one connection reused across calls
/// (keep-alive), responses delimited by `Content-Length` rather than
/// EOF. A call on a connection the server has since closed reconnects
/// and retries once, so keep-alive stays transparent to callers.
pub struct HttpClient {
    target: String,
    keep_alive: bool,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response (pipelining slack).
    buf: Vec<u8>,
    /// `x-ecl-req` header of the last response (0 = none seen).
    last_req: u64,
}

impl HttpClient {
    /// A client for `host:port`. With `keep_alive` false every call
    /// sends `Connection: close` and reconnects, matching [`http_call`].
    pub fn new(target: &str, keep_alive: bool) -> HttpClient {
        HttpClient {
            target: target.to_string(),
            keep_alive,
            stream: None,
            buf: Vec::new(),
            last_req: 0,
        }
    }

    /// The server-assigned correlation id (`x-ecl-req` header) of the
    /// most recent response, or 0 if the last exchange carried none.
    pub fn last_req_id(&self) -> u64 {
        self.last_req
    }

    /// One request/response exchange. Returns `(status, body)`.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let reused = self.stream.is_some();
        match self.call_once(method, path, body) {
            // A reused connection may have been closed server-side
            // (read timeout, drain) between calls; retry exactly once
            // on a fresh connection.
            Err(_) if reused => {
                self.reset();
                self.call_once(method, path, body)
            }
            other => other,
        }
    }

    fn reset(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    fn call_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        // Cleared up front so a transport failure never leaves a stale
        // id from the previous exchange.
        self.last_req = 0;
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.target)
                .map_err(|e| format!("connect {}: {e}", self.target))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(150)))
                .map_err(|e| format!("set timeout: {e}"))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err("no connection".to_string());
        };
        let connection = if self.keep_alive { "keep-alive" } else { "close" };
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            self.target,
            body.len()
        );
        stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;

        // Head: read until the blank line.
        let head_end = loop {
            if let Some(i) = find_terminator(&self.buf) {
                break i;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed before response head".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unparseable status line: {:?}", head.lines().next()))?;
        let mut content_length: Option<usize> = None;
        let mut server_closes = !self.keep_alive;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                server_closes = true;
            } else if name.eq_ignore_ascii_case("x-ecl-req") {
                self.last_req = value.parse().unwrap_or(0);
            }
        }
        let body_start = head_end + 4;

        let text = match content_length {
            Some(len) => {
                while self.buf.len() < body_start + len {
                    let mut chunk = [0u8; 4096];
                    match stream.read(&mut chunk) {
                        Ok(0) => return Err("connection closed mid-body".to_string()),
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("read body: {e}")),
                    }
                }
                let text =
                    String::from_utf8_lossy(&self.buf[body_start..body_start + len]).to_string();
                // Keep anything past this response for the next call.
                self.buf.drain(..body_start + len);
                text
            }
            None => {
                // No length: body runs to EOF (forces a reconnect).
                let mut rest = Vec::new();
                stream.read_to_end(&mut rest).map_err(|e| format!("read to eof: {e}"))?;
                self.buf.extend_from_slice(&rest);
                let text = String::from_utf8_lossy(&self.buf[body_start..]).to_string();
                self.buf.clear();
                server_closes = true;
                text
            }
        };
        if server_closes {
            self.reset();
        }
        Ok((status, text))
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Slowest successful requests kept in the report (`x-ecl-req` ids).
const WORST_REQUESTS: usize = 10;
/// Bounded sample of failed-request ids — enough to start debugging,
/// small enough that an error storm cannot bloat the report.
const ERROR_REQ_SAMPLE: usize = 32;

struct Tally {
    requests: AtomicU64,
    ok: AtomicU64,
    tuned_ok: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    latency_us: LogSketch,
    modeled: Mutex<Vec<f64>>,
    /// `(latency_us, req_id)` of the slowest successes, worst first.
    worst: Mutex<Vec<(u64, u64)>>,
    /// Request ids of failed exchanges (first [`ERROR_REQ_SAMPLE`]).
    error_reqs: Mutex<Vec<u64>>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            tuned_ok: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_us: LogSketch::new(),
            modeled: Mutex::new(Vec::new()),
            worst: Mutex::new(Vec::new()),
            error_reqs: Mutex::new(Vec::new()),
        }
    }

    fn note_success(&self, latency_us: u64, req_id: u64) {
        let mut worst = self.worst.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        worst.push((latency_us, req_id));
        worst.sort_by_key(|w| std::cmp::Reverse(w.0));
        worst.truncate(WORST_REQUESTS);
    }

    fn note_error(&self, req_id: u64) {
        let mut reqs = self.error_reqs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if reqs.len() < ERROR_REQ_SAMPLE {
            reqs.push(req_id);
        }
    }
}

fn job_request_body(config: &LoadgenConfig, request_index: u64) -> String {
    let algo = config.algos[(request_index as usize) % config.algos.len()];
    let seed = request_index % config.distinct_seeds.max(1);
    format!(
        "{{\"algo\": \"{}\", \"graph\": \"{}\", \"scale\": {}, \"seed\": {}, \"wait_ms\": {}}}",
        algo.name(),
        config.graph,
        config.scale,
        seed,
        config.wait_ms
    )
}

/// Issues one job request and folds the outcome into `tally`.
fn fire(config: &LoadgenConfig, request_index: u64, tally: &Tally, client: &mut HttpClient) {
    let body = job_request_body(config, request_index);
    tally.requests.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let outcome = client.call("POST", "/v1/jobs", Some(&body));
    // Server-assigned correlation id from the response's `x-ecl-req`
    // header (0 when the exchange died before a head arrived).
    let req_id = client.last_req_id();
    match outcome {
        Ok((200, response)) => {
            let v = json::parse(&response).unwrap_or(Value::Null);
            let state = v.get("state").and_then(Value::as_str).unwrap_or("");
            if state == "done" {
                tally.ok.fetch_add(1, Ordering::Relaxed);
                let latency_us = t0.elapsed().as_micros() as u64;
                tally.latency_us.record(latency_us);
                tally.note_success(latency_us, req_id);
                let result = v.get("result");
                if matches!(result.and_then(|r| r.get("tuned")), Some(Value::Bool(true))) {
                    tally.tuned_ok.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(m) = result.and_then(|r| r.get("modeled_time")).and_then(Value::as_f64)
                {
                    tally.modeled.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(m);
                }
            } else {
                // Failed or timed-out job — the id points at the
                // server-side trace for it.
                tally.errors.fetch_add(1, Ordering::Relaxed);
                tally.note_error(req_id);
            }
        }
        Ok((429, _)) => {
            tally.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Ok((_, _)) | Err(_) => {
            tally.errors.fetch_add(1, Ordering::Relaxed);
            tally.note_error(req_id);
        }
    }
}

/// Runs the configured load and collects a report.
pub fn run(config: &LoadgenConfig) -> LoadReport {
    assert!(!config.algos.is_empty(), "loadgen needs at least one algorithm");
    let tally = Arc::new(Tally::new());
    let stop = Arc::new(AtomicBool::new(false));
    let next_index = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();

    let handles: Vec<std::thread::JoinHandle<()>> = match config.mode {
        LoadMode::Closed { concurrency } => (0..concurrency.max(1))
            .map(|_| {
                let (config, tally, stop, next) = (
                    config.clone(),
                    Arc::clone(&tally),
                    Arc::clone(&stop),
                    Arc::clone(&next_index),
                );
                std::thread::spawn(move || {
                    // One persistent connection per closed-loop worker.
                    let mut client = HttpClient::new(&config.target, config.keep_alive);
                    while !stop.load(Ordering::Acquire) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        fire(&config, i, &tally, &mut client);
                    }
                })
            })
            .collect(),
        LoadMode::Open { rate } => {
            assert!(rate > 0.0, "open-loop rate must be positive");
            let interval = Duration::from_secs_f64(1.0 / rate);
            let mut shooters = Vec::new();
            let mut next_arrival = t0;
            while t0.elapsed() < config.duration {
                let now = Instant::now();
                if now < next_arrival {
                    std::thread::sleep(next_arrival - now);
                }
                next_arrival += interval;
                let i = next_index.fetch_add(1, Ordering::Relaxed);
                let (config, tally) = (config.clone(), Arc::clone(&tally));
                shooters.push(std::thread::spawn(move || {
                    // One-shot arrivals gain nothing from keep-alive;
                    // `Connection: close` frees the server slot at once.
                    let mut client = HttpClient::new(&config.target, false);
                    fire(&config, i, &tally, &mut client);
                }));
            }
            shooters
        }
    };
    if matches!(config.mode, LoadMode::Closed { .. }) {
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Release);
    }
    for h in handles {
        let _ = h.join();
    }

    let r = Ordering::Relaxed;
    let mut modeled =
        tally.modeled.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    modeled.sort_by(f64::total_cmp);
    let worst_requests =
        tally.worst.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    let error_req_ids =
        tally.error_reqs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    LoadReport {
        requests: tally.requests.load(r),
        ok: tally.ok.load(r),
        tuned_ok: tally.tuned_ok.load(r),
        rejected: tally.rejected.load(r),
        errors: tally.errors.load(r),
        latency_us: tally.latency_us.snapshot(),
        worst_requests,
        error_req_ids,
        modeled_times: modeled,
        wall_seconds: t0.elapsed().as_secs_f64(),
        config: config.clone(),
    }
}

impl LoadReport {
    /// Serializes in the `ecl-bench/2` shape `ecl-prof gate` consumes:
    /// a manifest-style `metrics` array. Wall-latency metrics are
    /// machine-dependent; `modeled_time_units` is deterministic for a
    /// fixed job mix and is what CI gates (`--metric modeled`).
    pub fn to_json(&self) -> String {
        let mode = match self.config.mode {
            LoadMode::Closed { concurrency } => format!("closed/{concurrency}"),
            LoadMode::Open { rate } => format!("open/{rate}"),
        };
        let algos: Vec<&str> = self.config.algos.iter().map(|a| a.name()).collect();
        let mut metrics: Vec<String> = Vec::new();
        let metric = |name: &str, unit: &str, direction: &str, samples: &[f64]| {
            let vals: Vec<String> = samples.iter().map(|v| json::num(*v)).collect();
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \
                 \"direction\": \"{direction}\", \"samples\": [{}]}}",
                vals.join(", ")
            )
        };
        let l = &self.latency_us;
        if l.count > 0 {
            metrics.push(metric("request_latency_p50_us", "us", "lower", &[l.p50 as f64]));
            metrics.push(metric("request_latency_p99_us", "us", "lower", &[l.p99 as f64]));
        }
        if !self.modeled_times.is_empty() {
            // One sample per distinct job, not per completion: cache
            // hits repeat the same modeled time, and how often each
            // job completes varies run to run, which would skew the
            // gate's median. The deduplicated set is a pure function
            // of the job mix.
            let mut distinct: Vec<f64> = self.modeled_times.clone();
            distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
            metrics.push(metric("modeled_time_units", "units", "lower", &distinct));
        }
        metrics.push(metric(
            "throughput_ok_per_sec",
            "1/s",
            "higher",
            &[self.ok as f64 / self.wall_seconds.max(1e-9)],
        ));
        // Correlation ids for the tail and the failures: each id keys
        // into the server's flight recorder (`/v1/debug/requests`,
        // `/v1/jobs/:id/trace`) so a bad run is debuggable after the
        // fact.
        let worst: Vec<String> = self
            .worst_requests
            .iter()
            .map(|(latency_us, req_id)| {
                format!("{{\"req_id\": {req_id}, \"latency_us\": {latency_us}}}")
            })
            .collect();
        let error_ids: Vec<String> = self.error_req_ids.iter().map(u64::to_string).collect();
        format!(
            "{{\n  \"schema\": \"ecl-bench/2\",\n  \"benchmark\": \"ecl-loadgen\",\n  \
             \"git_sha\": \"{}\",\n  \"mode\": \"{mode}\",\n  \"keep_alive\": {},\n  \
             \"graph\": \"{}\",\n  \
             \"scale\": {},\n  \"distinct_seeds\": {},\n  \"algos\": [{}],\n  \
             \"requests\": {},\n  \"ok\": {},\n  \"tuned_ok\": {},\n  \"rejected\": {},\n  \
             \"errors\": {},\n  \
             \"wall_seconds\": {},\n  \"latency_us\": {{\"count\": {}, \"p50\": {}, \
             \"p90\": {}, \"p99\": {}, \"max\": {}}},\n  \
             \"worst_requests\": [{}],\n  \"error_req_ids\": [{}],\n  \
             \"metrics\": [\n{}\n  ]\n}}\n",
            ecl_prof::git_sha(),
            self.config.keep_alive,
            json::escape(&self.config.graph),
            self.config.scale,
            self.config.distinct_seeds,
            algos.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(", "),
            self.requests,
            self.ok,
            self.tuned_ok,
            self.rejected,
            self.errors,
            json::num(self.wall_seconds),
            l.count,
            l.p50,
            l.p90,
            l.p99,
            l.max,
            worst.join(", "),
            error_ids.join(", "),
            metrics.join(",\n")
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_gateable() {
        let report = LoadReport {
            requests: 10,
            ok: 8,
            tuned_ok: 3,
            rejected: 1,
            errors: 1,
            latency_us: {
                let s = LogSketch::new();
                s.record(1000);
                s.record(2000);
                s.snapshot()
            },
            worst_requests: vec![(2000, 42), (1000, 7)],
            error_req_ids: vec![13, 0],
            modeled_times: vec![5.0, 5.0, 7.0],
            wall_seconds: 2.0,
            config: LoadgenConfig::default(),
        };
        let text = report.to_json();
        // Parses as JSON and looks like a gateable manifest: string
        // schema + a metrics array with direction-tagged samples.
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("ecl-bench/2"));
        // Tuned-vs-default runs are distinguishable from the report.
        assert_eq!(v.get("tuned_ok").and_then(Value::as_f64), Some(3.0));
        // The slow tail and the failures carry server correlation ids.
        let worst = v.get("worst_requests").and_then(Value::as_arr).unwrap();
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].get("req_id").and_then(Value::as_f64), Some(42.0));
        assert_eq!(worst[0].get("latency_us").and_then(Value::as_f64), Some(2000.0));
        let errs = v.get("error_req_ids").and_then(Value::as_arr).unwrap();
        assert_eq!(errs.len(), 2);
        let metrics = v.get("metrics").and_then(Value::as_arr).unwrap();
        assert!(metrics.iter().any(|m| {
            // The duplicated 5.0 (a cache-hit completion) collapses.
            m.get("name").and_then(Value::as_str) == Some("modeled_time_units")
                && m.get("samples").and_then(Value::as_arr).is_some_and(|s| s.len() == 2)
        }));
        let manifest = ecl_prof::Manifest::from_value(&v).unwrap();
        assert!(manifest
            .metrics
            .iter()
            .any(|m| m.name == "modeled_time_units" && m.direction == ecl_prof::Direction::Lower));
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap().to_string();
        let served = std::thread::spawn(move || {
            // Accept exactly once; serve two responses on it. A client
            // that reconnects per call would hang on the second call.
            let (mut s, _) = listener.accept().unwrap();
            for body in ["{\"n\": 1}", "{\"n\": 2}"] {
                let mut seen = Vec::new();
                let mut chunk = [0u8; 1024];
                while find_terminator(&seen).is_none() {
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up early");
                    seen.extend_from_slice(&chunk[..n]);
                }
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut client = HttpClient::new(&target, true);
        let (status, body) = client.call("GET", "/one", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"n\": 1}"));
        let (status, body) = client.call("GET", "/two", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"n\": 2}"));
        served.join().unwrap();
    }

    #[test]
    fn client_retries_once_when_a_reused_connection_died() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap().to_string();
        let served = std::thread::spawn(move || {
            // First connection: one response, then hang up (as the
            // server's idle read-timeout reaper would).
            for body in ["{\"first\": true}", "{\"second\": true}"] {
                let (mut s, _) = listener.accept().unwrap();
                let mut seen = Vec::new();
                let mut chunk = [0u8; 1024];
                while find_terminator(&seen).is_none() {
                    let n = s.read(&mut chunk).unwrap();
                    if n == 0 {
                        break;
                    }
                    seen.extend_from_slice(&chunk[..n]);
                }
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(reply.as_bytes()).unwrap();
                drop(s);
            }
        });
        let mut client = HttpClient::new(&target, true);
        let (_, body) = client.call("GET", "/a", None).unwrap();
        assert!(body.contains("first"));
        // The server closed the connection; the retry path must make
        // this call succeed on a fresh one.
        let (_, body) = client.call("GET", "/b", None).unwrap();
        assert!(body.contains("second"), "{body}");
        served.join().unwrap();
    }

    #[test]
    fn request_bodies_round_robin_algos_and_seeds() {
        let config = LoadgenConfig {
            algos: vec![Algo::Cc, Algo::Scc],
            distinct_seeds: 2,
            ..LoadgenConfig::default()
        };
        let b0 = job_request_body(&config, 0);
        let b1 = job_request_body(&config, 1);
        let b2 = job_request_body(&config, 2);
        assert!(b0.contains("\"cc\"") && b0.contains("\"seed\": 0"));
        assert!(b1.contains("\"scc\"") && b1.contains("\"seed\": 1"));
        assert!(b2.contains("\"cc\"") && b2.contains("\"seed\": 0"));
    }
}
