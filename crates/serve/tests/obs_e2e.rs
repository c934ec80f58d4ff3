//! End-to-end request correlation: every kernel span in a request's
//! trace carries the originating `ReqId`, concurrent requests do not
//! cross-contaminate, and the SLO engine's series appear in `/metrics`
//! with finite burn rates and exemplars.
//!
//! One `#[test]` on purpose — the collector and tracer a server
//! installs are one per process (installing replaces), so a second
//! concurrently running server would race the install/uninstall pairs.

use ecl_profiling::expo::lint_exposition;
use ecl_profiling::json::{parse, Value};
use ecl_serve::catalog::CatalogConfig;
use ecl_serve::client::{http_call, HttpClient};
use ecl_serve::http::Limits;
use ecl_serve::scheduler::SchedulerConfig;
use ecl_serve::server::{ServeConfig, Server};

fn field_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(-1.0)
}

fn field_str<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Submits one job over a persistent connection and returns
/// `(job_id, req_id_from_header, response)`.
fn submit_wait(target: &str, body: &str) -> (u64, u64, Value) {
    let mut client = HttpClient::new(target, true);
    let (status, text) = client.call("POST", "/v1/jobs", Some(body)).expect("submit");
    assert_eq!(status, 200, "wait_ms submission should answer terminal: {text}");
    let v = parse(&text).unwrap_or(Value::Null);
    let job_id = field_f64(&v, "id") as u64;
    (job_id, client.last_req_id(), v)
}

/// Fetches and parses a request trace by job id.
fn fetch_trace(target: &str, job_id: u64) -> Value {
    let (status, text) =
        http_call(target, "GET", &format!("/v1/jobs/{job_id}/trace"), None).expect("trace");
    assert_eq!(status, 200, "trace endpoint: {text}");
    parse(&text).expect("trace JSON parses")
}

/// Asserts the invariants the trace endpoint promises: the summary
/// carries the header's req id, all kernel spans belong to `algo`
/// (names are `<algo>.`-prefixed), and kernel wall time is positive
/// and bounded by the reported run time plus accounting slack.
fn check_trace(trace: &Value, req_id: u64, algo: &str) {
    let summary = trace.get("summary").expect("summary present");
    assert_eq!(field_f64(summary, "req") as u64, req_id, "x-ecl-req matches the trace identity");
    assert_eq!(field_str(summary, "algo"), algo);
    assert_eq!(field_str(summary, "outcome"), "done");

    let spans = trace.get("spans").and_then(Value::as_arr).expect("spans array");
    let prefix = format!("{algo}.");
    let mut kernel_sum_ns = 0.0;
    let mut kernels = 0u64;
    for span in spans {
        match field_str(span, "kind") {
            "kernel" => {
                kernels += 1;
                kernel_sum_ns += field_f64(span, "wall_ns");
                let name = field_str(span, "name");
                assert!(
                    name.starts_with(&prefix),
                    "kernel {name:?} leaked into the {algo} request's trace"
                );
            }
            "phase" => {
                assert!(!field_str(span, "name").is_empty());
            }
            other => panic!("unknown span kind {other:?}"),
        }
    }
    assert!(kernels > 0, "request ran kernels; the trace must carry them");
    assert_eq!(field_f64(summary, "kernels") as u64, kernels, "summary agrees with span count");

    // Accounting: kernel wall time sums to (at most) the run time.
    // Slack covers launch gaps inside rounds and timer rounding; the
    // sum must never *exceed* run time by more than measurement noise.
    let run_ns = field_f64(summary, "run_ns");
    assert!(run_ns > 0.0, "run_ns recorded");
    assert!(kernel_sum_ns > 0.0, "kernel spans carry wall time");
    let bound = run_ns * 1.25 + 5_000_000.0;
    assert!(
        kernel_sum_ns <= bound,
        "kernel wall sum {kernel_sum_ns}ns exceeds run {run_ns}ns (+slack)"
    );
}

#[test]
fn request_correlation_flows_from_http_to_kernels() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        catalog: CatalogConfig::default(),
        scheduler: SchedulerConfig { max_queue: 32, max_concurrency: 2, max_history: 256 },
        result_entries: 64,
        limits: Limits::default(),
        slo: Some("cc:p99=5ms,err=1%".to_string()),
        // Pin every trace: nothing this test submits may age out.
        slow_request_ms: 0,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let target = server.addr().to_string();

    // Warm the graph so the measured requests are not dominated by a
    // cold generate+materialize (distinct seeds below avoid the result
    // cache — a cached request runs no kernels).
    let warm =
        r#"{"algo": "cc", "graph": "internet", "scale": 0.002, "seed": 0, "wait_ms": 60000}"#;
    let (_, warm_req, v) = submit_wait(&target, warm);
    assert_eq!(field_str(&v, "state"), "done");
    assert!(warm_req != 0, "every HTTP response carries x-ecl-req");

    // Two concurrent requests running *different* algorithms: kernel
    // names are algo-prefixed, so any cross-request sample leakage
    // shows up as a foreign prefix in the other request's trace.
    let cc_body =
        r#"{"algo": "cc", "graph": "internet", "scale": 0.002, "seed": 1, "wait_ms": 60000}"#;
    let gc_body =
        r#"{"algo": "gc", "graph": "internet", "scale": 0.002, "seed": 2, "wait_ms": 60000}"#;
    let cc_thread = {
        let target = target.clone();
        std::thread::spawn(move || submit_wait(&target, cc_body))
    };
    let gc_thread = {
        let target = target.clone();
        std::thread::spawn(move || submit_wait(&target, gc_body))
    };
    let (cc_job, cc_req, cc_v) = cc_thread.join().expect("cc thread");
    let (gc_job, gc_req, gc_v) = gc_thread.join().expect("gc thread");
    assert_eq!(field_str(&cc_v, "state"), "done", "{cc_v:?}");
    assert_eq!(field_str(&gc_v, "state"), "done", "{gc_v:?}");
    assert!(cc_req != 0 && gc_req != 0 && cc_req != gc_req, "distinct per-request ids");

    check_trace(&fetch_trace(&target, cc_job), cc_req, "cc");
    check_trace(&fetch_trace(&target, gc_job), gc_req, "gc");

    // Flight recorder: both requests are in the ring, and ?slowest=N
    // returns a bounded, ordered view.
    let (status, text) = http_call(&target, "GET", "/v1/debug/requests", None).expect("debug");
    assert_eq!(status, 200);
    let v = parse(&text).expect("debug JSON");
    assert!(field_f64(&v, "retained") >= 3.0, "warm + cc + gc retained: {text}");
    let listed: Vec<u64> = v
        .get("requests")
        .and_then(Value::as_arr)
        .expect("requests array")
        .iter()
        .map(|r| field_f64(r, "req") as u64)
        .collect();
    assert!(listed.contains(&cc_req) && listed.contains(&gc_req), "{listed:?}");

    let (status, text) =
        http_call(&target, "GET", "/v1/debug/requests?slowest=2", None).expect("debug slowest");
    assert_eq!(status, 200);
    let v = parse(&text).expect("slowest JSON");
    let slowest = v.get("requests").and_then(Value::as_arr).expect("requests array");
    assert_eq!(slowest.len(), 2, "slowest=N bounds the answer");
    let t0 = field_f64(&slowest[0], "total_ns");
    let t1 = field_f64(&slowest[1], "total_ns");
    assert!(t0 >= t1, "slowest-first ordering: {t0} < {t1}");

    // SLO series: finite burn rates, exemplars linking buckets to req
    // ids, and the whole exposition stays lint-clean.
    let (status, prom) = http_call(&target, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    for needle in [
        "ecl_slo_requests_total{algo=\"cc\"",
        "ecl_slo_burn_rate{algo=\"cc\"",
        "ecl_slo_error_budget{algo=\"cc\"",
        "ecl_slo_latency_seconds_bucket",
        "ecl_obs_requests_retained",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in /metrics");
    }
    for line in prom.lines().filter(|l| l.starts_with("ecl_slo_burn_rate")) {
        let value = line.rsplit(' ').next().unwrap_or("");
        let parsed: f64 = value.parse().unwrap_or(f64::NAN);
        assert!(parsed.is_finite(), "burn rate must be finite: {line}");
    }
    assert!(prom.contains("# {req_id=\""), "latency histogram carries exemplars");
    let problems = lint_exposition(&prom);
    assert!(problems.is_empty(), "live /metrics hygiene:\n{}", problems.join("\n"));

    server.shutdown();
}
