//! End-to-end tests over a real listening server: submission,
//! backpressure (429), malformed-input handling, panic survival,
//! cancellation, `/metrics` content, and graceful-shutdown drain with
//! zero dropped in-flight jobs.

#![allow(clippy::unwrap_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ecl_profiling::json::{parse, Value};
use ecl_serve::catalog::CatalogConfig;
use ecl_serve::client::http_call;
use ecl_serve::http::Limits;
use ecl_serve::scheduler::SchedulerConfig;
use ecl_serve::server::{ServeConfig, Server};

fn small_server(max_queue: usize, max_concurrency: usize) -> Server {
    Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        catalog: CatalogConfig::default(),
        scheduler: SchedulerConfig { max_queue, max_concurrency, max_history: 256 },
        result_entries: 64,
        limits: Limits::default(),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn submit(target: &str, body: &str) -> (u16, Value) {
    let (status, text) = http_call(target, "POST", "/v1/jobs", Some(body)).unwrap();
    (status, parse(&text).unwrap_or(Value::Null))
}

fn field_str<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

#[test]
fn submit_poll_and_result() {
    let server = small_server(16, 2);
    let target = server.addr().to_string();

    let (status, body) = http_call(&target, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"));

    // Async submission: 202 + queued/running state, then poll to done.
    let (status, v) =
        submit(&target, r#"{"algo": "cc", "graph": "internet", "scale": 0.002, "seed": 5}"#);
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("id").and_then(Value::as_f64).unwrap() as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let final_v = loop {
        let (s, text) = http_call(&target, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(s, 200);
        let v = parse(&text).unwrap();
        match field_str(&v, "state") {
            "done" => break v,
            "failed" | "cancelled" | "deadline-exceeded" => panic!("job ended badly: {text}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let result = final_v.get("result").expect("done job carries a result");
    assert!(result.get("aggregates").and_then(|a| a.get("num_components")).is_some());
    assert!(result.get("modeled_time").and_then(Value::as_f64).unwrap() > 0.0);

    // Synchronous submission of the same spec: immediate done + cached.
    let (status, v) = submit(
        &target,
        r#"{"algo": "cc", "graph": "internet", "scale": 0.002, "seed": 5, "wait_ms": 60000}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(field_str(&v, "state"), "done");
    assert_eq!(v.get("cached").map(|c| matches!(c, Value::Bool(true))), Some(true));

    // Unknown job and bad id.
    assert_eq!(http_call(&target, "GET", "/v1/jobs/999999", None).unwrap().0, 404);
    assert_eq!(http_call(&target, "GET", "/v1/jobs/xyz", None).unwrap().0, 400);
    server.shutdown();
}

#[test]
fn graphs_catalog_lists_registry() {
    let server = small_server(4, 1);
    let target = server.addr().to_string();
    let (status, text) = http_call(&target, "GET", "/v1/graphs", None).unwrap();
    assert_eq!(status, 200);
    let v = parse(&text).unwrap();
    let rows = v.get("graphs").and_then(Value::as_arr).unwrap();
    assert!(rows.len() >= 22, "expected the full registry, got {}", rows.len());
    assert!(rows.iter().any(|r| field_str(r, "name") == "internet"));
    assert!(rows
        .iter()
        .any(|r| field_str(r, "name") == "star"
            && matches!(r.get("directed"), Some(Value::Bool(true)))));
    server.shutdown();
}

#[test]
fn backpressure_rejects_with_429_not_queueing() {
    let server = small_server(2, 1);
    let target = server.addr().to_string();
    // Stall the single worker, fill the queue of 2, then overflow.
    let slow = r#"{"algo": "cc", "graph": "internet", "delay_ms": 700}"#;
    assert_eq!(submit(&target, slow).0, 202);
    // Wait for the worker to pick the stalled job up so the queue is empty.
    let t0 = std::time::Instant::now();
    loop {
        let (_, text) = http_call(&target, "GET", "/metrics", None).unwrap();
        if text.contains("ecl_serve_jobs_running 1") || t0.elapsed() > Duration::from_secs(5) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let quick = r#"{"algo": "cc", "graph": "internet", "delay_ms": 100}"#;
    assert_eq!(submit(&target, quick).0, 202);
    assert_eq!(submit(&target, quick).0, 202);
    let (status, v) = submit(&target, quick);
    assert_eq!(status, 429, "third queued job must be rejected: {v:?}");

    let (_, metrics) = http_call(&target, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("ecl_serve_admission_rejections_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn malformed_requests_do_not_kill_the_server() {
    let server = small_server(8, 1);
    let target = server.addr().to_string();

    // Raw garbage straight onto the socket.
    for garbage in [
        b"\x00\xffnot http at all\r\n\r\n".to_vec(),
        b"GET  HTTP/1.1\r\n\r\n".to_vec(),
        vec![0xde; 2048],
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".to_vec(),
    ] {
        let mut s = TcpStream::connect(&target).unwrap();
        let _ = s.write_all(&garbage);
        let mut out = Vec::new();
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = s.read_to_end(&mut out);
    }
    // Bad JSON / bad fields through the parser.
    assert_eq!(submit(&target, "{not json").0, 400);
    assert_eq!(submit(&target, r#"{"algo": "bfs", "graph": "internet"}"#).0, 400);
    assert_eq!(submit(&target, r#"{"algo": "cc"}"#).0, 400);
    assert_eq!(submit(&target, r#"{"algo": "cc", "graph": "internet", "scale": 7}"#).0, 400);
    // Unknown graph is admitted, then fails cleanly.
    let (status, v) = submit(&target, r#"{"algo": "cc", "graph": "nope", "wait_ms": 30000}"#);
    assert_eq!(status, 200);
    assert_eq!(field_str(&v, "state"), "failed");
    // SCC on an undirected graph fails with a clear message.
    let (_, v) = submit(&target, r#"{"algo": "scc", "graph": "internet", "wait_ms": 30000}"#);
    assert_eq!(field_str(&v, "state"), "failed");
    assert!(field_str(&v, "error").contains("directed"));

    // The server still works.
    let (status, v) = submit(&target, r#"{"algo": "mis", "graph": "internet", "wait_ms": 60000}"#);
    assert_eq!(status, 200);
    assert_eq!(field_str(&v, "state"), "done");
    let (_, metrics) = http_call(&target, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("ecl_serve_http_malformed_total"), "{metrics}");
    server.shutdown();
}

#[test]
fn panicking_job_is_contained() {
    let server = small_server(8, 1);
    let target = server.addr().to_string();
    let (status, v) = submit(
        &target,
        r#"{"algo": "cc", "graph": "internet", "fault": "panic", "wait_ms": 30000}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(field_str(&v, "state"), "failed");
    assert!(field_str(&v, "error").contains("panicked"), "{v:?}");
    // The worker thread survived and serves the next job.
    let (_, v) = submit(&target, r#"{"algo": "gc", "graph": "internet", "wait_ms": 60000}"#);
    assert_eq!(field_str(&v, "state"), "done");
    let (_, metrics) = http_call(&target, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("ecl_serve_jobs_panicked_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn cancellation_of_queued_job() {
    let server = small_server(8, 1);
    let target = server.addr().to_string();
    // Stall the worker, then cancel a job stuck behind it.
    submit(&target, r#"{"algo": "cc", "graph": "internet", "delay_ms": 500}"#);
    let (_, v) = submit(&target, r#"{"algo": "cc", "graph": "internet"}"#);
    let id = v.get("id").and_then(Value::as_f64).unwrap() as u64;
    let (status, text) = http_call(&target, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = parse(&text).unwrap();
    assert_eq!(field_str(&v, "state"), "cancelled");
    // Cancelling again conflicts.
    let (status, _) = http_call(&target, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(status, 409);
    server.shutdown();
}

#[test]
fn metrics_expose_required_series() {
    let server = small_server(8, 2);
    let target = server.addr().to_string();
    submit(&target, r#"{"algo": "cc", "graph": "internet", "wait_ms": 60000}"#);
    submit(&target, r#"{"algo": "cc", "graph": "internet", "wait_ms": 60000}"#);
    let (status, text) = http_call(&target, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for needle in [
        "ecl_serve_queue_depth",
        "ecl_serve_jobs_running",
        "ecl_serve_admission_rejections_total",
        "ecl_serve_result_cache_hit_ratio",
        "ecl_distribution{name=\"job_run_us/cc\",quantile=\"0.99\"}",
        "ecl_serve_graph_cache_hits_total",
        // Kernel series from the installed profiling collector.
        "ecl_kernel_wall_ns",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs() {
    let server = small_server(32, 2);
    let target = server.addr().to_string();

    // Queue a burst of delayed jobs, then shut down mid-flight.
    let ids: Vec<u64> = (0..6)
        .map(|i| {
            let body = format!(
                "{{\"algo\": \"cc\", \"graph\": \"internet\", \"seed\": {i}, \"delay_ms\": 60}}"
            );
            let (status, v) = submit(&target, &body);
            assert_eq!(status, 202);
            v.get("id").and_then(Value::as_f64).unwrap() as u64
        })
        .collect();

    // Begin the drain over HTTP, as an operator would.
    let (status, _) = http_call(&target, "POST", "/v1/admin/shutdown", None).unwrap();
    assert_eq!(status, 202);
    let (_, health) = http_call(&target, "GET", "/healthz", None).unwrap();
    assert!(health.contains("\"draining\": true"), "{health}");
    // New submissions are refused while draining.
    let (status, _) = submit(&target, r#"{"algo": "cc", "graph": "internet"}"#);
    assert_eq!(status, 503);

    // Complete the drain; every admitted job must have finished —
    // zero dropped in-flight jobs.
    server.shutdown();
    let jobs = server.jobs_snapshot();
    for id in ids {
        let job = jobs
            .iter()
            .find(|j| j.id == id)
            .unwrap_or_else(|| panic!("job {id} vanished during drain"));
        assert_eq!(
            job.state(),
            ecl_serve::jobs::JobState::Done,
            "job {id} was dropped by shutdown: {:?}",
            job.end_message()
        );
    }
}
