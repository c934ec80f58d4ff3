//! Connection-level end-to-end tests: the failure mode this server
//! was rebuilt to survive. A flood of idle and slow-loris connections
//! beyond `max_connections` must be rejected with an immediate 503 —
//! not a thread each — while healthy requests keep succeeding, and the
//! read deadline must reclaim the stuck slots without operator help.
//! And a busy keep-alive soak must hold one connection per client for
//! its whole run while answers stay deterministic.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ecl_profiling::json::{parse, Value};
use ecl_serve::catalog::CatalogConfig;
use ecl_serve::client::{http_call, HttpClient};
use ecl_serve::http::Limits;
use ecl_serve::scheduler::SchedulerConfig;
use ecl_serve::server::{ServeConfig, Server};

/// Serializes these tests: thread-count and connection-count
/// assertions must not see another test's server churning.
static FLOOD_LOCK: Mutex<()> = Mutex::new(());

fn flood_server(max_connections: usize, read_timeout_ms: u64) -> Server {
    Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        catalog: CatalogConfig::default(),
        scheduler: SchedulerConfig { max_queue: 16, max_concurrency: 2, max_history: 64 },
        result_entries: 16,
        limits: Limits::default(),
        max_connections,
        read_timeout_ms,
        write_timeout_ms: 5_000,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    ok()
}

/// Scrapes `/metrics` and returns the value of a counter line.
fn counter(target: &str, name: &str) -> u64 {
    let (status, text) = http_call(target, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len()..].trim().parse().ok())
        .unwrap_or_else(|| panic!("no counter {name} in:\n{text}"))
}

// The headline acceptance check: two orders of magnitude more open
// connections than the old model could hold without two orders of
// magnitude more threads. 120 idle keep-alive connections stay open
// (read timeout is long) while the process thread count stays flat —
// accept + reactor + workers, nothing per-connection.
#[test]
fn hundreds_of_idle_connections_with_flat_thread_count() {
    let _guard = FLOOD_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let server = flood_server(160, 30_000);
    let target = server.addr().to_string();

    // Warm: one request so lazily spawned threads exist before the
    // baseline measurement.
    assert_eq!(http_call(&target, "GET", "/healthz", None).unwrap().0, 200);
    #[cfg(target_os = "linux")]
    let baseline = thread_count();

    let held: Vec<TcpStream> =
        (0..120).map(|_| TcpStream::connect(&target).expect("connect idle")).collect();
    assert!(
        wait_until(Duration::from_secs(5), || server.open_connections() >= 120),
        "server never registered the idle flood (open = {})",
        server.open_connections()
    );

    // Healthy traffic still flows past the idle herd.
    let (status, body) = http_call(&target, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"));

    #[cfg(target_os = "linux")]
    {
        let during = thread_count();
        assert!(
            during <= baseline + 3,
            "thread count grew with connections: {baseline} -> {during} for 120 idle conns"
        );
    }

    let (_, metrics) = http_call(&target, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("ecl_serve_connections_open 12"), "{metrics}");

    drop(held);
    assert!(
        wait_until(Duration::from_secs(5), || server.open_connections() <= 1),
        "dropped connections were not reaped (open = {})",
        server.open_connections()
    );
    server.shutdown();
}

// Beyond `max_connections` the accept thread answers 503 and closes on
// the spot; once the read deadline reclaims the idle and slow-loris
// slots, new clients are served again. No restart, no thread leak.
#[test]
fn flood_beyond_cap_gets_503_and_deadline_recovers_the_slots() {
    let _guard = FLOOD_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let server = flood_server(12, 1_200);
    let target = server.addr().to_string();

    // Fill the cap: 8 fully idle + 4 slow-loris connections that
    // trickle a partial request head and stall.
    let mut held: Vec<TcpStream> = Vec::new();
    for _ in 0..8 {
        held.push(TcpStream::connect(&target).expect("connect idle"));
    }
    for _ in 0..4 {
        let mut s = TcpStream::connect(&target).expect("connect loris");
        s.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Le").expect("loris bytes");
        held.push(s);
    }
    assert!(
        wait_until(Duration::from_secs(5), || server.open_connections() >= 12),
        "flood never filled the cap (open = {})",
        server.open_connections()
    );

    // The 13th connection is told to go away immediately: a complete
    // 503 response, then EOF. It must not hang waiting for a slot.
    let mut turned_away = 0;
    for _ in 0..3 {
        let mut s = TcpStream::connect(&target).expect("connect over cap");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).expect("read 503");
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 503"), "over-cap response: {text:?}");
        assert!(text.contains("connection limit reached"), "{text:?}");
        turned_away += 1;
    }
    assert_eq!(turned_away, 3);

    // The read deadline reclaims every stuck slot — the slow-loris
    // trickle must not have extended it.
    assert!(
        wait_until(Duration::from_secs(6), || server.open_connections() == 0),
        "deadline never reclaimed the flood (open = {})",
        server.open_connections()
    );
    let (status, body) = http_call(&target, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"));

    assert!(counter(&target, "ecl_serve_connections_rejected_total") >= 3);
    assert!(counter(&target, "ecl_serve_conn_read_timeouts_total") >= 12);
    assert!(counter(&target, "ecl_serve_connections_accepted_total") >= 15);
    drop(held);
    server.shutdown();
}

// Keep-alive on the wire: one raw socket, three requests, three
// responses, connection stays open until the client says close.
#[test]
fn keep_alive_serves_sequential_requests_on_one_socket() {
    let _guard = FLOOD_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let server = flood_server(16, 10_000);
    let target = server.addr().to_string();

    let mut s = TcpStream::connect(&target).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let read_one = |s: &mut TcpStream| -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            // Head complete?
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..i]).to_string();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .expect("response carries Content-Length");
                while buf.len() < i + 4 + len {
                    let n = s.read(&mut chunk).expect("read body");
                    assert!(n > 0, "server hung up mid-body");
                    buf.extend_from_slice(&chunk[..n]);
                }
                return String::from_utf8_lossy(&buf[..i + 4 + len]).to_string();
            }
            let n = s.read(&mut chunk).expect("read head");
            assert!(n > 0, "server hung up before response");
            buf.extend_from_slice(&chunk[..n]);
        }
    };

    for _ in 0..2 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let response = read_one(&mut s);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("Connection: keep-alive"), "{response}");
        assert!(response.contains("\"ok\": true"), "{response}");
    }

    // Third request asks to close: the server honors it with EOF.
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let response = read_one(&mut s);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("clean EOF after close");
    assert!(rest.is_empty(), "bytes after close: {rest:?}");

    // Exactly one connection served all three requests.
    assert_eq!(counter(&target, "ecl_serve_keepalive_reuses_total"), 2);
    server.shutdown();
}

// 32 clients, each on one keep-alive connection, submit 8 jobs apiece
// through a mix of 12 (algo, seed) pairs: every job finishes, every
// (algo, seed) answers with one checksum however often and on whichever
// worker it ran, no connection is ever re-opened, and the flight
// recorder's slowest-first view keeps a sane kernel-time account.
#[test]
fn keep_alive_soak_answers_deterministically() {
    let _guard = FLOOD_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    const CLIENTS: usize = 32;
    const JOBS_PER_CLIENT: usize = 8;
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig { max_queue: 64, max_concurrency: 2, max_history: 512 },
        max_connections: 64,
        read_timeout_ms: 30_000,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let target = server.addr().to_string();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let target = target.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::new(&target, true);
                (0..JOBS_PER_CLIENT)
                    .map(|j| {
                        let i = c * JOBS_PER_CLIENT + j;
                        let (algo, seed) = (["cc", "mis", "gc"][i % 3], i % 4);
                        let body = format!(
                            "{{\"algo\": \"{algo}\", \"graph\": \"internet\", \
                             \"scale\": 0.002, \"seed\": {seed}, \"wait_ms\": 120000}}"
                        );
                        let (status, text) = client.call("POST", "/v1/jobs", Some(&body)).unwrap();
                        assert_eq!(status, 200, "{algo}/{seed}: {text}");
                        let v = parse(&text).unwrap();
                        assert_eq!(v.get("state").and_then(Value::as_str), Some("done"), "{text}");
                        let aggregates = v.get("result").and_then(|r| r.get("aggregates"));
                        let checksum = ["labels_checksum", "set_checksum", "colors_checksum"]
                            .iter()
                            .find_map(|k| aggregates.and_then(|a| a.get(k)).and_then(Value::as_f64))
                            .unwrap_or_else(|| panic!("{algo}/{seed} has no checksum: {text}"));
                        ((algo, seed), checksum.to_bits())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut answers: BTreeMap<(&str, usize), Vec<u64>> = BTreeMap::new();
    for client in clients {
        for (key, checksum) in client.join().unwrap() {
            answers.entry(key).or_default().push(checksum);
        }
    }
    assert_eq!(answers.len(), 12, "every (algo, seed) pair ran: {:?}", answers.keys());
    for (key, checksums) in &answers {
        assert!(checksums.windows(2).all(|w| w[0] == w[1]), "{key:?} answered {checksums:?}");
    }

    // Each client's first call opens its connection; the other seven
    // reuse it (a reconnect would lose one).
    let reuses = counter(&target, "ecl_serve_keepalive_reuses_total");
    assert!(reuses >= (CLIENTS * (JOBS_PER_CLIENT - 1)) as u64, "{reuses} keep-alive reuses");

    let (status, text) = http_call(&target, "GET", "/v1/debug/requests?slowest=5", None).unwrap();
    assert_eq!(status, 200);
    let dump = parse(&text).unwrap();
    let reqs = dump.get("requests").and_then(Value::as_arr).unwrap();
    assert!(!reqs.is_empty(), "recorder kept nothing: {text}");
    let field = |r: &Value, k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(-1.0);
    let totals: Vec<f64> = reqs.iter().map(|r| field(r, "total_ns")).collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "not slowest-first: {totals:?}");
    for r in reqs {
        let ran = r.get("outcome").and_then(Value::as_str) == Some("done")
            && !matches!(r.get("cached"), Some(Value::Bool(true)));
        if ran {
            let bound = field(r, "run_ns") * 1.25 + 5_000_000.0;
            assert!(field(r, "kernel_wall_ns") <= bound, "kernel time exceeds run time: {r:?}");
        }
    }
    server.shutdown();
}
