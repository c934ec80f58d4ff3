//! Hostile JSON must produce an error, never a dead process.
//!
//! `ecl_profiling::json::parse` reads HTTP bodies (`POST /v1/jobs`), tune
//! manifests and schedules. Unbounded recursion there is fatal — one
//! request of 60 000 `[` overflows the stack and aborts `ecl-serve`,
//! which no `catch_unwind` can contain — and per-character
//! re-validation of the remaining input is quadratic. These tests pin
//! the depth bound, the linear cost, and the server's answer.

#![allow(clippy::unwrap_used)]

use std::time::{Duration, Instant};

use ecl_profiling::json::{parse, Value, MAX_DEPTH};
use ecl_suite::serve::loadgen::http_call;
use ecl_suite::serve::{ServeConfig, Server};
use proptest::prelude::*;

/// Containers open at once at the deepest point of `v`.
fn depth(v: &Value) -> usize {
    match v {
        Value::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// `n` containers nested inside each other, arrays and objects
/// alternating by the bits of `kinds`.
fn nested(n: usize, kinds: u64) -> String {
    let object = |i: usize| kinds >> (i % 64) & 1 == 1;
    let open: String = (0..n).map(|i| if object(i) { "{\"k\": " } else { "[" }).collect();
    let close: String = (0..n).rev().map(|i| if object(i) { "}" } else { "]" }).collect();
    format!("{open}1{close}")
}

/// The pieces hostile documents are assembled from: structure, string
/// and escape fragments (some cut short), numbers, literals, and
/// multi-byte scalars.
const TOKENS: [&str; 24] = [
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\u00e9", "\\n", "12", "-", "e", ".", "true",
    "nul", " ", "\n", "k", "é", "→", "𝄞", "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Arbitrary token soup: parse returns, and whatever it accepts
    // respects the depth bound.
    #[test]
    fn hostile_documents_never_panic(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..200)) {
        let doc: String = picks.iter().map(|&i| TOKENS[i]).collect();
        if let Ok(v) = parse(&doc) {
            prop_assert!(depth(&v) <= MAX_DEPTH, "{}", doc);
        }
    }

    // Well-formed nesting parses exactly up to the bound.
    #[test]
    fn nesting_parses_iff_within_the_bound(n in 0usize..200, kinds in 0u64..u64::MAX) {
        match parse(&nested(n, kinds)) {
            Ok(v) => {
                prop_assert!(n <= MAX_DEPTH);
                prop_assert_eq!(depth(&v), n);
            }
            Err(e) => {
                prop_assert!(n > MAX_DEPTH, "depth {} refused: {}", n, e);
                prop_assert!(e.contains("nesting"), "{}", e);
            }
        }
    }
}

#[test]
fn depth_limit_is_64_and_the_killer_document_is_an_error() {
    assert!(parse(&nested(64, 0)).is_ok() && parse(&nested(64, u64::MAX)).is_ok());
    assert!(parse(&nested(65, 0)).is_err() && parse(&nested(65, u64::MAX)).is_err());
    assert!(parse(&"[".repeat(60_000)).is_err());
    assert!(parse(&"{\"a\":".repeat(60_000)).is_err());
}

#[test]
fn a_megabyte_string_parses_in_linear_time() {
    // Mixed widths so the scalar path, not just ASCII, is exercised.
    // The quadratic parser needed ~10 s for this in a release build.
    let payload = "aé→𝄞\\n".repeat((1 << 20) / 12);
    let doc = format!("{{\"k\": \"{payload}\"}}");
    assert!(doc.len() >= 1 << 20);
    let start = Instant::now();
    let v = parse(&doc).unwrap();
    let took = start.elapsed();
    assert_eq!(v.get("k").unwrap().as_str().unwrap().chars().count(), 5 * ((1 << 20) / 12));
    assert!(took < Duration::from_secs(1), "1 MiB string took {took:?}");
}

#[test]
fn deep_nesting_post_gets_400_and_the_server_lives() {
    let server =
        Server::start(ServeConfig { listen: "127.0.0.1:0".to_string(), ..ServeConfig::default() })
            .expect("bind ephemeral port");
    let target = server.addr().to_string();
    let post = |body: &str| http_call(&target, "POST", "/v1/jobs", Some(body)).unwrap();

    let (status, body) = post(&"[".repeat(60_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    // A 60 KB string value is a well-formed (if useless) field.
    let (status, body) = post(&format!("{{\"algo\": \"{}\"}}", "x".repeat(60_000)));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown algo"), "{}", &body[..80]);

    let (status, body) = http_call(&target, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "{body}");
    server.shutdown();
}
