//! The tentpole guarantee of `ecl-trace`: on a device with no
//! observer attached, every hook site in the simulator and the
//! algorithms costs one thread-local load (per-thread hooks) or one
//! relaxed load (host-side hooks) — running an instrumented
//! algorithm must be within noise of the pre-tracing baseline.
//!
//! Timing comparisons in CI are noisy, so the disabled-path assertion
//! uses a generous multiplier and median-of-several-runs on both
//! sides; a real regression (taking a lock or formatting a string per
//! event on the disabled path) is orders of magnitude, not percent.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::time::Instant;

use ecl_cc::CcConfig;
use ecl_gpusim::observe;
use ecl_profiling::ProfileMode;
use ecl_trace::{ClockMode, EventKind, Tracer, TracerConfig};

const SCALE: f64 = 0.002;

fn median_cc_secs(g: &ecl_graph::Csr, runs: usize) -> f64 {
    let cfg = CcConfig { mode: ProfileMode::Off, ..CcConfig::baseline() };
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let device = ecl_bench::scaled_device(SCALE);
            let t0 = Instant::now();
            std::hint::black_box(ecl_cc::run(&device, g, &cfg));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

#[test]
fn disabled_tracing_overhead_on_cc_is_within_noise() {
    let spec = ecl_graphgen::registry::find("as-skitter").expect("registered input");
    let g = spec.generate(SCALE, 42);

    // Direct bound on a hook site of a device with no observers: 10M
    // calls must stay under 50 ns each. The real cost is one relaxed
    // load (~1 ns); a regression that takes a lock or formats per
    // event lands in the microseconds and fails by orders of
    // magnitude.
    let device = ecl_bench::scaled_device(SCALE);
    assert!(device.observers().find::<Tracer>().is_none());
    const CALLS: u32 = 10_000_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        observe::round(&device, std::hint::black_box(i));
    }
    let per_call = t0.elapsed().as_secs_f64() / CALLS as f64;
    assert!(per_call < 50e-9, "disabled hook costs {:.1} ns/call", per_call * 1e9);

    // End-to-end: a CC run on the disabled path must sit within noise
    // of an identical back-to-back batch (~600k emission sites per
    // run; a per-event pathology would dominate the runtime).
    let warmup = median_cc_secs(&g, 2);
    let baseline = median_cc_secs(&g, 5);
    let rerun = median_cc_secs(&g, 5);
    let _ = warmup;
    assert!(
        rerun <= baseline * 3.0 + 0.05,
        "disabled-path run took {rerun:.4}s vs baseline {baseline:.4}s"
    );
}

#[test]
fn enabled_tracing_captures_cc_structure() {
    let spec = ecl_graphgen::registry::find("as-skitter").expect("registered input");
    let g = spec.generate(SCALE, 42);
    let cfg = CcConfig { mode: ProfileMode::Off, ..CcConfig::baseline() };

    let tracer = Arc::new(Tracer::new(TracerConfig {
        slots: 16,
        events_per_slot: 1 << 14,
        clock: ClockMode::Logical,
    }));
    let device = ecl_bench::scaled_device(SCALE);
    let attached = device.observe(tracer.clone());
    ecl_cc::run(&device, &g, &cfg);
    drop(attached);
    let snap = tracer.snapshot();

    // CC launches 5 kernels (init, three compute bins, finalize), each
    // bracketed by a phase; block starts and ends pair up.
    assert_eq!(snap.of_kind(EventKind::KernelLaunch).count(), 5);
    assert_eq!(snap.of_kind(EventKind::PhaseStart).count(), 5);
    assert_eq!(snap.of_kind(EventKind::PhaseEnd).count(), 5);
    assert_eq!(
        snap.of_kind(EventKind::BlockStart).count(),
        snap.of_kind(EventKind::BlockEnd).count()
    );
    for phase in ["init", "compute-low", "compute-medium", "compute-high", "finalize"] {
        assert!(
            snap.strings.iter().any(|s| s == phase),
            "missing phase {phase} in {:?}",
            snap.strings
        );
    }

    // The capture round-trips through the .etr format and the Chrome
    // exporter without loss.
    let mut bytes = Vec::new();
    ecl_trace::write_snapshot(&mut bytes, &snap).unwrap();
    let back = ecl_trace::read_snapshot(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.events, snap.events);
    let json = ecl_trace::to_chrome_json(&back);
    assert!(json.contains("kernel-launch"));
    assert!(json.contains("\"init\""));
}
