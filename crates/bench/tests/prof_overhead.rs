//! The tentpole guarantee of `ecl-prof`: on a device with no observer
//! attached, every launch in the simulator pays one relaxed load for
//! the sample decision — running an algorithm must be within noise
//! of the pre-profiling baseline.
//!
//! Mirrors `trace_overhead.rs`: timing comparisons in CI are noisy, so
//! the assertions use generous multipliers and median-of-several-runs;
//! a real regression (timing every block or allocating a sample on the
//! disabled path) is orders of magnitude, not percent.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::time::Instant;

use ecl_cc::CcConfig;
use ecl_gpusim::{Device, DeviceConfig};
use ecl_prof::Collector;
use ecl_profiling::ProfileMode;

const SCALE: f64 = 0.002;

/// The median wall time of `runs` CC runs, each on a fresh device with
/// `collector` (if any) attached.
fn median_cc_secs(g: &ecl_graph::Csr, runs: usize, collector: Option<&Arc<Collector>>) -> f64 {
    let cfg = CcConfig { mode: ProfileMode::Off, ..CcConfig::baseline() };
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let device = Device::new(DeviceConfig::rtx4090_scaled(SCALE, 1));
            let _attached = collector.map(|c| device.observe(c.clone()));
            let t0 = Instant::now();
            std::hint::black_box(ecl_cc::run(&device, g, &cfg));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

#[test]
fn disabled_profiling_overhead_on_cc_is_within_noise() {
    let spec = ecl_graphgen::registry::find("as-skitter").expect("registered input");
    let g = spec.generate(SCALE, 42);

    // Direct bound on the disabled guard of a device with no
    // observers: 10M checks must stay under 50 ns each. A launch reads
    // the device's set the way `find` does: one relaxed load when it is
    // empty (~1 ns); a regression that takes a lock or builds a sample
    // per launch lands in the microseconds and fails by orders of
    // magnitude.
    let device = Device::new(DeviceConfig::rtx4090_scaled(SCALE, 1));
    const CALLS: u32 = 10_000_000;
    let t0 = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(std::hint::black_box(&device).observers().find::<Collector>());
    }
    let per_call = t0.elapsed().as_secs_f64() / CALLS as f64;
    assert!(per_call < 50e-9, "disabled guard costs {:.1} ns/call", per_call * 1e9);

    // End-to-end: a CC run on the disabled path must sit within noise
    // of an identical back-to-back batch.
    let warmup = median_cc_secs(&g, 2, None);
    let baseline = median_cc_secs(&g, 5, None);
    let rerun = median_cc_secs(&g, 5, None);
    let _ = warmup;
    assert!(
        rerun <= baseline * 3.0 + 0.05,
        "disabled-path run took {rerun:.4}s vs baseline {baseline:.4}s"
    );
}

#[test]
fn enabled_profiling_captures_cc_kernels_within_budget() {
    let spec = ecl_graphgen::registry::find("as-skitter").expect("registered input");
    let g = spec.generate(SCALE, 42);

    let disabled = {
        median_cc_secs(&g, 2, None); // warm-up
        median_cc_secs(&g, 5, None)
    };

    let collector = Arc::new(Collector::new());
    let enabled = median_cc_secs(&g, 5, Some(&collector));

    // CC launches 5 kernels per run (init, three compute bins,
    // finalize); 5 profiled runs were recorded above.
    let stats = collector.snapshot();
    assert_eq!(
        stats.len(),
        5,
        "kernel names: {:?}",
        stats.iter().map(|k| &k.name).collect::<Vec<_>>()
    );
    assert_eq!(collector.launches(), 25);
    // Individual bins may launch empty grids at this tiny scale, but
    // the run as a whole must have executed blocks.
    assert!(stats.iter().map(|k| k.blocks).sum::<u64>() > 0);
    for k in &stats {
        assert_eq!(k.launches, 5);
        assert_eq!(k.wall_ns.count, 5);
        assert!(
            (0.0..=1.0).contains(&k.utilization),
            "kernel {} utilization {} out of range",
            k.name,
            k.utilization
        );
    }

    // Enabled profiling adds two Instant reads and a short mutex per
    // ticket claim — claims are coarse (a handful per worker per
    // launch), so the paper-budget is single-digit percent. CI boxes
    // are noisy, so assert a generous envelope; a pathological
    // regression (per-block or per-thread timing) blows through it.
    assert!(
        enabled <= disabled * 3.0 + 0.05,
        "enabled profiling took {enabled:.4}s vs disabled {disabled:.4}s"
    );
}
