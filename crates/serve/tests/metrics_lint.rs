//! Prometheus exposition hygiene for `/metrics`.
//!
//! The rendering is assembled from three sources (the manifest
//! exposition in `ecl-prof`, the serve counters, and the `ecl_slo_*`
//! family from `ecl-obs`), all written through `ecl_profiling::expo`.
//! Its lint, `lint_exposition`, runs here over a real rendering with
//! every source populated — once with a well-formed SLO spec, whose
//! bytes are pinned by a golden, and once with an algorithm name that
//! needs every label escape.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ecl_profiling::expo::lint_exposition;
use ecl_serve::cache::ResultCache;
use ecl_serve::catalog::{CatalogConfig, GraphCatalog};
use ecl_serve::jobs::Algo;
use ecl_serve::metrics::ServeMetrics;

/// Renders `/metrics` with every section live: latency sketches,
/// kernel series from a profiling collector, serve counters, the SLO
/// engine (burn rates + exemplar histogram) tracking `slo_algo`, and
/// the recorder gauge.
fn full_rendering(slo_algo: &str) -> String {
    let m = ServeMetrics::new();
    m.jobs_admitted.store(5, Ordering::Relaxed);
    m.jobs_done.store(4, Ordering::Relaxed);
    m.jobs_failed.store(1, Ordering::Relaxed);
    m.record_latency(Algo::Cc, 120, 4500);
    m.record_latency(Algo::Gc, 90, 5100);
    let catalog = GraphCatalog::new(CatalogConfig::default());
    let results = ResultCache::new(4);

    let collector = ecl_prof::Collector::new();
    collector.record(&ecl_profiling::LaunchSample {
        kernel: "cc.init".to_string(),
        shape: "flat",
        blocks: 64,
        block_size: 256,
        wall_ns: 10_000,
        units: [2_048, 0, 0, 0, 1, 0],
        workers: vec![ecl_profiling::WorkerStat { blocks: 64, claims: 64, busy_ns: 9_000 }],
        req: 7,
        shard: 0,
    });

    let slo =
        ecl_obs::SloEngine::from_spec(&format!("{slo_algo}:p99=5ms,err=1%")).expect("valid spec");
    slo.observe(slo_algo, 7, 4_500_000, true);
    slo.observe(slo_algo, 8, 9_000_000, false);
    let obs = Arc::new(ecl_obs::Obs::new(ecl_obs::RecorderConfig::default(), Some(slo)));
    obs.recorder.begin(7, 1, "cc", "internet");
    obs.recorder.finish(7, 1, "cc", "internet", ecl_obs::FinishInfo::default());

    m.render_prometheus(&catalog, &results, 2, 1, 3, Some(&collector), Some(&obs))
}

/// `--slo` takes any algorithm name; this one needs all three label
/// escapes (quote, backslash, newline).
const HOSTILE_ALGO: &str = "c\"c\\\nd";

#[test]
fn full_metrics_rendering_passes_the_lint() {
    for slo_algo in ["cc", HOSTILE_ALGO] {
        let text = full_rendering(slo_algo);
        // The sections this test exists to cover are actually present.
        for needle in
            ["ecl_serve_jobs_finished_total", "ecl_slo_burn_rate", "ecl_slo_latency_seconds_bucket"]
        {
            assert!(text.contains(needle), "rendering lost section {needle:?}:\n{text}");
        }
        let problems = lint_exposition(&text);
        assert!(problems.is_empty(), "exposition hygiene violations:\n{}", problems.join("\n"));
    }
    assert!(full_rendering(HOSTILE_ALGO)
        .contains("ecl_slo_requests_total{algo=\"c\\\"c\\\\\\nd\",outcome=\"ok\"} 1"));
}

/// The well-formed rendering is byte-for-byte what the three
/// hand-formatted renderers produced before they became producers over
/// one writer. Only the two host-dependent label values of
/// `ecl_run_info` are masked.
#[test]
fn full_metrics_rendering_matches_the_golden() {
    fn mask(line: &str, label: &str) -> String {
        let key = format!("{label}=\"");
        let Some(start) = line.find(&key).map(|i| i + key.len()) else { return line.to_string() };
        let end = start + line[start..].find('"').expect("closing quote");
        format!("{}<masked>{}", &line[..start], &line[end..])
    }
    let mut masked = String::new();
    for line in full_rendering("cc").lines() {
        if line.starts_with("ecl_run_info{") {
            masked += &mask(&mask(line, "git_sha"), "workers");
        } else {
            masked += line;
        }
        masked.push('\n');
    }
    assert_eq!(masked, include_str!("golden/metrics_full.prom"));
}

#[test]
fn lint_flags_missing_metadata_and_bad_counters() {
    // A sample with neither HELP nor TYPE.
    let problems = lint_exposition("orphan_series 1\n");
    assert!(problems.iter().any(|p| p.contains("no preceding HELP")), "{problems:?}");
    assert!(problems.iter().any(|p| p.contains("no preceding TYPE")), "{problems:?}");

    // A counter without the _total suffix.
    let text = "# HELP bad_counter x\n# TYPE bad_counter counter\nbad_counter 3\n";
    let problems = lint_exposition(text);
    assert!(problems.iter().any(|p| p.contains("does not end in _total")), "{problems:?}");

    // Metadata after the first sample of the family.
    let text = "# HELP late_total x\n# TYPE late_total counter\nlate_total 1\n\
                # HELP late_total again\n";
    let problems = lint_exposition(text);
    assert!(problems.iter().any(|p| p.contains("after its first sample")), "{problems:?}");

    // An unparseable sample value.
    let text = "# HELP g x\n# TYPE g gauge\ng not-a-number\n";
    let problems = lint_exposition(text);
    assert!(problems.iter().any(|p| p.contains("does not parse")), "{problems:?}");

    // Label values written raw, as `SloEngine::render` did for the
    // algorithms `c"c`, `c\c` and `c<newline>c`.
    for (sample, problem) in [
        ("g{algo=\"c\"c\",outcome=\"ok\"} 1\n", "expected ',' or '}'"),
        ("g{algo=\"c\\c\"} 1\n", "bad escape"),
        ("g{algo=\"c\nc\"} 1\n", "unterminated value"),
        ("g{algo=\"c\"} 1 # {req_id=7} 0.5\n", "exemplar: label value is not quoted"),
    ] {
        let problems = lint_exposition(&format!("# HELP g x\n# TYPE g gauge\n{sample}"));
        assert!(problems.iter().any(|p| p.contains(problem)), "{sample:?}: {problems:?}");
    }
}

#[test]
fn lint_accepts_exemplars_and_machine_suffixes() {
    // OpenMetrics exemplar on a histogram bucket plus the _sum/_count
    // machine-suffixed series — all fold into the declared family.
    let text = "# HELP h request latency\n# TYPE h histogram\n\
                h_bucket{le=\"0.1\"} 3 # {req_id=\"42\"} 0.042\n\
                h_bucket{le=\"+Inf\"} 4\n\
                h_sum 0.5\n\
                h_count 4\n";
    let problems = lint_exposition(text);
    assert!(problems.is_empty(), "{problems:?}");
}
