//! Prometheus-style text exposition of a run manifest.
//!
//! Hands the manifest's kernels, metrics, and distributions to the
//! workspace's one exposition writer ([`ecl_profiling::expo`]):
//! `summary`-style quantile series for sketches, and an `ecl_run_info`
//! gauge carrying the run identity as labels.

use ecl_profiling::expo::{sanitize, Exposition};
use ecl_profiling::json;

use crate::manifest::Manifest;

/// Renders `manifest` in the Prometheus text exposition format.
pub fn to_prometheus(manifest: &Manifest) -> String {
    let mut out = String::new();
    let mut exp = Exposition::new(&mut out);

    let workers = manifest.dispatch.workers.to_string();
    let mut info = vec![
        ("schema", manifest.schema.as_str()),
        ("git_sha", manifest.git_sha.as_str()),
        ("dispatch_mode", manifest.dispatch.mode.as_str()),
        ("workers", workers.as_str()),
    ];
    info.extend(manifest.context.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    exp.gauge("ecl_run_info", "Run identity (value is always 1).").sample(&info, 1);

    for m in &manifest.metrics {
        let help = format!(
            "{} ({}, {} is better).",
            m.name,
            if m.unit.is_empty() { "unitless" } else { &m.unit },
            m.direction.name()
        );
        // Sanitized on its own, so a name starting with a digit keeps
        // the `ecl__9…` spelling scrapers already know.
        let mut family = exp.gauge(&format!("ecl_{}", sanitize(&m.name)), &help);
        for (i, v) in m.samples.iter().enumerate() {
            family.sample(&[("repeat", &i.to_string())], json::num(*v));
        }
    }

    if !manifest.kernels.is_empty() {
        // The shard label only appears once a manifest actually holds
        // multi-pool samples: single-pool manifests (every kernel on
        // shard 0) keep their historical label set, so existing
        // scrapers and dashboards see byte-identical series.
        let sharded = manifest.kernels.iter().any(|k| k.shard != 0);
        let shards: Vec<String> = manifest.kernels.iter().map(|k| k.shard.to_string()).collect();
        let kernels: Vec<_> = manifest
            .kernels
            .iter()
            .zip(&shards)
            .map(|(k, shard)| {
                let mut labels = vec![("kernel", k.name.as_str())];
                if sharded {
                    labels.push(("shard", shard.as_str()));
                }
                (k, labels)
            })
            .collect();

        let mut wall = exp.summary("ecl_kernel_wall_ns", "Per-launch wall time by kernel.");
        for (k, l) in &kernels {
            wall.sketch(l, &k.wall_ns);
        }
        let mut imbalance =
            exp.summary("ecl_kernel_imbalance_milli", "Per-launch load-imbalance factor x1000.");
        for (k, l) in &kernels {
            imbalance.sketch(l, &k.imbalance_milli);
        }
        let mut utilization =
            exp.gauge("ecl_kernel_utilization", "Mean worker utilization by kernel.");
        for (k, l) in &kernels {
            utilization.sample(l, json::num(k.utilization));
        }
        let mut launches = exp.counter("ecl_kernel_launches_total", "Launches by kernel.");
        for (k, l) in &kernels {
            launches.sample(l, k.launches);
        }
        let mut claim_wait =
            exp.counter("ecl_kernel_claim_wait_ns_total", "Ticket-claim wait by kernel.");
        for (k, l) in &kernels {
            claim_wait.sample(l, k.claim_wait_ns);
        }
    }

    if !manifest.distributions.is_empty() {
        let mut family = exp.summary("ecl_distribution", "Algorithm counter distributions.");
        for (name, sketch) in &manifest.distributions {
            family.sketch(&[("name", name)], sketch);
        }
    }

    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::collector::KernelStats;
    use crate::manifest::{Direction, DispatchInfo, Metric, SCHEMA};
    use ecl_profiling::LogSketch;

    fn demo() -> Manifest {
        let sketch = LogSketch::new();
        sketch.record_values(&[5, 9, 1000]);
        Manifest {
            schema: SCHEMA.to_string(),
            git_sha: "abc".into(),
            dispatch: DispatchInfo { mode: "pool".into(), workers: 8 },
            context: vec![("algo".into(), "mis".into())],
            metrics: vec![Metric {
                name: "wall_seconds".into(),
                unit: "s".into(),
                direction: Direction::Lower,
                samples: vec![0.25, 0.5],
            }],
            kernels: vec![KernelStats {
                name: "select/flip\"x".into(),
                shape: "flat".into(),
                shard: 0,
                launches: 3,
                blocks: 24,
                threads: 768,
                wall_ns: sketch.snapshot(),
                imbalance_milli: sketch.snapshot(),
                utilization: 0.75,
                claim_wait_ns: 999,
                claims: 12,
            }],
            distributions: vec![("mis/iterations".into(), sketch.snapshot())],
        }
    }

    #[test]
    fn demo_rendering_matches_the_golden() {
        assert_eq!(to_prometheus(&demo()), include_str!("../tests/golden/expose_demo.prom"));
    }

    #[test]
    fn exposition_contains_all_sections() {
        let text = to_prometheus(&demo());
        assert!(text.contains("ecl_run_info{schema=\"ecl-prof/1\",git_sha=\"abc\""));
        assert!(text.contains("ecl_wall_seconds{repeat=\"0\"} 0.25"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("ecl_kernel_utilization{kernel=\"select/flip\\\"x\"} 0.75"));
        assert!(text.contains("ecl_kernel_launches_total{kernel=\"select/flip\\\"x\"} 3"));
        assert!(text.contains("ecl_distribution{name=\"mis/iterations\",quantile=\"0.99\"}"));
        assert!(text.contains("ecl_kernel_wall_ns_count{kernel=\"select/flip\\\"x\"} 3"));
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize("kernel/init wall-ns"), "kernel_init_wall_ns");
        assert_eq!(sanitize("9lives"), "_9lives");
        // Every emitted line is either a comment or `name{labels} value`.
        for line in to_prometheus(&demo()).lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name_end = line.find('{').unwrap_or(line.len());
            assert!(
                line[..name_end].chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in line: {line}"
            );
        }
    }
}
