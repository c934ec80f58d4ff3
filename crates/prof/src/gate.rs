//! `ecl-prof gate`: a noise-aware performance-regression detector.
//!
//! Compares a baseline and a candidate manifest (any document with a
//! `schema` and a `metrics` array: `ecl-prof/1` profiles, `ecl-tune`
//! default-vs-tuned reports) metric by metric. A metric
//! only fails the gate when the candidate median moves past **all
//! three** guards in the bad direction:
//!
//! 1. relative: more than `rel_threshold` away from the baseline
//!    median (default 10%);
//! 2. statistical: more than `mad_k` baseline MADs (median absolute
//!    deviation) away from the baseline median — a run-to-run noise
//!    estimate that needs repeated samples to be meaningful;
//! 3. absolute: more than `abs_floor` away in raw units, so
//!    microsecond jitter on near-zero timings can't trip the gate.
//!
//! Metrics with direction `info` are compared but never fail. Input
//! without a `schema` field is an error, not a guess.

use std::fmt::Write as _;

use crate::manifest::{Direction, Manifest};
use ecl_profiling::json::{self, Value};

/// Gate thresholds. Defaults match the CI configuration documented in
/// DESIGN.md §10.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Minimum relative movement of the median to count (0.10 = 10%).
    pub rel_threshold: f64,
    /// Minimum movement in baseline-MAD multiples.
    pub mad_k: f64,
    /// Minimum absolute movement in the metric's own units.
    pub abs_floor: f64,
    /// Only compare metrics whose name contains this substring.
    pub metric_filter: Option<String>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { rel_threshold: 0.10, mad_k: 3.0, abs_floor: 0.0, metric_filter: None }
    }
}

/// Outcome for one compared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Moved past every guard in the bad direction.
    Regressed,
    /// Moved past every guard in the good direction.
    Improved,
    /// Within the noise envelope.
    Ok,
    /// Direction `info`, or present in only one run.
    Skipped,
}

/// One metric's comparison.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Metric name.
    pub name: String,
    /// Baseline median.
    pub base: f64,
    /// Candidate median.
    pub cand: f64,
    /// Relative change of the candidate median, signed toward "worse"
    /// being positive for `Lower` metrics.
    pub delta: f64,
    /// Outcome.
    pub status: Status,
}

/// Full gate result.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Per-metric verdicts in comparison order.
    pub verdicts: Vec<Verdict>,
}

impl GateReport {
    /// Whether the gate passes (no regressions).
    pub fn passed(&self) -> bool {
        !self.verdicts.iter().any(|v| v.status == Status::Regressed)
    }

    /// Number of regressed metrics.
    pub fn regressions(&self) -> usize {
        self.verdicts.iter().filter(|v| v.status == Status::Regressed).count()
    }

    /// Human-readable report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self.verdicts.iter().map(|v| v.name.len()).max().unwrap_or(6).max(6);
        let _ = writeln!(
            out,
            "{:<width$}  {:>14}  {:>14}  {:>8}  status",
            "metric", "base", "new", "delta"
        );
        for v in &self.verdicts {
            let status = match v.status {
                Status::Regressed => "REGRESSED",
                Status::Improved => "improved",
                Status::Ok => "ok",
                Status::Skipped => "skipped",
            };
            let _ = writeln!(
                out,
                "{:<width$}  {:>14}  {:>14}  {:>7.1}%  {}",
                v.name,
                json::num(v.base),
                json::num(v.cand),
                v.delta * 100.0,
                status
            );
        }
        let _ = writeln!(
            out,
            "gate: {} compared, {} regressed -> {}",
            self.verdicts.len(),
            self.regressions(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Median of a sample vector (mean of the middle pair for even n; NaN
/// for empty input is avoided by returning 0).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation around the median.
pub fn mad(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

fn classify(
    base: &[f64],
    cand: &[f64],
    direction: Direction,
    cfg: &GateConfig,
) -> (f64, f64, f64, Status) {
    let b = median(base);
    let c = median(cand);
    // Signed "badness": positive = worse, in relative units of base.
    let raw_delta = if b != 0.0 {
        (c - b) / b.abs()
    } else if c == 0.0 {
        0.0
    } else {
        1.0
    };
    let badness = match direction {
        Direction::Lower => raw_delta,
        Direction::Higher => -raw_delta,
        Direction::Info => return (b, c, raw_delta, Status::Skipped),
    };
    let noise = mad(base);
    let moved = (c - b).abs();
    let beyond_all_guards =
        badness.abs() > cfg.rel_threshold && moved > cfg.mad_k * noise && moved > cfg.abs_floor;
    let status = if !beyond_all_guards {
        Status::Ok
    } else if badness > 0.0 {
        Status::Regressed
    } else {
        Status::Improved
    };
    (b, c, badness, status)
}

/// Named sample vectors with a gate direction, extracted from one
/// manifest.
struct MetricSet {
    /// `(name, direction, samples)` triples in source order.
    metrics: Vec<(String, Direction, Vec<f64>)>,
    /// The manifest's schema string.
    schema: String,
}

/// Extracts gateable metrics from a parsed manifest: its metrics
/// section plus per-kernel wall medians. `Err` when `v` has no
/// `schema` field.
fn extract_metrics(v: &Value) -> Result<MetricSet, String> {
    let m = Manifest::from_value(v)?;
    let mut metrics: Vec<(String, Direction, Vec<f64>)> =
        m.metrics.iter().map(|mm| (mm.name.clone(), mm.direction, mm.samples.clone())).collect();
    for k in &m.kernels {
        // Shard 0 keeps the historical metric name so existing
        // baselines keep gating; multi-pool records gate per
        // (kernel, shard) pair.
        let name = if k.shard == 0 {
            format!("kernel/{}/wall_ns_p50", k.name)
        } else {
            format!("kernel/{}@s{}/wall_ns_p50", k.name, k.shard)
        };
        metrics.push((name, Direction::Lower, vec![k.wall_ns.p50 as f64]));
    }
    Ok(MetricSet { metrics, schema: m.schema })
}

/// Runs the gate over two parsed JSON inputs.
pub fn gate(base: &Value, cand: &Value, cfg: &GateConfig) -> Result<GateReport, String> {
    let base_set = extract_metrics(base).map_err(|e| format!("baseline: {e}"))?;
    let cand_set = extract_metrics(cand).map_err(|e| format!("candidate: {e}"))?;
    if base_set.schema != cand_set.schema {
        return Err(format!(
            "schema mismatch: baseline {:?} vs candidate {:?}",
            base_set.schema, cand_set.schema
        ));
    }
    let mut report = GateReport::default();
    for (name, direction, base_samples) in &base_set.metrics {
        if let Some(filter) = &cfg.metric_filter {
            if !name.contains(filter.as_str()) {
                continue;
            }
        }
        let Some((_, _, cand_samples)) = cand_set.metrics.iter().find(|(n, _, _)| n == name) else {
            report.verdicts.push(Verdict {
                name: name.clone(),
                base: median(base_samples),
                cand: f64::NAN,
                delta: 0.0,
                status: Status::Skipped,
            });
            continue;
        };
        let (b, c, delta, status) = classify(base_samples, cand_samples, *direction, cfg);
        report.verdicts.push(Verdict { name: name.clone(), base: b, cand: c, delta, status });
    }
    Ok(report)
}

/// [`gate`] over raw JSON text.
pub fn gate_files(
    base_text: &str,
    cand_text: &str,
    cfg: &GateConfig,
) -> Result<GateReport, String> {
    let base = json::parse(base_text).map_err(|e| format!("baseline: {e}"))?;
    let cand = json::parse(cand_text).map_err(|e| format!("candidate: {e}"))?;
    gate(&base, &cand, cfg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::manifest::{DispatchInfo, Manifest, Metric, SCHEMA};

    fn manifest(samples: Vec<f64>) -> String {
        Manifest {
            schema: SCHEMA.to_string(),
            git_sha: "t".into(),
            dispatch: DispatchInfo { mode: "pool".into(), workers: 4, grain: None },
            context: vec![],
            metrics: vec![
                Metric {
                    name: "wall_seconds".into(),
                    unit: "s".into(),
                    direction: Direction::Lower,
                    samples,
                },
                Metric {
                    name: "launches".into(),
                    unit: "1".into(),
                    direction: Direction::Info,
                    samples: vec![7.0],
                },
            ],
            kernels: vec![],
            distributions: vec![],
        }
        .to_json()
    }

    #[test]
    fn identical_runs_pass() {
        let a = manifest(vec![0.10, 0.11, 0.10]);
        let r = gate_files(&a, &a, &GateConfig::default()).unwrap();
        assert!(r.passed(), "{}", r.render());
        assert!(r.verdicts.iter().all(|v| v.status != Status::Regressed));
    }

    #[test]
    fn injected_2x_slowdown_fails() {
        let base = manifest(vec![0.10, 0.11, 0.10]);
        let slow = manifest(vec![0.20, 0.22, 0.21]);
        let r = gate_files(&base, &slow, &GateConfig::default()).unwrap();
        assert!(!r.passed(), "{}", r.render());
        assert_eq!(r.regressions(), 1);
        let v = r.verdicts.iter().find(|v| v.name == "wall_seconds").unwrap();
        assert_eq!(v.status, Status::Regressed);
        assert!(v.delta > 0.9);
    }

    #[test]
    fn noise_within_mad_envelope_passes() {
        // Baseline is noisy (MAD 0.02); candidate median moved 12% —
        // beyond rel_threshold but within 3 MADs — so it must pass.
        let base = manifest(vec![0.10, 0.14, 0.10, 0.14, 0.12]);
        let wobble = manifest(vec![0.134, 0.135, 0.134]);
        let r = gate_files(&base, &wobble, &GateConfig::default()).unwrap();
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn improvement_is_reported_not_failed() {
        let base = manifest(vec![0.20, 0.21, 0.20]);
        let fast = manifest(vec![0.10, 0.10, 0.11]);
        let r = gate_files(&base, &fast, &GateConfig::default()).unwrap();
        assert!(r.passed());
        let v = r.verdicts.iter().find(|v| v.name == "wall_seconds").unwrap();
        assert_eq!(v.status, Status::Improved);
    }

    #[test]
    fn info_metrics_never_fail() {
        let base = manifest(vec![0.10]);
        // Same timing, wildly different launch count.
        let mut cand = Manifest::from_json(&manifest(vec![0.10])).unwrap();
        cand.metrics[1].samples = vec![900.0];
        let r = gate_files(&base, &cand.to_json(), &GateConfig::default()).unwrap();
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn abs_floor_suppresses_tiny_absolute_changes() {
        let base = manifest(vec![0.0001]);
        let cand = manifest(vec![0.0002]); // 2x, but microscopic
        let cfg = GateConfig { abs_floor: 0.001, ..GateConfig::default() };
        assert!(gate_files(&base, &cand, &cfg).unwrap().passed());
        // Without the floor it fails.
        assert!(!gate_files(&base, &cand, &GateConfig::default()).unwrap().passed());
    }

    #[test]
    fn metric_filter_limits_comparison() {
        let base = manifest(vec![0.10]);
        let slow = manifest(vec![0.50]);
        let cfg = GateConfig { metric_filter: Some("launches".into()), ..GateConfig::default() };
        let r = gate_files(&base, &slow, &cfg).unwrap();
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.verdicts.len(), 1);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let a = manifest(vec![0.1]);
        let b = a.replace("ecl-prof/1", "ecl-prof/999");
        assert!(gate_files(&a, &b, &GateConfig::default()).is_err());
        // A document without a schema is not a manifest, on either side.
        let bare = r#"{"results": [{"name": "cc/road", "wall_seconds": 0.5}]}"#;
        for (base, cand) in [(a.as_str(), bare), (bare, a.as_str())] {
            let e = gate_files(base, cand, &GateConfig::default()).unwrap_err();
            assert!(e.contains("not an ecl-prof manifest"), "{e}");
        }
    }

    #[test]
    fn metric_missing_from_candidate_is_skipped() {
        let base = manifest(vec![0.1]);
        let cand = r#"{"schema": "ecl-prof/1", "metrics": []}"#;
        let r = gate_files(&base, cand, &GateConfig::default()).unwrap();
        assert!(r.passed());
        assert!(r.verdicts.iter().all(|v| v.status == Status::Skipped));
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mad(&[1.0]), 0.0);
        assert!((mad(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
    }
}
