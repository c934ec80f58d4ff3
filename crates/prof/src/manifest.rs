//! The versioned JSON run manifest — the machine-readable record of
//! one profiled run.
//!
//! A manifest embeds what a reader needs to place a run (schema
//! version, git SHA, dispatch policy, worker count, run context) plus
//! three payload sections: *metrics* (named sample vectors with an
//! explicit better-direction),
//! per-kernel *launch statistics* from the launch hooks (wall time
//! and the modeled cost units by kind), and the
//! algorithm-specific counter *distributions* as percentile sketches.

use std::fmt::Write as _;

use ecl_gpusim::CostKind;
use ecl_profiling::SketchSnapshot;

use crate::collector::KernelStats;
use ecl_profiling::json::{self, Value};

/// Manifest schema identifier. Bump on breaking layout changes.
pub const SCHEMA: &str = "ecl-prof/1";

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (times, waits).
    Lower,
    /// Larger is better (utilization, throughput).
    Higher,
    /// Informational (counts that legitimately change).
    Info,
}

impl Direction {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
            Direction::Info => "info",
        }
    }

    /// Decodes a wire name (unknown names are `Info`).
    pub fn from_name(s: &str) -> Direction {
        match s {
            "lower" => Direction::Lower,
            "higher" => Direction::Higher,
            _ => Direction::Info,
        }
    }
}

/// One metric: a named sample vector (one sample per repeat).
#[derive(Clone, Debug)]
pub struct Metric {
    /// Stable metric name (e.g. `wall_seconds`, `kernel/init/wall_ns`).
    pub name: String,
    /// Unit label for exposition.
    pub unit: String,
    /// Which way improvement points.
    pub direction: Direction,
    /// Per-repeat samples.
    pub samples: Vec<f64>,
}

/// Dispatch-engine configuration the run executed under.
#[derive(Clone, Debug)]
pub struct DispatchInfo {
    /// Engine (`pool`, `seq`).
    pub mode: String,
    /// Effective worker count.
    pub workers: u64,
}

/// A complete profiled-run manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Git SHA of the producing tree.
    pub git_sha: String,
    /// Dispatch policy of the run.
    pub dispatch: DispatchInfo,
    /// Free-form run context (`algo`, `input`, `scale`, `seed`, …),
    /// order-preserving.
    pub context: Vec<(String, String)>,
    /// Per-repeat metrics.
    pub metrics: Vec<Metric>,
    /// Per-kernel launch statistics.
    pub kernels: Vec<KernelStats>,
    /// Named counter distributions.
    pub distributions: Vec<(String, SketchSnapshot)>,
}

/// The git SHA to stamp into manifests: `ECL_GIT_SHA` when set (CI),
/// otherwise `git rev-parse`, otherwise `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("ECL_GIT_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn sketch_json(s: &SketchSnapshot, indent: &str) -> String {
    let buckets: Vec<String> = s.buckets.iter().map(|&(k, c)| format!("[{k}, {c}]")).collect();
    format!(
        "{{\n{indent}  \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {},\n\
         {indent}  \"p50\": {}, \"p90\": {}, \"p99\": {},\n\
         {indent}  \"buckets\": [{}]\n{indent}}}",
        s.count,
        s.sum,
        s.min,
        s.max,
        s.p50,
        s.p90,
        s.p99,
        buckets.join(", ")
    )
}

/// `"thread_work": n, …` over every cost kind.
fn units_json(units: &[u64; 6]) -> String {
    let fields: Vec<String> =
        CostKind::ALL.iter().zip(units).map(|(k, u)| format!("\"{}\": {u}", k.name())).collect();
    fields.join(", ")
}

fn sketch_from_value(v: &Value) -> Option<SketchSnapshot> {
    let field = |k: &str| v.get(k).and_then(Value::as_f64).map(|n| n as u64);
    let buckets = v
        .get("buckets")?
        .as_arr()?
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_arr()?;
            Some((pair.first()?.as_f64()? as u32, pair.get(1)?.as_f64()? as u64))
        })
        .collect();
    Some(SketchSnapshot {
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
        p50: field("p50")?,
        p90: field("p90")?,
        p99: field("p99")?,
        buckets,
    })
}

impl Manifest {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{}\",", json::escape(&self.schema));
        let _ = writeln!(s, "  \"git_sha\": \"{}\",", json::escape(&self.git_sha));
        let _ = writeln!(
            s,
            "  \"dispatch\": {{\"mode\": \"{}\", \"workers\": {}}},",
            json::escape(&self.dispatch.mode),
            self.dispatch.workers
        );
        s.push_str("  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": \"{}\"",
                if i == 0 { "" } else { ", " },
                json::escape(k),
                json::escape(v)
            );
        }
        s.push_str("},\n");
        s.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let samples: Vec<String> = m.samples.iter().map(|&v| json::num(v)).collect();
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"direction\": \"{}\", \
                 \"samples\": [{}]}}{}",
                json::escape(&m.name),
                json::escape(&m.unit),
                m.direction.name(),
                samples.join(", "),
                if i + 1 < self.metrics.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\n      \"name\": \"{}\", \"shape\": \"{}\", \"shard\": {}, \
                 \"launches\": {}, \"blocks\": {}, \"threads\": {},\n      \"utilization\": {}, \
                 \"claim_wait_ns\": {}, \"claims\": {},\n      \"units\": {{{}}},\n      \
                 \"wall_ns\": {},\n      \"imbalance_milli\": {}\n    }}{}",
                json::escape(&k.name),
                json::escape(&k.shape),
                k.shard,
                k.launches,
                k.blocks,
                k.threads,
                json::num(k.utilization),
                k.claim_wait_ns,
                k.claims,
                units_json(&k.units),
                sketch_json(&k.wall_ns, "      "),
                sketch_json(&k.imbalance_milli, "      "),
                if i + 1 < self.kernels.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"distributions\": [\n");
        for (i, (name, sketch)) in self.distributions.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"sketch\": {}}}{}",
                json::escape(name),
                sketch_json(sketch, "    "),
                if i + 1 < self.distributions.len() { "," } else { "" }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a manifest back from JSON (for the exposition
    /// subcommand). Sections that are missing parse as
    /// empty; `Err` only on structurally non-JSON input or a missing
    /// schema field.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let v = json::parse(text)?;
        Self::from_value(&v)
    }

    /// [`Manifest::from_json`] over an already-parsed [`Value`].
    pub fn from_value(v: &Value) -> Result<Manifest, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("not an ecl-prof manifest: no \"schema\" field")?
            .to_string();
        let git_sha = v.get("git_sha").and_then(Value::as_str).unwrap_or("unknown").to_string();
        let dispatch = v
            .get("dispatch")
            .map(|d| DispatchInfo {
                mode: d.get("mode").and_then(Value::as_str).unwrap_or("pool").to_string(),
                workers: d.get("workers").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            })
            .unwrap_or(DispatchInfo { mode: "pool".into(), workers: 0 });
        let context = match v.get("context") {
            Some(Value::Obj(members)) => members
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
            _ => Vec::new(),
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some(Metric {
                    name: m.get("name")?.as_str()?.to_string(),
                    unit: m.get("unit").and_then(Value::as_str).unwrap_or("").to_string(),
                    direction: Direction::from_name(
                        m.get("direction").and_then(Value::as_str).unwrap_or("info"),
                    ),
                    samples: m.get("samples")?.as_arr()?.iter().filter_map(Value::as_f64).collect(),
                })
            })
            .collect();
        let kernels = v
            .get("kernels")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|k| {
                Some(KernelStats {
                    name: k.get("name")?.as_str()?.to_string(),
                    shape: k.get("shape").and_then(Value::as_str).unwrap_or("").to_string(),
                    // Default 0 so manifests written before the shard
                    // dimension existed keep parsing.
                    shard: k.get("shard").and_then(Value::as_f64).unwrap_or(0.0) as u32,
                    launches: k.get("launches")?.as_f64()? as u64,
                    blocks: k.get("blocks").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    threads: k.get("threads").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    wall_ns: sketch_from_value(k.get("wall_ns")?)?,
                    // Absent (manifests from before units) reads as zeros.
                    units: CostKind::ALL.map(|kind| {
                        k.get("units")
                            .and_then(|u| u.get(kind.name()))
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0) as u64
                    }),
                    imbalance_milli: sketch_from_value(k.get("imbalance_milli")?)?,
                    utilization: k.get("utilization").and_then(Value::as_f64).unwrap_or(0.0),
                    claim_wait_ns: k.get("claim_wait_ns").and_then(Value::as_f64).unwrap_or(0.0)
                        as u64,
                    claims: k.get("claims").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                })
            })
            .collect();
        let distributions = v
            .get("distributions")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|d| {
                Some((d.get("name")?.as_str()?.to_string(), sketch_from_value(d.get("sketch")?)?))
            })
            .collect();
        Ok(Manifest { schema, git_sha, dispatch, context, metrics, kernels, distributions })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_profiling::LogSketch;

    fn demo() -> Manifest {
        let sketch = LogSketch::new();
        sketch.record_values(&[1, 2, 3, 100]);
        Manifest {
            schema: SCHEMA.to_string(),
            git_sha: "abc123".to_string(),
            dispatch: DispatchInfo { mode: "pool".into(), workers: 4 },
            context: vec![("algo".into(), "cc".into()), ("input".into(), "as-skitter".into())],
            metrics: vec![
                Metric {
                    name: "wall_seconds".into(),
                    unit: "s".into(),
                    direction: Direction::Lower,
                    samples: vec![0.11, 0.12, 0.10],
                },
                Metric {
                    name: "launches".into(),
                    unit: "1".into(),
                    direction: Direction::Info,
                    samples: vec![5.0],
                },
            ],
            kernels: vec![crate::collector::KernelStats {
                name: "init".into(),
                shape: "flat".into(),
                shard: 2,
                launches: 5,
                blocks: 40,
                threads: 1280,
                wall_ns: sketch.snapshot(),
                units: [1200, 40, 7, 0, 5, 1],
                imbalance_milli: LogSketch::new().snapshot(),
                utilization: 0.82,
                claim_wait_ns: 123,
                claims: 20,
            }],
            distributions: vec![("cc/traverse_len".into(), sketch.snapshot())],
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything_exposition_needs() {
        let m = demo();
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.git_sha, "abc123");
        assert_eq!(back.dispatch.workers, 4);
        assert_eq!(back.context, m.context);
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics[0].name, "wall_seconds");
        assert_eq!(back.metrics[0].direction, Direction::Lower);
        assert_eq!(back.metrics[0].samples, vec![0.11, 0.12, 0.10]);
        assert_eq!(back.kernels.len(), 1);
        assert_eq!(back.kernels[0].shard, 2);
        assert_eq!(back.kernels[0].wall_ns, m.kernels[0].wall_ns);
        assert_eq!(back.kernels[0].units, [1200, 40, 7, 0, 5, 1]);
        assert_eq!(back.distributions[0].1, m.distributions[0].1);
    }

    #[test]
    fn json_is_structurally_valid() {
        let text = demo().to_json();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
    }

    #[test]
    fn kernels_without_shard_field_parse_as_shard_zero() {
        // Manifests from before the shard dimension and the cost units
        // keep loading.
        let m = Manifest::from_json(
            r#"{"schema": "ecl-prof/1", "kernels": [
                {"name": "init", "shape": "flat", "launches": 1,
                 "wall_ns": {"count": 1, "sum": 5, "min": 5, "max": 5,
                             "p50": 5, "p90": 5, "p99": 5, "buckets": [[3, 1]]},
                 "imbalance_milli": {"count": 0, "sum": 0, "min": 0, "max": 0,
                                     "p50": 0, "p90": 0, "p99": 0, "buckets": []}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(m.kernels.len(), 1);
        assert_eq!(m.kernels[0].shard, 0);
        assert_eq!(m.kernels[0].units, [0; 6]);
    }

    #[test]
    fn empty_sections_parse_as_empty() {
        let m = Manifest::from_json(r#"{"schema": "ecl-prof/1"}"#).unwrap();
        assert!(m.metrics.is_empty() && m.kernels.is_empty() && m.distributions.is_empty());
        assert!(Manifest::from_json(r#"{"benchmark": "x"}"#).is_err());
    }

    #[test]
    fn direction_wire_names() {
        for d in [Direction::Lower, Direction::Higher, Direction::Info] {
            assert_eq!(Direction::from_name(d.name()), d);
        }
        assert_eq!(Direction::from_name("sideways"), Direction::Info);
    }

    #[test]
    fn git_sha_is_nonempty() {
        assert!(!git_sha().is_empty());
    }
}
