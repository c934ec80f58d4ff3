//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! generated from these tables (`ecl-benchmark --manifest`) and a unit
//! test keeps the two equal, so the names a run prints, the names
//! `--compare` gates and the names the manifest declares cannot drift.

use crate::jobs::COST_KINDS;

/// Length of one timed window, seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 30;

/// The five algorithms, in `ecl_serve::Algo::ALL` order.
pub const ALGOS: [&str; 5] = ["cc", "gc", "mis", "mst", "scc"];

/// Algorithms with a sharded runner in `ecl-shard`.
pub const SHARDED_ALGOS: [&str; 3] = ["cc", "mis", "scc"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "batch-road",
        why: "road map + Klein-bottle mesh under the default pool: high diameter, degree <= 6, many \
              thin launches, so launch/dispatch overhead and round count do the work",
    },
    WorkloadDef {
        name: "batch-skew",
        why: "Kronecker power-law graph + wedge mesh under the default pool: few launches, heavy \
              warp/block paths, atomic contention between pool workers and imbalance do the work",
    },
    WorkloadDef {
        name: "batch-shard4",
        why: "cc/mis/scc through ecl-shard on 4 shards (torus, hex mesh), gc/mst single-pool as \
              control: only here partition, mailbox exchange and superstep count do the work",
    },
    WorkloadDef {
        name: "serve-mix",
        why: "open-loop HTTP load on an in-process server, 83% result-cache hits and 17% never-seen \
              seeds: parse, reactor, caches, scheduler queue, catalog and (misses) kernels do the work",
    },
];

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound }
}

/// Bound of every metric read off the host's clock. The default pool
/// runs two workers on the reference host, and the same build's runs
/// differ from one another by 2–14 % (interquartile range over the
/// median, `AA.md`): nothing under 0.25, the contract's ceiling, is
/// twice the largest of those.
const WALL_CLOCK_BOUND: f64 = 0.25;

/// Bound of `<algo>_units`: at least twice the largest A/A spread.
/// Under the free-running pool the modeled time of ECL-SCC and ECL-GC
/// depends on the schedule (one job differs from the next by 2–7 %,
/// the median of a window by up to 2.8 % and 1.3 %); the other three
/// repeat to 0.2 %.
fn units_bound(algo: &str) -> f64 {
    match algo {
        "scc" => 0.10,
        "gc" => 0.05,
        _ => 0.01,
    }
}

/// The fourteen end-to-end metrics, the same on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut v = vec![
        def("setup_s", "s", Better::Lower, Some(WALL_CLOCK_BOUND)),
        def("jobs_per_s", "1/s", Better::Higher, Some(WALL_CLOCK_BOUND)),
    ];
    v.extend(
        ALGOS.iter().map(|a| def(format!("{a}_ms"), "ms", Better::Lower, Some(WALL_CLOCK_BOUND))),
    );
    v.push(def("lat_p90_ms", "ms", Better::Lower, Some(WALL_CLOCK_BOUND)));
    v.extend(
        ALGOS
            .iter()
            .map(|a| def(format!("{a}_units"), "units", Better::Lower, Some(units_bound(a)))),
    );
    v.push(def("peak_rss_mb", "MiB", Better::Lower, Some(0.10)));
    v
}

/// The per-layer metrics of the traced run, grouped by layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        v.push(def(name, unit, better, None));
    };
    let per_algo = |stem: &str| ALGOS.map(|a| format!("{stem}.{a}"));

    // Graph generation and representation: move `setup_s`.
    add("gen.generate_ms".into(), "ms", Lower);
    add("gen.arcs_per_s".into(), "1/s", Higher);
    add("graph.csr_mb".into(), "MiB", Lower);
    add("graph.io_roundtrip_ms".into(), "ms", Lower);
    add("graph.family_ms".into(), "ms", Lower);

    // Simulator: device, launch path, dispatch pool.
    add("sim.device_new_us".into(), "us", Lower);
    add("sim.launch_ns_pool".into(), "ns", Lower);
    add("sim.launch_ns_seq".into(), "ns", Lower);
    for name in per_algo("sim.launches") {
        add(name, "count", Lower);
    }
    for name in per_algo("sim.pool_speedup_x") {
        add(name, "x", Higher);
    }
    for name in per_algo("sim.ns_per_unit") {
        add(name, "ns", Lower);
    }
    add("sim.claim_wait_share".into(), "share", Lower);
    add("sim.utilization".into(), "share", Higher);
    add("sim.imbalance_p50_milli".into(), "milli", Lower);

    // The five kernels under the sequential policy (exact) plus the
    // paper's application-specific counters.
    for a in ALGOS {
        add(format!("{a}.seq_wall_ms"), "ms", Lower);
        for (_, kind) in COST_KINDS {
            add(format!("{a}.units.{kind}"), "count", Lower);
        }
    }
    add("cc.cas_fail_share".into(), "share", Lower);
    add("cc.find_progress_share".into(), "share", Higher);
    add("gc.rounds".into(), "count", Lower);
    add("gc.colors".into(), "count", Lower);
    add("mis.rounds".into(), "count", Lower);
    add("mst.rounds".into(), "count", Lower);
    add("mst.atomic_useless_share".into(), "share", Lower);
    add("scc.outer_iterations".into(), "count", Lower);
    add("scc.propagate_launches".into(), "count", Lower);

    // Sharded execution against the single-pool kernel.
    add("shard.partition_ms".into(), "ms", Lower);
    add("shard.cut_ratio".into(), "share", Lower);
    for stem in ["supersteps", "messages"] {
        for a in SHARDED_ALGOS {
            add(format!("shard.{stem}.{a}"), "count", Lower);
        }
    }
    for stem in ["units_vs_single_x", "wall_vs_single_x"] {
        for a in SHARDED_ALGOS {
            add(format!("shard.{stem}.{a}"), "x", Lower);
        }
    }

    // Serving: hit path.
    add("http.parse_ns".into(), "ns", Lower);
    add("http.write_ns".into(), "ns", Lower);
    add("cache.get_ns".into(), "ns", Lower);
    add("cache.put_ns".into(), "ns", Lower);
    add("cache.hit_share".into(), "share", Higher);
    add("reactor.rtt_us".into(), "us", Lower);
    add("serve.hit_p50_us".into(), "us", Lower);
    add("serve.hit_capacity_per_s".into(), "1/s", Higher);
    add("serve.mix_capacity_per_s".into(), "1/s", Higher);
    // Serving: miss path.
    add("catalog.resolve_cold_ms".into(), "ms", Lower);
    add("catalog.resolve_warm_us".into(), "us", Lower);
    add("catalog.evictions".into(), "count", Lower);
    add("scheduler.overhead_us".into(), "us", Lower);
    add("scheduler.queue_ms_p50".into(), "ms", Lower);
    add("scheduler.queue_ms_p90".into(), "ms", Lower);
    for name in per_algo("exec.execute_ms") {
        add(name, "ms", Lower);
    }
    add("serve.miss_p50_ms".into(), "ms", Lower);
    add("serve.lat_p99_ms".into(), "ms", Lower);
    add("serve.rejected_share".into(), "share", Lower);
    add("loadgen.late_p99_ms".into(), "ms", Lower);
    add("loadgen.sent".into(), "count", Higher);

    // Instrumentation planes and the benchmark's own recorder.
    add("prof.overhead_share".into(), "share", Lower);
    add("trace.overhead_share".into(), "share", Lower);
    add("check.overhead_x".into(), "x", Lower);
    add("ref.verify_ms".into(), "ms", Lower);
    add("bench.trace_overhead_share".into(), "share", Lower);
    v
}

/// Looks up an end-to-end metric by name.
pub fn end_to_end_def(name: &str) -> Option<MetricDef> {
    end_to_end().into_iter().find(|m| m.name == name)
}

fn metric_json(m: &MetricDef) -> String {
    let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.name()
    )
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let join = |rows: Vec<String>| rows.join(",\n");
    let workloads = join(
        WORKLOADS
            .iter()
            .map(|w| {
                let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        join(end_to_end().iter().map(metric_json).collect()),
        join(per_layer().iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn counts_and_names_fit_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 14);
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let names: BTreeSet<&str> = e2e
            .iter()
            .chain(&layers)
            .map(|m| m.name.as_str())
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert_eq!(names.len(), e2e.len() + layers.len() + WORKLOADS.len(), "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(WORKLOADS.iter().all(|w| w
            .why
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .len()
            <= 200));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest_json(), "regenerate with `ecl-benchmark --manifest`");
    }
}
