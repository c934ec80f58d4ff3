//! `ecl-run --profile <dir>`: one self-profiling algorithm run.
//!
//! Installs the `ecl-prof` collector (and a wall-clock tracer for the
//! final repeat), runs the requested algorithm `repeats` times under
//! the schedule `ecl-run` built from its flags, and writes four
//! artifacts into the output directory:
//!
//! - `manifest.json` — the versioned `ecl-prof/1` run manifest: git
//!   SHA, dispatch policy, per-repeat metric samples, per-kernel
//!   launch statistics, and every sketch counter of the algorithm's
//!   outcome, in order;
//! - `metrics.prom` — the same data in Prometheus text exposition;
//! - `flame.folded` — pprof-style folded stacks from the trace
//!   capture of the final repeat;
//! - `flame.svg` — the folded stacks rendered as a flamegraph.
//!
//! The `wall_seconds` and `modeled_time` metrics carry one sample per
//! repeat. `modeled_time` is the simulator's cost estimate. It is
//! bit-stable only in order (one simulator worker, e.g.
//! `ECL_SIM_WORKERS=1`): under a pool, charges that depend on the
//! interleaving can move it by a few cost units. The Tier-1 suite pins
//! the in-order number of every registered algorithm
//! (`tests/algo_registry.rs`).

use std::path::Path;
use std::sync::Arc;

use ecl_algos::{Algorithm, Views};
use ecl_gpusim::Schedule;
use ecl_prof::manifest::{Direction, DispatchInfo, Manifest, Metric, SCHEMA};
use ecl_prof::{folded_to_svg, to_folded, to_prometheus, Collector};
use ecl_profiling::{Counter, SketchSnapshot};

/// Settings of one profiled run.
#[derive(Clone, Copy)]
pub struct ProfileSpec<'a> {
    /// Algorithm (resolve a name with [`ecl_algos::find`]).
    pub algo: &'a dyn Algorithm,
    /// The input every repeat runs on (e.g. [`ecl_algos::cells::Input::views`]);
    /// the manifest names it by `views.name`.
    pub views: Views<'a>,
    /// Input scale factor (it also sizes the device).
    pub scale: f64,
    /// Generator seed the views were made with (recorded only).
    pub seed: u64,
    /// Repeats (one `wall_seconds` sample each).
    pub repeats: usize,
    /// The schedule every repeat runs under.
    pub schedule: &'a Schedule,
}

/// One repeat's outcome.
struct RepeatResult {
    wall_seconds: f64,
    modeled_time: f64,
    /// Sketch counters, overwritten each repeat (deterministic per
    /// input, so the last repeat's snapshot is representative).
    distributions: Vec<(String, SketchSnapshot)>,
}

fn run_once(spec: &ProfileSpec<'_>) -> Result<RepeatResult, String> {
    let (run, wall_seconds) = ecl_gpusim::run_timed(|| {
        ecl_algos::execute(spec.algo, spec.scale, &spec.views, Some(spec.schedule))
    });
    let (outcome, modeled_time) = run?;
    let distributions = outcome
        .counters
        .into_iter()
        .filter_map(|(name, c)| match c {
            Counter::Sketch(snap) => Some((name.to_string(), snap)),
            _ => None,
        })
        .collect();
    Ok(RepeatResult { wall_seconds, modeled_time, distributions })
}

/// Runs `spec` with profiling installed and writes the four artifacts
/// into `out_dir` (created if needed). Returns the manifest.
pub fn profile(spec: &ProfileSpec<'_>, out_dir: &Path) -> Result<Manifest, String> {
    let repeats = spec.repeats.max(1);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let collector = Arc::new(Collector::new());
    ecl_prof::sink::install(Arc::clone(&collector));
    let mut wall = Vec::with_capacity(repeats);
    let mut modeled = Vec::with_capacity(repeats);
    let mut distributions = Vec::new();
    let mut folded = String::new();
    let mut result = Ok(());
    for rep in 0..repeats {
        let last = rep + 1 == repeats;
        if last {
            ecl_trace::sink::install(Arc::new(ecl_trace::Tracer::with_clock(
                ecl_trace::ClockMode::Wall,
            )));
        }
        match run_once(spec) {
            Ok(r) => {
                wall.push(r.wall_seconds);
                modeled.push(r.modeled_time);
                distributions = r.distributions;
            }
            Err(e) => {
                result = Err(e);
            }
        }
        if last {
            if let Some(tracer) = ecl_trace::sink::uninstall() {
                folded = to_folded(&tracer.snapshot());
            }
        }
        if result.is_err() {
            break;
        }
    }
    ecl_prof::sink::uninstall();
    result?;

    let workers = ecl_gpusim::pool::effective_workers();
    let manifest = Manifest {
        schema: SCHEMA.to_string(),
        git_sha: ecl_prof::git_sha(),
        dispatch: DispatchInfo { mode: "pool".to_string(), workers: workers as u64 },
        context: vec![
            ("algo".to_string(), spec.algo.name().to_string()),
            ("input".to_string(), spec.views.name.to_string()),
            ("scale".to_string(), format!("{}", spec.scale)),
            ("seed".to_string(), format!("{}", spec.seed)),
            ("repeats".to_string(), format!("{repeats}")),
        ],
        metrics: vec![
            Metric {
                name: "wall_seconds".to_string(),
                unit: "s".to_string(),
                direction: Direction::Lower,
                samples: wall,
            },
            Metric {
                name: "modeled_time".to_string(),
                unit: "cost-units".to_string(),
                direction: Direction::Lower,
                samples: modeled,
            },
            Metric {
                name: "launches".to_string(),
                unit: "1".to_string(),
                direction: Direction::Info,
                samples: vec![collector.launches() as f64],
            },
        ],
        kernels: collector.snapshot(),
        distributions,
    };

    let write = |name: &str, contents: &str| -> Result<(), String> {
        let path = out_dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("manifest.json", &manifest.to_json())?;
    write("metrics.prom", &to_prometheus(&manifest))?;
    write("flame.folded", &folded)?;
    write("flame.svg", &folded_to_svg(&folded))?;
    Ok(manifest)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::pool::with_policy;
    use ecl_gpusim::DispatchPolicy;

    // One test body: the collector and tracer are one per process.
    #[test]
    fn profile_writes_all_artifacts_and_a_parseable_manifest() {
        // The tool measures under the caller's pool; the test pins the
        // in-order schedule so modeled time repeats bit for bit.
        let in_order = |spec: &ProfileSpec<'_>, dir: &Path| {
            with_policy(DispatchPolicy::sequential(), || profile(spec, dir))
        };
        let dir = std::env::temp_dir().join(format!("ecl-prof-test-{}", std::process::id()));
        let cc = ecl_algos::find("cc").unwrap();
        let schedule = cc.default_schedule();
        let input = ecl_algos::cells::Input::from_registry("as-skitter", 0.0005, 42).unwrap();
        let spec = ProfileSpec {
            algo: cc,
            views: input.views(cc),
            scale: 0.0005,
            seed: 42,
            repeats: 2,
            schedule: &schedule,
        };
        let manifest = in_order(&spec, &dir).expect("profiled run");
        assert_eq!(manifest.schema, SCHEMA);
        assert_eq!(manifest.dispatch.workers, 1);
        assert!(!manifest.kernels.is_empty(), "launch hooks must have reported");
        let wall = manifest.metrics.iter().find(|m| m.name == "wall_seconds").unwrap();
        assert_eq!(wall.samples.len(), 2);
        let modeled = manifest.metrics.iter().find(|m| m.name == "modeled_time").unwrap();
        assert!(modeled.samples.iter().all(|&s| s > 0.0));
        // Deterministic cost model: identical across repeats.
        assert_eq!(modeled.samples[0], modeled.samples[1]);
        assert_eq!(manifest.distributions[0].0, "cc/init_traversal_len");
        assert!(manifest.distributions[0].1.count > 0);

        for name in ["manifest.json", "metrics.prom", "flame.folded", "flame.svg"] {
            let path = dir.join(name);
            assert!(path.exists(), "missing artifact {name}");
        }
        let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let back = Manifest::from_json(&text).expect("round-trip");
        assert_eq!(back.kernels.len(), manifest.kernels.len());

        let scc = ecl_algos::find("scc").unwrap();
        let undirected = in_order(&ProfileSpec { algo: scc, ..spec }, &dir).expect_err("contract");
        assert!(undirected.contains("requires a directed graph"), "{undirected}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
