//! The sweep: run the search over an (algorithms × inputs) grid and
//! assemble a manifest plus gateable before/after reports.

use ecl_gpusim::pool::effective_workers;
use ecl_prof::manifest::{Direction, DispatchInfo, Manifest, Metric};

use crate::eval::TuneInput;
use crate::manifest::{TuneEntry, TuneManifest};
use crate::search::{search, SearchConfig};

/// Sweep configuration: which grid to tune and how hard to search.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Registry input names.
    pub inputs: Vec<String>,
    /// Algorithm wire names.
    pub algos: Vec<String>,
    /// Generation scale.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Per-pair search driver settings.
    pub search: SearchConfig,
}

/// The sweep's result: the manifest plus the pairs that were skipped
/// (with reasons), so callers can see coverage was not silently
/// truncated.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// One entry per tuned (algo, input) pair.
    pub manifest: TuneManifest,
    /// `(algo, input, reason)` for each skipped pair.
    pub skipped: Vec<(String, String, String)>,
}

/// Runs the sweep. Incompatible (algo, input) pairs (directedness,
/// missing weighted view) are skipped and reported, not errors: a
/// grid naturally mixes directed and undirected inputs. An algorithm
/// name outside the registry is an error.
pub fn sweep(cfg: &SweepConfig) -> Result<SweepOutcome, String> {
    let algos = cfg
        .algos
        .iter()
        .map(|name| ecl_algos::find(name).ok_or_else(|| format!("unknown algorithm {name:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    for input_name in &cfg.inputs {
        let input = TuneInput::from_registry(input_name, cfg.scale, cfg.seed)?;
        for &algo in &algos {
            if !input.supports(algo) {
                let dir = if input.fingerprint.directed { "directed" } else { "undirected" };
                skipped.push((
                    algo.name().to_string(),
                    input_name.clone(),
                    format!("input is {dir}"),
                ));
                continue;
            }
            let r = search(algo, &input, &cfg.search)?;
            entries.push(TuneEntry {
                algo: algo.name().to_string(),
                input: input_name.clone(),
                family: input.fingerprint.family_key(),
                fingerprint: input.fingerprint.clone(),
                scale: cfg.scale,
                seed: cfg.seed,
                method: r.method.to_string(),
                evaluations: r.evaluations as u64,
                space: r.space as u64,
                default_time: r.default_time,
                tuned_time: r.best_time,
                eval_sketch: r.eval_sketch,
                schedule: r.best,
            });
        }
    }
    Ok(SweepOutcome { manifest: TuneManifest::new(entries), skipped })
}

/// Which side of the before/after comparison to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportSide {
    /// Default-schedule modeled times.
    Default,
    /// Tuned-schedule modeled times.
    Tuned,
}

/// Renders one side of the sweep as a gateable `ecl-prof/1` manifest:
/// a `modeled/<algo>:<input>` metric per entry plus a `modeled_total`
/// sum, all lower-is-better. Feeding the Default report as baseline
/// and the Tuned report as candidate to `ecl-prof gate --metric
/// modeled` asserts tuned ≤ default pair by pair.
pub fn gate_report(manifest: &TuneManifest, side: ReportSide) -> Manifest {
    let pick = |e: &TuneEntry| match side {
        ReportSide::Default => e.default_time,
        ReportSide::Tuned => e.tuned_time,
    };
    let mut metrics: Vec<Metric> = manifest
        .entries
        .iter()
        .map(|e| Metric {
            name: format!("modeled/{}:{}", e.algo, e.input),
            unit: "cost_units".into(),
            direction: Direction::Lower,
            samples: vec![pick(e)],
        })
        .collect();
    metrics.push(Metric {
        name: "modeled_total".into(),
        unit: "cost_units".into(),
        direction: Direction::Lower,
        samples: vec![manifest.entries.iter().map(pick).sum()],
    });
    Manifest {
        schema: ecl_prof::manifest::SCHEMA.to_string(),
        git_sha: manifest.git_sha.clone(),
        dispatch: DispatchInfo {
            mode: "pool".into(),
            workers: effective_workers() as u64,
            grain: None,
        },
        context: vec![(
            "side".into(),
            match side {
                ReportSide::Default => "default".into(),
                ReportSide::Tuned => "tuned".into(),
            },
        )],
        metrics,
        kernels: Vec::new(),
        distributions: Vec::new(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_prof::{gate_files, GateConfig};

    fn small_sweep() -> SweepOutcome {
        sweep(&SweepConfig {
            inputs: vec!["internet".into(), "toroid-wedge".into()],
            algos: vec!["cc".into(), "scc".into()],
            scale: 0.002,
            seed: 7,
            search: SearchConfig { budget: 64, ..SearchConfig::default() },
        })
        .unwrap()
    }

    #[test]
    fn sweep_covers_compatible_pairs_and_reports_skips() {
        let out = small_sweep();
        let pairs: Vec<(String, String)> =
            out.manifest.entries.iter().map(|e| (e.algo.clone(), e.input.clone())).collect();
        assert!(pairs.contains(&("cc".into(), "internet".into())));
        assert!(pairs.contains(&("scc".into(), "toroid-wedge".into())));
        assert_eq!(out.manifest.entries.len(), 2);
        assert_eq!(out.skipped.len(), 2, "cc×toroid-wedge and scc×internet skip");
        assert!(out.manifest.validate().is_ok());
    }

    #[test]
    fn gate_passes_tuned_vs_default() {
        let out = small_sweep();
        let base = gate_report(&out.manifest, ReportSide::Default).to_json();
        let cand = gate_report(&out.manifest, ReportSide::Tuned).to_json();
        let cfg = GateConfig { metric_filter: Some("modeled".into()), ..GateConfig::default() };
        let report = gate_files(&base, &cand, &cfg).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn unknown_names_are_errors_not_skips() {
        for (input, algo, named) in
            [("no-such-graph", "cc", "no-such-graph"), ("internet", "bfs", "bfs")]
        {
            let err = sweep(&SweepConfig {
                inputs: vec![input.into()],
                algos: vec![algo.into()],
                scale: 0.002,
                seed: 7,
                search: SearchConfig::default(),
            })
            .unwrap_err();
            assert!(err.contains(named), "{err}");
        }
    }
}
