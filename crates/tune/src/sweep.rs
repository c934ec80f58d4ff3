//! The sweep: run the search over an (algorithms × inputs) grid and
//! assemble a manifest. Inputs are visited one at a time
//! ([`ecl_algos::cells`]): each is generated once, its (input,
//! algorithm) searches run side by side, each in order, and the graph
//! drops before the next input. Each entry records its default and
//! tuned modeled times; `ecl-tune sweep` runs [`TuneManifest::validate`],
//! which checks tuned ≤ default per entry, before it writes one.

use std::collections::HashSet;

use ecl_algos::cells::{side_by_side, Input};
use ecl_algos::Algorithm;
use ecl_graph::Fingerprint;

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

/// `names` without repeats, in first-seen order.
fn distinct(names: &[String]) -> impl Iterator<Item = &String> {
    let mut seen = HashSet::new();
    names.iter().filter(move |name| seen.insert(*name))
}

/// Runs the sweep: one entry per distinct (algo, input) pair.
/// Incompatible pairs (directedness) are skipped and reported, not
/// errors: a grid naturally mixes directed and undirected inputs. A
/// name outside the registries is an error, reported before any
/// search runs.
pub fn sweep(cfg: &SweepConfig) -> Result<SweepOutcome, String> {
    let algos = distinct(&cfg.algos)
        .map(|name| ecl_algos::find(name).ok_or_else(|| format!("unknown algorithm {name:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = distinct(&cfg.inputs)
        .map(|name| Input::from_registry(name, cfg.scale, cfg.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut entries = Vec::new();
    let mut skipped = Vec::new();
    for input in inputs {
        let name = input.spec.name;
        let (tuned, refused): (Vec<&dyn Algorithm>, Vec<_>) =
            algos.iter().partition(|a| input.supports(**a));
        let dir = if input.spec.directed { "directed" } else { "undirected" };
        for a in refused {
            skipped.push((a.name().to_string(), name.to_string(), format!("input is {dir}")));
        }
        let fingerprint = Fingerprint::of(input.graph());
        let results = side_by_side(tuned.clone(), |algo| search(algo, &input, &cfg.search));
        for (algo, r) in tuned.into_iter().zip(results) {
            let r = r?;
            entries.push(TuneEntry {
                algo: algo.name().to_string(),
                input: name.to_string(),
                family: fingerprint.family_key(),
                fingerprint: fingerprint.clone(),
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_compatible_pairs_and_reports_skips() {
        let out = sweep(&SweepConfig {
            inputs: vec!["internet".into(), "toroid-wedge".into()],
            algos: vec!["cc".into(), "scc".into()],
            scale: 0.002,
            seed: 7,
            search: SearchConfig { budget: 64, ..SearchConfig::default() },
        })
        .unwrap();
        let pairs: Vec<(String, String)> =
            out.manifest.entries.iter().map(|e| (e.algo.clone(), e.input.clone())).collect();
        assert!(pairs.contains(&("cc".into(), "internet".into())));
        assert!(pairs.contains(&("scc".into(), "toroid-wedge".into())));
        assert_eq!(out.manifest.entries.len(), 2);
        assert_eq!(out.skipped.len(), 2, "cc×toroid-wedge and scc×internet skip");
        assert!(out.manifest.validate().is_ok());
    }

    #[test]
    fn repeated_names_tune_each_pair_once() {
        let out = sweep(&SweepConfig {
            inputs: vec!["internet".into(), "internet".into()],
            algos: vec!["cc".into(), "cc".into()],
            scale: 0.002,
            seed: 7,
            search: SearchConfig { budget: 8, ..SearchConfig::default() },
        })
        .unwrap();
        assert_eq!(out.manifest.entries.len(), 1);
        assert!(out.skipped.is_empty());
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
