//! `ecl-tune`: schedule-autotuner CLI.
//!
//! ```text
//! ecl-tune sweep [--inputs a,b] [--algos cc,scc] [--scale F] [--seed N]
//!                [--budget N] --out manifest.json
//!                [--report-default base.json] [--report-tuned cand.json]
//! ecl-tune validate <manifest.json>
//! ecl-tune show <manifest.json>
//! ```
//!
//! `sweep` tunes every compatible (algorithm, input) pair and writes
//! the `ecl-tune/1` manifest; the optional report files are gateable
//! `ecl-prof/1` documents (default vs tuned modeled times) for
//! `ecl-prof gate --metric modeled`. `validate` checks schema,
//! registry domains, the tuned ≤ default invariant, and runs
//! `ecl-check`'s schedule-domain lint over every entry against the
//! modeled device (`--device rtx4090|a100|rtx3090|test-small`).
//! `show` prints a human-readable summary.

use std::process::ExitCode;

use ecl_gpusim::DeviceConfig;
use ecl_tune::{gate_report, sweep, ReportSide, SearchConfig, SweepConfig, TuneManifest};

const USAGE: &str = "usage:
  ecl-tune sweep [--inputs a,b] [--algos cc,gc,mis,mst,scc] [--scale F] [--seed N]
                 [--budget N] --out manifest.json
                 [--report-default base.json] [--report-tuned cand.json]
  ecl-tune validate <manifest.json> [--device rtx4090|a100|rtx3090|test-small]
  ecl-tune show <manifest.json>";

fn device_by_name(name: &str) -> Result<DeviceConfig, String> {
    match name {
        "rtx4090" => Ok(DeviceConfig::rtx4090()),
        "a100" => Ok(DeviceConfig::a100()),
        "rtx3090" => Ok(DeviceConfig::rtx3090()),
        "test-small" => Ok(DeviceConfig::test_small()),
        other => Err(format!("unknown device {other:?}\n{USAGE}")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => run_sweep(&args[1..]),
        Some("validate") => {
            let path = args.get(1).ok_or(USAGE)?;
            let device = match args.get(2).map(String::as_str) {
                Some("--device") => device_by_name(args.get(3).ok_or("--device wants a value")?)?,
                Some(other) => return Err(format!("unknown argument {other}\n{USAGE}")),
                None => DeviceConfig::rtx4090(),
            };
            let m = load(path)?;
            m.validate()?;
            let lint = ecl_check::lint_schedules(
                m.entries
                    .iter()
                    .map(|e| (e.algo.as_str(), ecl_tune::manifest::knobs_of(&e.algo), &e.schedule)),
                &device,
            );
            if !lint.is_clean() {
                return Err(lint.render(&format!("{path}: schedule-domain lint")));
            }
            println!(
                "{path}: valid {} manifest, {} entries, schedule-domain lint clean",
                m.schema,
                m.entries.len()
            );
            Ok(())
        }
        Some("show") => {
            let path = args.get(1).ok_or(USAGE)?;
            let m = load(path)?;
            println!("schema {}  git {}  entries {}", m.schema, m.git_sha, m.entries.len());
            for e in &m.entries {
                println!(
                    "{:4} {:<18} {:<40} {:>10.0} -> {:>10.0}  ({:.2}x, {} evals/{} space, {})",
                    e.algo,
                    e.input,
                    e.family,
                    e.default_time,
                    e.tuned_time,
                    e.speedup(),
                    e.evaluations,
                    e.space,
                    e.method
                );
            }
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn load(path: &str) -> Result<TuneManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TuneManifest::from_json(&text)
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
}

fn run_sweep(args: &[String]) -> Result<(), String> {
    let mut cfg = SweepConfig {
        inputs: vec!["internet".into(), "toroid-wedge".into()],
        algos: vec!["cc".into(), "gc".into(), "mis".into(), "mst".into(), "scc".into()],
        scale: 0.002,
        seed: 42,
        search: SearchConfig::default(),
    };
    let mut out: Option<String> = None;
    let mut report_default: Option<String> = None;
    let mut report_tuned: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1).ok_or_else(|| format!("{} wants a value\n{USAGE}", args[i]))
        };
        match args[i].as_str() {
            "--inputs" => cfg.inputs = split_list(need(i)?),
            "--algos" => cfg.algos = split_list(need(i)?),
            "--scale" => cfg.scale = ecl_bench::parse_scale(need(i)?)?,
            "--seed" => cfg.seed = need(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--budget" => {
                cfg.search.budget = need(i)?.parse().map_err(|e| format!("--budget: {e}"))?;
            }
            "--out" => out = Some(need(i)?.clone()),
            "--report-default" => report_default = Some(need(i)?.clone()),
            "--report-tuned" => report_tuned = Some(need(i)?.clone()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        i += 2;
    }
    let out = out.ok_or_else(|| format!("sweep wants --out\n{USAGE}"))?;

    let outcome = sweep(&cfg)?;
    for (algo, input, reason) in &outcome.skipped {
        eprintln!("skipped {algo} on {input}: {reason}");
    }
    outcome.manifest.validate()?;
    let write = |path: &str, text: String| -> Result<(), String> {
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    };
    write(&out, outcome.manifest.to_json())?;
    println!("wrote {} entries to {out}", outcome.manifest.entries.len());
    for e in &outcome.manifest.entries {
        println!("  {:4} {:<18} {:.2}x  {}", e.algo, e.input, e.speedup(), e.schedule.to_json());
    }
    if let Some(path) = report_default {
        write(&path, gate_report(&outcome.manifest, ReportSide::Default).to_json())?;
    }
    if let Some(path) = report_tuned {
        write(&path, gate_report(&outcome.manifest, ReportSide::Tuned).to_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
