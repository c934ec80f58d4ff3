//! `ecl-check` — run the data-race sanitizer and launch linter over
//! the generated-graph suite and fail on any unexpected finding.
//!
//! ```text
//! ecl-check [--scale f] [--json PATH] [--verbose]
//! ecl-check --list
//! ```
//!
//! Every entry runs one algorithm (or a seeded-defect canary) under a
//! check session and compares the findings against the entry's
//! declared profile: required rules must fire (the seeded races and
//! the paper's §6.2 findings are regression canaries for the checker
//! itself), allowed rules may fire, anything else — above all an
//! unsuppressed data race — fails the run. Exit status 1 when any
//! entry fails; this is what the CI `check` job gates on. `--json`
//! additionally writes a versioned `ecl-check/1` document (schema +
//! git SHA envelope per the `ecl-prof/1` conventions) for artifact
//! upload.

use std::fmt::Write as _;

use ecl_bench::check_suite::{run_suite, suite, EntryOutcome};
use ecl_profiling::json;
use ecl_profiling::table::Table;

/// Schema identifier of the JSON document `--json` writes.
const SCHEMA: &str = "ecl-check/1";

fn check_json(scale: f64, outcomes: &[EntryOutcome]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"git_sha\": \"{}\",", json::escape(&ecl_prof::git_sha()));
    let _ = writeln!(out, "  \"scale\": {},", json::num(scale));
    out.push_str("  \"entries\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let missing: Vec<String> = o.missing.iter().map(|r| format!("\"{}\"", r.name())).collect();
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\", \"status\": \"{}\", \"passed\": {},\n      \
             \"missing\": [{}], \"unexpected\": {},\n      \"report\": ",
            json::escape(o.name),
            o.status(),
            o.passed(),
            missing.join(", "),
            o.unexpected,
        );
        out.push_str(&o.report.to_json("      "));
        let _ = write!(out, "\n    }}{}\n", if i + 1 == outcomes.len() { "" } else { "," });
    }
    out.push_str("  ],\n");
    let failed = outcomes.iter().filter(|o| !o.passed()).count();
    let _ = writeln!(out, "  \"failed\": {failed}");
    out.push_str("}\n");
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut verbose = false;
    let mut scale = ecl_bench::DEFAULT_SCALE;
    let mut json_out: Option<String> = None;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--verbose" => verbose = true,
            "--scale" if i + 1 < argv.len() => {
                scale = ecl_bench::parse_scale(&argv[i + 1])
                    .unwrap_or_else(|e| ecl_bench::usage_error(&e));
                i += 1;
            }
            "--json" if i + 1 < argv.len() => {
                json_out = Some(argv[i + 1].clone());
                i += 1;
            }
            "--list" => {
                for e in suite() {
                    println!("{:<24} required {:?}, allowed {:?}", e.name, e.required, e.allowed);
                }
                return;
            }
            _ => {
                eprintln!("usage: ecl-check [--scale f] [--json PATH] [--verbose] | --list");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let config = ecl_gpusim::DeviceConfig::rtx4090_scaled(scale, 1);
    println!(
        "ecl-check: {} entries on {} SMs x {} threads/SM\n",
        suite().len(),
        config.num_sms,
        config.threads_per_sm
    );

    let mut summary = Table::new(
        "check suite",
        &["entry", "status", "findings", "suppressed", "launches", "accesses"],
    );
    let outcomes = run_suite(scale);
    for outcome in &outcomes {
        summary.row_owned(vec![
            outcome.name.to_string(),
            outcome.status().to_string(),
            outcome.report.findings.len().to_string(),
            outcome.report.suppressed.len().to_string(),
            outcome.report.launches.to_string(),
            outcome.report.accesses.to_string(),
        ]);
        let show = verbose || !outcome.passed() || !outcome.report.findings.is_empty();
        if show {
            print!("{}", outcome.report.render(outcome.name));
            for rule in &outcome.missing {
                println!("  MISSING required rule: {}", rule.name());
            }
            println!();
        }
    }
    print!("{}", summary.render());
    if let Some(path) = json_out {
        let doc = check_json(scale, &outcomes);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("ecl-check: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
    }
    let failed = outcomes.iter().filter(|o| !o.passed()).count();
    if failed > 0 {
        eprintln!(
            "\necl-check: {failed} suite entr{} failed",
            if failed == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    println!("\necl-check: all entries passed");
}
