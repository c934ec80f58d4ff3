//! `ecl-mc` — run the schedule-exhaustive concurrency checker over
//! the host-path harness suite and fail on any unexpected verdict.
//!
//! ```text
//! ecl-mc [--budget N] [--bound N] [--seed N] [--json PATH] [--verbose]
//! ecl-mc --list
//! ecl-mc replay <entry> <i,j,k,...>
//! ```
//!
//! Clean harnesses must verify clean (the tentpole ticket-claim and
//! scheduler-finish harnesses exhaustively); the seeded-defect
//! fixtures must be found and classified under their declared rule.
//! Exit status 1 when any entry misses its expectation; this is what
//! the CI `mc-smoke` job gates on. `--json` additionally writes the
//! versioned `ecl-mc/1` document uploaded as a CI artifact. `replay`
//! re-runs one entry under an exact recorded schedule (the
//! comma-separated choice list a failure report prints).

use ecl_bench::mc_suite::{mc_json, mc_suite, run_mc_entry, McSuiteEntry};
use ecl_bench::parse_int;
use ecl_mc::{Checker, Config};
use ecl_profiling::table::Table;

const USAGE: &str = "usage: ecl-mc [--budget N] [--bound N] [--seed N] [--json PATH] [--verbose] \
     | --list | replay <entry> <i,j,k,...>";

fn find_entry(name: &str) -> Option<McSuiteEntry> {
    mc_suite().into_iter().find(|e| e.name == name || e.name.ends_with(&format!("/{name}")))
}

fn replay(config: &Config, args: &[String]) -> i32 {
    let [name, sched] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let Some(entry) = find_entry(name) else {
        eprintln!("ecl-mc: no suite entry named {name:?} (see --list)");
        return 2;
    };
    let schedule: Vec<usize> = sched
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    match Checker::with_config(*config).replay(entry.run, &schedule) {
        Some(f) => {
            println!("{}", f.render());
            1
        }
        None => {
            println!("{}: schedule {schedule:?} completes without a failure", entry.name);
            0
        }
    }
}

/// The value after a flag, or the usage line and exit 2.
fn value(args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| ecl_bench::usage_error(USAGE))
}

fn main() {
    let mut config = Config::default();
    let (mut verbose, mut json_out) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.trim_start_matches('-');
        match arg.as_str() {
            "--verbose" => verbose = true,
            "--budget" => config.max_schedules = parse_int(flag, &value(&mut args)),
            "--bound" => config.preemption_bound = parse_int(flag, &value(&mut args)),
            "--seed" => config.seed = parse_int(flag, &value(&mut args)),
            "--json" => json_out = Some(value(&mut args)),
            "--list" => {
                for e in mc_suite() {
                    println!("{:<40} {}", e.name, e.about);
                }
                return;
            }
            "replay" => std::process::exit(replay(&config, &args.collect::<Vec<_>>())),
            _ => ecl_bench::usage_error(USAGE),
        }
    }

    println!(
        "ecl-mc: {} entries, preemption bound {}, budget {} schedules, seed {:#x}\n",
        mc_suite().len(),
        config.preemption_bound,
        config.max_schedules,
        config.seed
    );

    let mut summary = Table::new(
        "mc suite",
        &["entry", "status", "schedules", "dfs", "random", "exhaustive", "bound"],
    );
    let mut outcomes = Vec::new();
    let mut failed = 0usize;
    for entry in mc_suite() {
        let o = run_mc_entry(&config, &entry);
        if !o.passed() {
            failed += 1;
        }
        summary.row_owned(vec![
            o.name.clone(),
            o.status().to_string(),
            o.outcome.schedules.to_string(),
            o.outcome.dfs_schedules.to_string(),
            o.outcome.random_schedules.to_string(),
            o.outcome.exhaustive.to_string(),
            o.outcome.bound.to_string(),
        ]);
        if verbose || !o.passed() {
            println!("{}", o.outcome.summary());
            if let Some(f) = &o.outcome.failure {
                println!("{}", f.render());
            }
        }
        outcomes.push(o);
    }
    print!("{}", summary.render());
    let total: u64 = outcomes.iter().map(|o| o.outcome.schedules).sum();
    println!("\n{total} schedules explored across the suite");

    if let Some(path) = json_out {
        let doc = mc_json(&config, &outcomes);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("ecl-mc: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    if failed > 0 {
        eprintln!("\necl-mc: {failed} suite entr{} failed", if failed == 1 { "y" } else { "ies" });
        std::process::exit(1);
    }
    println!("\necl-mc: all entries passed");
}
