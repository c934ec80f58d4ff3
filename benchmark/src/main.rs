//! `ecl-benchmark`: the repository's fixed benchmark. See README.md.
//!
//! ```text
//! ecl-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ecl-benchmark --list | --manifest
//! ecl-benchmark --collect DIR OUT.json
//! ecl-benchmark --compare A.json B.json
//! ```

mod batch;
mod jobs;
mod layers;
mod metrics;
mod report;
mod serve;
mod spans;
mod stats;
mod window;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ecl-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]\n       \
         ecl-benchmark --list | --manifest\n       \
         ecl-benchmark --collect DIR OUT.json\n       \
         ecl-benchmark --compare A.json B.json"
    );
    ExitCode::from(2)
}

fn parse_run_args(args: &[String]) -> Option<RunArgs> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().ok()?,
            "--seconds" => run.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => run.trace = matches!(value.as_str(), "1"),
            "--out-dir" => run.out_dir = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    metrics::WORKLOADS.iter().any(|w| w.name == run.workload).then_some(run)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | host cpus {host_cpus}, pool workers {} (default policy)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        ecl_gpusim::pool::effective_workers()
    );
    let outcome = if args.trace {
        layers::traced_run(&args.workload, args.seed, args.seconds, host_cpus)
    } else if args.workload == "serve-mix" {
        serve::timed_run(args.seed, args.seconds, host_cpus)
    } else {
        batch::timed_run(&args.workload, args.seed, args.seconds)
    };
    let result = RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        correct: outcome.correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome.metrics,
    };
    for (name, value, unit) in &result.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    if let Some(dir) = &args.out_dir {
        let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
        write_file(&dir.join(format!("{stem}.json")), &result.run_file())?;
        if args.trace {
            write_file(&dir.join("trace.json"), &spans::to_trace_json(&spans::snapshot()))?;
        }
    }
    println!("{}", result.contract_line());
    Ok(if result.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn collect(dir: &str, out: &str) -> Result<ExitCode, String> {
    let ledger = report::collect(&report::read_run_files(Path::new(dir))?)?;
    write_file(Path::new(out), &report::ledger_to_json(&ledger))?;
    Ok(ExitCode::SUCCESS)
}

fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| report::ledger_from_json(&t))
    };
    let (verdicts, problems) = report::compare(&read(a)?, &read(b)?);
    print!("{}", report::verdict_table(&verdicts));
    for p in &problems {
        println!("FAIL {p}");
    }
    let failed = verdicts.iter().filter(|v| !v.pass).count() + problems.len();
    println!("\n{} cells compared, {failed} failed", verdicts.len());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match refs.as_slice() {
        ["--list"] => {
            for w in &metrics::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(ExitCode::SUCCESS)
        }
        ["--manifest"] => {
            print!("{}", metrics::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        ["--collect", dir, out] => collect(dir, out),
        ["--compare", a, b] => compare(a, b),
        _ => match parse_run_args(&args) {
            Some(run_args) => run(&run_args),
            None => return usage(),
        },
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ecl-benchmark: {e}");
        ExitCode::FAILURE
    })
}
