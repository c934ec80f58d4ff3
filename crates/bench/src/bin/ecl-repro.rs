//! `ecl-repro` — regenerate one of the paper's tables or figures, or
//! all of them as one markdown report.
//!
//! ```text
//! ecl-repro <table1|…|table8|fig1|fig2|all> [--scale f] [--seed n]
//! ```
//!
//! Every cell runs in order (one simulator worker), so the output is a
//! pure function of the scale and seed: `results/<name>.txt` holds it
//! at the defaults. `all` prints a heading and a fenced block per
//! experiment, all ten folded from one pass of the cell runner: one
//! input resident at a time, each distinct cell run once.

use ecl_bench::experiments::{self, ALL};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let names: Vec<&str> = ALL.iter().map(|(n, _, _)| *n).collect();
    if name != "all" && !names.contains(&name.as_str()) {
        let names = names.join("|");
        ecl_bench::usage_error(&format!("usage: ecl-repro <{names}|all> [--scale f] [--seed n]"));
    }
    let (scale, seed) = ecl_bench::parse_args(args);
    match experiments::render(&name, scale, seed) {
        Some(text) => print!("{text}"),
        None => experiments::report(scale, seed, &mut std::io::stdout().lock()).expect("stdout"),
    }
}
