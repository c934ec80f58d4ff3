//! `ecl-repro` — regenerate one of the paper's tables or figures, or
//! all of them as one markdown report.
//!
//! ```text
//! ecl-repro <table1|…|table8|fig1|fig2|all> [--scale f] [--seed n]
//! ```
//!
//! Every experiment runs in order (one simulator worker), so its output
//! is a pure function of the scale and seed: `results/<name>.txt` holds
//! it at the defaults. `all` prints a heading and a fenced block per
//! experiment, computing each once.

use ecl_bench::experiments::{self, ALL};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name != "all" && !ALL.iter().any(|(n, _, _)| *n == name) {
        let names: Vec<&str> = ALL.iter().map(|(n, _, _)| *n).collect();
        ecl_bench::usage_error(&format!(
            "usage: ecl-repro <{}|all> [--scale f] [--seed n]",
            names.join("|")
        ));
    }
    let (scale, seed) = ecl_bench::parse_args(args);
    let render = |name| experiments::render(name, scale, seed).expect("a listed experiment");
    if name != "all" {
        print!("{}", render(&name));
        return;
    }
    print!(
        "# ecl-profiling-rs experiment report\n\nscale {scale}, seed {seed}. \
         Shapes are checked against the paper; see EXPERIMENTS.md for the\n\
         full paper-vs-measured discussion.\n\n"
    );
    for (name, title, _) in ALL {
        eprintln!("{name} ...");
        print!("## {title}\n\n```text\n{}```\n\n", render(name));
    }
}
