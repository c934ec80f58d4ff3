//! Experiment harness regenerating every table and figure of the
//! paper.
//!
//! Each experiment lives in [`experiments`] as a visitor of the cell
//! runner ([`ecl_algos::cells`]): it declares its cells (algorithm ×
//! schedule keys) on each registry input at one scale factor (1.0 =
//! the paper's input sizes) and seed, and folds their in-order runs
//! into its printed output. The `ecl-repro` binary prints one
//! experiment, or `all` of them from one pass of the runner. The
//! default harness scale is [`DEFAULT_SCALE`], chosen so the full suite
//! runs on a laptop-class machine in seconds while preserving the
//! structural contrasts between inputs (see DESIGN.md §2).
//!
//! The simulated device is scaled by the same factor
//! ([`ecl_algos::device_config`]): the paper's per-thread metrics (e.g.
//! Table 2's "vertices per thread" on 196,608 persistent threads)
//! depend on the ratio of input size to thread count, which scaling
//! both preserves.

pub mod check_suite;
pub mod experiments;
pub mod mc_suite;
pub mod profile_run;

use ecl_algos::Outcome;
use ecl_profiling::Counter;

/// Default scale of all harness binaries (fraction of the paper's
/// input sizes).
pub const DEFAULT_SCALE: f64 = 0.01;

/// Default seed used by all harness binaries.
pub const DEFAULT_SEED: u64 = 42;

/// Renders an outcome the way `ecl-run` prints it: the aggregates,
/// then the counters. A count prints its value, a sketch its average
/// and maximum (and, with `histogram`, its power-of-two buckets), a
/// table itself, a time its whole units.
pub fn render_counters(outcome: &Outcome, histogram: bool) -> String {
    let mut out = String::new();
    for (name, value) in &outcome.aggregates {
        out += &format!("  {name}: {value}\n");
    }
    for (name, counter) in &outcome.counters {
        out += &match counter {
            Counter::Count(v) => format!("  {name}: {v}\n"),
            Counter::Sketch(s) if histogram => {
                let drawn = s.render(&format!("  {name} distribution"), 40);
                format!("  {name}: avg {:.2}, max {}\n{drawn}", s.mean(), s.max)
            }
            Counter::Sketch(s) => format!("  {name}: avg {:.2}, max {}\n", s.mean(), s.max),
            Counter::Table(t) => format!("  {name}:\n{}", t.render()),
            Counter::Time(t) => format!("  {name}: {t:.0}\n"),
        };
    }
    out
}

/// Parses a `--scale` value: a fraction of the paper's input sizes in
/// (0, 1]. The error is `ecl-serve`'s one line for the same field.
pub fn parse_scale(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(scale),
        _ => Err(format!("scale must be in (0, 1], got {text}")),
    }
}

/// Prints `message` and exits with status 2: the harness binaries'
/// answer to a bad argument.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses the integer argument `name` or exits 2 with one line.
pub fn parse_int<T: std::str::FromStr>(name: &str, text: &str) -> T {
    text.parse().unwrap_or_else(|_| usage_error(&format!("{name} must be an integer, got {text}")))
}

/// `--scale <f>` and `--seed <n>` from `args`, defaulting to
/// [`DEFAULT_SCALE`] and [`DEFAULT_SEED`]. A malformed, out-of-range or
/// missing value or an unknown argument exits 2 with one line.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> (f64, u64) {
    let (mut scale, mut seed) = (DEFAULT_SCALE, DEFAULT_SEED);
    while let Some(arg) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_error(&format!("{arg} wants a value")));
        match arg.as_str() {
            "--scale" => scale = parse_scale(&value()).unwrap_or_else(|e| usage_error(&e)),
            "--seed" => seed = parse_int("seed", &value()),
            _ => usage_error(&format!("unknown argument: {arg}")),
        }
    }
    (scale, seed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn scale_outside_the_unit_interval_is_refused() {
        assert_eq!(parse_scale("0.5"), Ok(0.5));
        assert_eq!(parse_scale("1"), Ok(1.0));
        for bad in ["0", "-1", "nan", "inf", "2", "abc", ""] {
            assert_eq!(parse_scale(bad), Err(format!("scale must be in (0, 1], got {bad}")));
        }
    }
}
