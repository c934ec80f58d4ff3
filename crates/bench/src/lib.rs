//! Experiment harness regenerating every table and figure of the
//! paper.
//!
//! Each experiment lives in [`experiments`] as a pure function from a
//! scale factor (1.0 = the paper's input sizes) to renderable output;
//! the `table1`…`table8`, `fig1`, `fig2` binaries are thin wrappers
//! that parse `--scale` / `ECL_SCALE` and print. The default harness
//! scale is [`DEFAULT_SCALE`], chosen so the full suite runs on a
//! laptop-class machine in minutes while preserving the structural
//! contrasts between inputs (see DESIGN.md §2).
//!
//! The simulated device is scaled by the same factor
//! ([`scaled_device`]): the paper's per-thread metrics (e.g. Table 2's
//! "vertices per thread" on 196,608 persistent threads) depend on the
//! ratio of input size to thread count, which scaling both preserves.

pub mod check_suite;
pub mod experiments;
pub mod mc_suite;
pub mod profile_run;

use ecl_algos::{Algorithm, Counter, Outcome, Views};
use ecl_gpusim::{Device, DeviceConfig};
use ecl_graph::{Csr, WeightedCsr};
use ecl_graphgen::InputSpec;
use ecl_profiling::Histogram;

pub use ecl_algos::SCC_MIN_SMS;

/// Default scale of all harness binaries (fraction of the paper's
/// input sizes).
pub const DEFAULT_SCALE: f64 = 0.01;

/// Default seed used by all harness binaries.
pub const DEFAULT_SEED: u64 = 42;

/// An RTX 4090 scaled down by `scale`: same SM shape, proportionally
/// fewer SMs (at least one). At scale 1.0 this is the paper's device
/// with 196,608 persistent threads.
pub fn scaled_device(scale: f64) -> Device {
    scaled_device_min(scale, 1)
}

/// Like [`scaled_device`] but with a floor on the SM count
/// ([`DeviceConfig::rtx4090_scaled`]). The SCC experiments need it:
/// the block-size trade-off of Table 6 and the per-block series of
/// Figure 1 only exist when the grid has many blocks (the paper's
/// plots show 384), so the device must not shrink to a single SM at
/// small input scales.
pub fn scaled_device_min(scale: f64, min_sms: usize) -> Device {
    assert!(scale > 0.0, "scale must be positive");
    Device::new(DeviceConfig::rtx4090_scaled(scale, min_sms))
}

/// A registry input generated as the view an algorithm consumes: the
/// weighted one (weights in `[1, 1 << 20]`) for a weighted algorithm,
/// the plain one otherwise. `ecl-run` and its `--profile` path share it.
pub struct Generated {
    name: &'static str,
    csr: Option<Csr>,
    weighted: Option<WeightedCsr>,
}

impl Generated {
    /// Generates `spec` at `scale` and `seed` for `algo`.
    pub fn new(algo: &dyn Algorithm, spec: &InputSpec, scale: f64, seed: u64) -> Generated {
        let (csr, weighted) = if algo.weighted() {
            (None, Some(spec.generate_weighted(scale, seed, 1 << 20)))
        } else {
            (Some(spec.generate(scale, seed)), None)
        };
        Generated { name: spec.name, csr, weighted }
    }

    /// The views to run on.
    pub fn views(&self) -> Views<'_> {
        Views { name: self.name, csr: self.csr.as_ref(), weighted: self.weighted.as_ref() }
    }
}

/// Renders an outcome the way `ecl-run` prints it: the aggregates,
/// then the counters. A count prints its value, a sketch its average
/// and maximum (and, with `histogram`, its power-of-two buckets), a
/// table itself.
pub fn render_counters(outcome: &Outcome, histogram: bool) -> String {
    let mut out = String::new();
    for (name, value) in &outcome.aggregates {
        out += &format!("  {name}: {value}\n");
    }
    for (name, counter) in &outcome.counters {
        out += &match counter {
            Counter::Count(v) => format!("  {name}: {v}\n"),
            Counter::Sketch(s) if histogram => {
                let drawn = Histogram::from(s).render(&format!("  {name} distribution"), 40);
                format!("  {name}: avg {:.2}, max {}\n{drawn}", s.mean(), s.max)
            }
            Counter::Sketch(s) => format!("  {name}: avg {:.2}, max {}\n", s.mean(), s.max),
            Counter::Table(t) => format!("  {name}:\n{}", t.render()),
        };
    }
    out
}

/// Parses a `--scale` / `ECL_SCALE` value: a fraction of the paper's
/// input sizes in (0, 1]. The error is `ecl-serve`'s one line for the
/// same field.
pub fn parse_scale(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(scale),
        _ => Err(format!("scale must be in (0, 1], got {text}")),
    }
}

/// Prints `message` and exits with status 2: the experiment binaries'
/// answer to a bad argument.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses `--scale <f>` and `--seed <n>` from argv, falling back to
/// the `ECL_SCALE` / `ECL_SEED` environment variables and then the
/// defaults. Returns `(scale, seed)`. A malformed or out-of-range value
/// or an unknown argument exits 2 with one line.
pub fn parse_args() -> (f64, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale_of = |t: &str| parse_scale(t).unwrap_or_else(|e| usage_error(&e));
    let seed_of = |t: &str| {
        t.parse().unwrap_or_else(|_| usage_error(&format!("seed must be an integer, got {t}")))
    };
    let mut scale = std::env::var("ECL_SCALE").ok().map(|t| scale_of(&t));
    let mut seed = std::env::var("ECL_SEED").ok().map(|t| seed_of(&t));
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--scale", Some(v)) => scale = Some(scale_of(v)),
            ("--seed", Some(v)) => seed = Some(seed_of(v)),
            _ => usage_error(&format!("unknown argument: {arg}")),
        }
    }
    (scale.unwrap_or(DEFAULT_SCALE), seed.unwrap_or(DEFAULT_SEED))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_device_matches_paper() {
        let d = scaled_device(1.0);
        assert_eq!(d.resident_threads(), 196_608);
    }

    #[test]
    fn tiny_scale_device_keeps_block_shape() {
        let d = scaled_device(0.001);
        assert_eq!(d.config().threads_per_sm, 1536);
        assert!(d.resident_threads() >= 1536);
        assert_eq!(d.config().default_block_size, 512);
    }

    #[test]
    fn scale_outside_the_unit_interval_is_refused() {
        assert_eq!(parse_scale("0.5"), Ok(0.5));
        assert_eq!(parse_scale("1"), Ok(1.0));
        for bad in ["0", "-1", "nan", "inf", "2", "abc", ""] {
            assert_eq!(parse_scale(bad), Err(format!("scale must be in (0, 1], got {bad}")));
        }
    }

    #[test]
    fn device_scales_proportionally() {
        let half = scaled_device(0.5);
        assert_eq!(half.resident_threads(), 98_304);
    }
}
