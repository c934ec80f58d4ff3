//! Experiment harness regenerating every table and figure of the
//! paper.
//!
//! Each experiment lives in [`experiments`] as `render(&Inputs) ->
//! String`, a pure function of the [`Inputs`] (the registry graphs at
//! one scale factor, 1.0 = the paper's input sizes, and seed) to its
//! printed output. An experiment is a list of cells (input ×
//! configuration) that run side by side, each in order; the
//! `ecl-repro` binary prints one experiment, or `all` of them on one
//! shared [`Inputs`]. The default harness scale is [`DEFAULT_SCALE`],
//! chosen so the full suite runs on a laptop-class machine in minutes
//! while preserving the structural contrasts between inputs (see
//! DESIGN.md §2).
//!
//! The simulated device is scaled by the same factor
//! ([`scaled_device`]): the paper's per-thread metrics (e.g. Table 2's
//! "vertices per thread" on 196,608 persistent threads) depend on the
//! ratio of input size to thread count, which scaling both preserves.

pub mod check_suite;
pub mod experiments;
pub mod mc_suite;
pub mod profile_run;

use std::sync::{Arc, OnceLock};

use ecl_algos::{Algorithm, Outcome, Views};
use ecl_gpusim::{Device, DeviceConfig};
use ecl_graph::{Csr, WeightedCsr};
use ecl_graphgen::{all_inputs, InputSpec, DEFAULT_MAX_WEIGHT};
use ecl_profiling::Counter;

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

/// The registry's inputs at one `(scale, seed)`: each graph generated
/// once, on first use, and its weighted view sharing that same graph.
/// Shared read-only, from any thread; every graph stays resident until
/// it drops.
pub struct Inputs {
    scale: f64,
    seed: u64,
    /// Per registry input, in [`all_inputs`] order: graph, weighted view.
    slots: Vec<(OnceLock<Arc<Csr>>, OnceLock<WeightedCsr>)>,
}

impl Inputs {
    /// No input generated yet.
    pub fn new(scale: f64, seed: u64) -> Inputs {
        Inputs { scale, seed, slots: all_inputs().map(|_| Default::default()).collect() }
    }

    /// The scale every input is generated at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The seed every input is generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn slot(&self, spec: &InputSpec) -> &(OnceLock<Arc<Csr>>, OnceLock<WeightedCsr>) {
        let index = all_inputs().position(|s| s.name == spec.name).expect("a registry input");
        &self.slots[index]
    }

    fn shared(&self, spec: &InputSpec) -> &Arc<Csr> {
        self.slot(spec).0.get_or_init(|| Arc::new(spec.generate(self.scale, self.seed)))
    }

    /// `spec`'s graph.
    pub fn graph(&self, spec: &InputSpec) -> &Csr {
        self.shared(spec)
    }

    /// `spec`'s weighted view, sharing [`Self::graph`]; panics for a
    /// directed input.
    pub fn weighted(&self, spec: &InputSpec) -> &WeightedCsr {
        let g = || spec.weigh(Arc::clone(self.shared(spec)), self.seed, DEFAULT_MAX_WEIGHT);
        self.slot(spec).1.get_or_init(g)
    }

    /// The views of `spec` that `algo` consumes: the graph, and the
    /// weighted view for a weighted algorithm.
    pub fn views(&self, algo: &dyn Algorithm, spec: &InputSpec) -> Views<'_> {
        Views {
            name: spec.name,
            csr: self.graph(spec),
            weighted: algo.weighted().then(|| self.weighted(spec)),
        }
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
                let drawn = s.render(&format!("  {name} distribution"), 40);
                format!("  {name}: avg {:.2}, max {}\n{drawn}", s.mean(), s.max)
            }
            Counter::Sketch(s) => format!("  {name}: avg {:.2}, max {}\n", s.mean(), s.max),
            Counter::Table(t) => format!("  {name}:\n{}", t.render()),
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

/// The [`Inputs`] at `--scale <f>` and `--seed <n>` from `args`,
/// defaulting to [`DEFAULT_SCALE`] and [`DEFAULT_SEED`]. A malformed or
/// out-of-range value or an unknown argument exits 2 with one line.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Inputs {
    let (mut scale, mut seed) = (DEFAULT_SCALE, DEFAULT_SEED);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--scale", Some(v)) => scale = parse_scale(&v).unwrap_or_else(|e| usage_error(&e)),
            ("--seed", Some(v)) => seed = parse_int("seed", &v),
            _ => usage_error(&format!("unknown argument: {arg}")),
        }
    }
    Inputs::new(scale, seed)
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
    fn inputs_generate_each_graph_once() {
        let inputs = Inputs::new(0.002, 7);
        let spec = ecl_graphgen::registry::find("internet").unwrap();
        assert!(std::ptr::eq(inputs.graph(spec), inputs.graph(spec)));
        assert_eq!(*inputs.graph(spec), spec.generate(0.002, 7));
        let weighted = inputs.weighted(spec);
        assert!(std::ptr::eq(weighted, inputs.weighted(spec)));
        assert!(std::ptr::eq(inputs.weighted(spec).csr(), inputs.graph(spec)));
        assert_eq!(*weighted, spec.generate_weighted(0.002, 7, DEFAULT_MAX_WEIGHT));
    }

    #[test]
    fn device_scales_proportionally() {
        let half = scaled_device(0.5);
        assert_eq!(half.resident_threads(), 98_304);
    }
}
