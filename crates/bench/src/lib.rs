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

use ecl_gpusim::{Device, DeviceConfig};

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

/// Parses `--scale <f>` and `--seed <n>` from argv, falling back to
/// the `ECL_SCALE` / `ECL_SEED` environment variables and then the
/// defaults. Returns `(scale, seed)`.
pub fn parse_args() -> (f64, u64) {
    let args: Vec<String> = std::env::args().collect();
    let mut scale: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().ok();
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().ok();
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument: {other}");
                i += 1;
            }
        }
    }
    let scale = scale
        .or_else(|| std::env::var("ECL_SCALE").ok().and_then(|s| s.parse().ok()))
        .unwrap_or(DEFAULT_SCALE);
    let seed = seed
        .or_else(|| std::env::var("ECL_SEED").ok().and_then(|s| s.parse().ok()))
        .unwrap_or(DEFAULT_SEED);
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    (scale, seed)
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
    fn device_scales_proportionally() {
        let half = scaled_device(0.5);
        assert_eq!(half.resident_threads(), 98_304);
    }
}
