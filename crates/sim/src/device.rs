//! Simulated device: configuration and cost accounting.

use std::sync::Arc;

use crate::cost::{CostKind, CostParams, CostTally};
use crate::observe::{self, Attached, Observer, Observers};

/// Static configuration of a simulated GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident threads per SM.
    pub threads_per_sm: usize,
    /// Threads per warp (kept for completeness; the profiled kernels do
    /// not use intra-warp communication).
    pub warp_size: usize,
    /// Default threads per block for kernels that do not override it.
    pub default_block_size: usize,
}

impl DeviceConfig {
    /// The paper's test GPU (§5.1): RTX 4090, Ada Lovelace, 128 SMs.
    /// 128 SMs × 1536 resident threads = 196,608 persistent threads,
    /// matching Table 2's "196,608 on the RTX 4090".
    pub fn rtx4090() -> Self {
        Self { num_sms: 128, threads_per_sm: 1536, warp_size: 32, default_block_size: 512 }
    }

    /// The RTX 4090 scaled down by `scale`: same SM shape,
    /// proportionally fewer SMs, floored at `min_sms` (and at one). The
    /// one preset behind every harness, tuning and serving run: the
    /// paper's per-thread metrics depend on the ratio of input size to
    /// thread count, which scaling both preserves. At scale 1.0 this is
    /// [`DeviceConfig::rtx4090`].
    pub fn rtx4090_scaled(scale: f64, min_sms: usize) -> Self {
        let full = Self::rtx4090();
        let num_sms = ((full.num_sms as f64 * scale).round() as usize).max(min_sms).max(1);
        Self { num_sms, ..full }
    }

    /// A small device for unit tests: keeps persistent-thread kernels
    /// fast while preserving the launch semantics.
    pub fn test_small() -> Self {
        Self { num_sms: 4, threads_per_sm: 64, warp_size: 32, default_block_size: 32 }
    }

    /// NVIDIA A100 (Ampere): 108 SMs × 2048 resident threads. Its SM
    /// accepts two 1024-thread blocks, so — unlike the RTX 4090 — a
    /// 1024-thread configuration reaches full occupancy: the Table 6
    /// block-size prediction changes across device generations.
    pub fn a100() -> Self {
        Self { num_sms: 108, threads_per_sm: 2048, warp_size: 32, default_block_size: 512 }
    }

    /// NVIDIA RTX 3090 (Ampere consumer): 82 SMs × 1536 resident
    /// threads — the same 1536-thread SM shape as the 4090, so the
    /// same occupancy cliff at 1024 threads per block.
    pub fn rtx3090() -> Self {
        Self { num_sms: 82, threads_per_sm: 1536, warp_size: 32, default_block_size: 512 }
    }

    /// Number of simultaneously resident ("persistent") threads.
    pub fn resident_threads(&self) -> usize {
        self.num_sms * self.threads_per_sm
    }

    /// SM occupancy achievable with the given block size: blocks are
    /// scheduled whole, so an SM fits `floor(threads_per_sm /
    /// block_size)` blocks and the rest of its thread slots idle. On
    /// the RTX 4090 (1536 threads/SM) block sizes 64–512 reach 100%
    /// but 1024 only 67% — one hardware ingredient of the paper's
    /// Table 6 result that a work-based cost model cannot derive and
    /// must charge explicitly.
    pub fn occupancy(&self, block_size: usize) -> f64 {
        assert!(block_size > 0, "block_size must be positive");
        if block_size > self.threads_per_sm {
            // A block larger than an SM cannot launch on real
            // hardware; model it as one block per SM.
            return self.threads_per_sm as f64 / block_size as f64;
        }
        let blocks_per_sm = self.threads_per_sm / block_size;
        (blocks_per_sm * block_size) as f64 / self.threads_per_sm as f64
    }
}

/// A simulated device instance: configuration, a mutable cost tally
/// and the observers its launches report to. One `Device` per measured
/// algorithm run; the tally is read after the run to produce modeled
/// time.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    params: CostParams,
    cost: CostTally,
    observers: Observers,
}

impl Device {
    /// A device with the given configuration and default cost weights.
    ///
    /// Creating a device warms the process-wide execution pool
    /// ([`crate::pool::prewarm`]) so the first kernel launch does not
    /// pay worker spawn-up on its critical path; the workers park
    /// between launches and are shared by all devices. The device
    /// starts with the observers of the process default set
    /// ([`observe::defaults`]).
    pub fn new(config: DeviceConfig) -> Self {
        crate::pool::prewarm();
        let observers = observe::defaults().copy();
        Self { config, params: CostParams::default(), cost: CostTally::new(), observers }
    }

    /// The paper's RTX 4090 preset.
    pub fn rtx4090() -> Self {
        Self::new(DeviceConfig::rtx4090())
    }

    /// Small test device.
    pub fn test_small() -> Self {
        Self::new(DeviceConfig::test_small())
    }

    /// Overrides the cost weights.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Number of persistent threads.
    pub fn resident_threads(&self) -> usize {
        self.config.resident_threads()
    }

    /// Attaches `observer` to this device's launches and phases until
    /// the returned guard drops.
    pub fn observe(&self, observer: Arc<dyn Observer>) -> Attached<'_> {
        self.observers.attach(observer)
    }

    /// The observers attached to this device.
    pub fn observers(&self) -> &Observers {
        &self.observers
    }

    /// Charges `units` of `kind` to this device's tally. Also reports
    /// the charge to the observers of the block running on this thread
    /// so launch lints can attribute work to the executing agent. Unlike
    /// the counted ops it takes no [`crate::observe::Hooks`] snapshot:
    /// it reads the block's published wants itself, one thread-local
    /// byte test and a cold fan-out. The unswitched ECL-SCC sweep
    /// charges once per sweep, outside its per-edge loop.
    #[inline]
    pub fn charge(&self, kind: CostKind, units: u64) {
        crate::observe::charge(kind, units);
        self.cost.charge(kind, units);
    }

    /// The raw cost tally.
    pub fn cost(&self) -> &CostTally {
        &self.cost
    }

    /// The active cost weights.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Weighted abstract runtime accumulated so far.
    pub fn modeled_time(&self) -> f64 {
        self.cost.modeled_time(&self.params)
    }
}

impl AsRef<Observers> for Device {
    fn as_ref(&self) -> &Observers {
        &self.observers
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn rtx4090_preset_matches_paper() {
        let c = DeviceConfig::rtx4090();
        assert_eq!(c.num_sms, 128);
        assert_eq!(c.resident_threads(), 196_608);
        assert_eq!(c.default_block_size, 512);
    }

    #[test]
    fn charge_flows_to_modeled_time() {
        let d = Device::test_small();
        d.charge(CostKind::ThreadWork, 10);
        assert!(d.modeled_time() > 0.0);
        assert_eq!(d.cost().units(CostKind::ThreadWork), 10);
    }

    #[test]
    fn custom_params_change_time() {
        let d1 = Device::test_small();
        let d2 = Device::test_small()
            .with_params(CostParams { thread_work: 10.0, ..CostParams::default() });
        d1.charge(CostKind::ThreadWork, 5);
        d2.charge(CostKind::ThreadWork, 5);
        assert!(d2.modeled_time() > d1.modeled_time());
    }

    #[test]
    fn test_small_is_small() {
        assert!(DeviceConfig::test_small().resident_threads() <= 1024);
    }

    #[test]
    fn a100_has_no_1024_occupancy_cliff() {
        // The cross-device prediction: 2048-thread SMs schedule two
        // 1024-thread blocks, so the 4090's biggest Table 6 penalty
        // vanishes on an A100.
        let a100 = DeviceConfig::a100();
        assert!((a100.occupancy(1024) - 1.0).abs() < 1e-12);
        assert!((a100.occupancy(512) - 1.0).abs() < 1e-12);
        let rtx3090 = DeviceConfig::rtx3090();
        assert!((rtx3090.occupancy(1024) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_matches_rtx4090_shape() {
        let c = DeviceConfig::rtx4090();
        for bs in [64, 128, 256, 512] {
            assert!((c.occupancy(bs) - 1.0).abs() < 1e-12, "bs {bs}");
        }
        assert!((c.occupancy(1024) - 2.0 / 3.0).abs() < 1e-12);
        // Oversized blocks degrade proportionally.
        assert!((c.occupancy(3072) - 0.5).abs() < 1e-12);
    }
}
