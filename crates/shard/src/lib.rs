//! Multi-pool sharded execution with cross-shard frontier exchange.
//!
//! Each shard of a [`Partition`] executes on its own simulated
//! [`ecl_gpusim::Device`] — one dispatch-pool instance per modeled
//! GPU. The shards sweep their local subgraphs in *supersteps*;
//! between supersteps, boundary state crosses shards through
//! double-buffered [`exchange::Mailboxes`], and a global fixpoint
//! detector terminates the run only when every shard **and** every
//! mailbox is quiescent.
//!
//! Determinism is load-bearing. The exchange is double-buffered:
//! nothing a shard sends is visible before the next superstep, and
//! inboxes merge in fixed shard order through commutative min/max. The
//! MIS sweeps are Jacobi (they read the previous superstep's snapshot
//! and write a next-state buffer). CC and SCC instead run a local phase
//! to a fixpoint inside each shard — ECL-CC's CAS hooking for CC, a
//! one-thread max-first worklist for SCC — and both run in order, so
//! their charges cannot depend on the pool's schedule. Results,
//! superstep counts, message volumes, and modeled time are therefore
//! bit-identical across repeated runs and worker interleavings, and
//! results are identical across shard counts (the cost figures are
//! per-shard-count deterministic). The sharded CC/SCC/MIS results
//! coincide with the single-pool `ecl-cc` / `ecl-scc` / `ecl-mis`
//! results: CC's local components joined by min-label exchange and
//! SCC's max-signature propagation converge to their unique fixpoints
//! on any schedule, and the MIS selection order is a total priority
//! order under which adjacent same-superstep IN decisions are
//! impossible.
//!
//! Shards execute sequentially on the host (the simulator models
//! parallel hardware through cost accounting, not wall-clock overlap):
//! a superstep's modeled latency is the maximum per-shard compute
//! delta plus the exchange term ([`time::ShardClock`]). Because each
//! shard launches through the ordinary `ecl-gpusim` launch path inside
//! a shard [`ecl_gpusim::ctx::CtxGuard`], the existing `ecl-check`, `ecl-trace`
//! and `ecl-prof` instrumentation applies per shard for free, with the
//! shard id attached to trace markers and launch samples.

pub mod cc;
pub mod exchange;
pub mod mis;
pub mod partition;
pub mod scc;
pub mod time;

pub use cc::{run_cc, ShardCcResult};
pub use exchange::{Mailboxes, Message};
pub use mis::{run_mis, ShardMisResult};
pub use partition::{Partition, ShardGraph, Strategy, MAX_SHARDS};
pub use scc::{run_scc, ShardSccResult};
pub use time::ShardClock;

use ecl_gpusim::{Device, DeviceConfig};

/// Block size of the sharded sweep kernels.
pub(crate) const BLOCK_SIZE: usize = 256;

/// Builds one device per shard from a common configuration (the
/// "N identical GPUs" setup of a multi-pool run).
pub fn devices_for(config: DeviceConfig, shards: u32) -> Vec<Device> {
    (0..shards).map(|_| Device::new(config)).collect()
}

/// Run-level statistics common to all sharded algorithms.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: u32,
    /// Partition strategy used.
    pub strategy: Strategy,
    /// Arcs crossing shard boundaries.
    pub cut_arcs: usize,
    /// Total arcs of the input.
    pub total_arcs: usize,
    /// Global supersteps executed (exchange barriers crossed).
    pub supersteps: u32,
    /// Messages moved through the mailboxes.
    pub exchange_messages: u64,
    /// Modeled time: max-over-shards compute per superstep plus
    /// exchange and fixpoint-detector terms.
    pub modeled_time: f64,
}

impl ShardStats {
    /// The statistics of a run over `part` that `clock` accounted.
    pub(crate) fn of(part: &Partition, clock: &ShardClock) -> ShardStats {
        ShardStats {
            shards: part.shards,
            strategy: part.strategy,
            cut_arcs: part.cut_arcs,
            total_arcs: part.total_arcs,
            supersteps: clock.supersteps(),
            exchange_messages: clock.messages(),
            modeled_time: clock.total(),
        }
    }

    /// Fraction of arcs crossing shard boundaries.
    pub fn cut_ratio(&self) -> f64 {
        if self.total_arcs == 0 {
            0.0
        } else {
            self.cut_arcs as f64 / self.total_arcs as f64
        }
    }
}

/// Validates the devices-vs-partition pairing shared by all runners.
pub(crate) fn check_devices(devices: &[Device], part: &Partition) {
    assert_eq!(
        devices.len(),
        part.shards as usize,
        "one device per shard required ({} devices for {} shards)",
        devices.len(),
        part.shards
    );
}
