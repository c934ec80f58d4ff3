//! Multi-pool sharded execution with cross-shard frontier exchange.
//!
//! Each shard of a [`Partition`] executes on its own simulated
//! [`ecl_gpusim::Device`] — one dispatch-pool instance per modeled
//! GPU. A run is a sequence of *supersteps* on one driver
//! (`exchange::Driver`): each runs a phase on every shard, then
//! boundary state crosses shards through double-buffered mailboxes,
//! and the run stops after a superstep that moves no message.
//!
//! Every runner has one shape: each shard runs a local phase to a
//! fixpoint, with ghost slots mirroring remote vertices, and only
//! boundary changes cross the cut — ECL-CC's CAS hooking for CC,
//! one-thread max-first worklists for SCC (signatures) and MIS
//! (decisions; an undecided ghost blocks like any undecided vertex).
//! Local phases run in order and inboxes merge in fixed shard order,
//! so results, superstep counts, message volumes and modeled time are
//! bit-identical across runs and worker interleavings, and results
//! equal the single-pool `ecl-cc` / `ecl-scc` / `ecl-mis` ones at every
//! shard count: min-label and max-signature propagation have unique
//! fixpoints, and a lagging MIS mirror can delay a decision, never
//! change it.
//!
//! The shards of a superstep run side by side on the host, one pool
//! block each, with a barrier before the exchange. Modeled time does
//! not see that overlap: a superstep's modeled latency is the maximum
//! per-shard compute delta plus the exchange term ([`time::ShardClock`]).
//! Because each shard launches through the ordinary `ecl-gpusim` launch
//! path inside a shard [`ecl_gpusim::ctx::CtxGuard`], the `ecl-check`,
//! `ecl-trace` and `ecl-prof` instrumentation applies per shard, with
//! the shard id attached to trace markers and launch samples.

pub mod cc;
pub mod exchange;
pub mod mis;
pub mod partition;
pub mod scc;
pub mod time;

pub use cc::{run_cc, ShardCcResult};
pub use mis::{run_mis, ShardMisResult};
pub use partition::{Partition, ShardGraph, Strategy, MAX_SHARDS};
pub use scc::{run_scc, ShardSccResult};

use ecl_gpusim::{Device, DeviceConfig};

/// Block size of the sharded flat kernels.
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
    /// Fraction of arcs crossing shard boundaries.
    pub fn cut_ratio(&self) -> f64 {
        if self.total_arcs == 0 {
            0.0
        } else {
            self.cut_arcs as f64 / self.total_arcs as f64
        }
    }
}
