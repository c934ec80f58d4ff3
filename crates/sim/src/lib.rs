//! A CPU-hosted GPU *execution-model* simulator.
//!
//! The paper runs five CUDA codes on an NVIDIA RTX 4090. This crate
//! substitutes the GPU with a simulator that reproduces the execution
//! *semantics* the paper's profiling results depend on, not the silicon:
//!
//! - a **grid / block / thread** hierarchy with configurable block size
//!   and an RTX 4090-like device preset (128 SMs × 1536 resident threads
//!   = 196,608 persistent threads, the thread count of Table 2),
//! - **counted atomics** wrapping `AtomicU32`/`AtomicU64` CAS,
//!   fetch-min and fetch-max, classifying every call as updated /
//!   no-effect / CAS-failed — the §3.1.5 metric general-purpose
//!   profilers do not expose,
//! - **block-synchronous execution** for ECL-SCC-style kernels in which
//!   a block keeps iterating while any of its threads performed an
//!   update,
//! - a deterministic **cost model** that charges useful thread work,
//!   idle-thread checks, atomics, block-wide synchronization, kernel
//!   launches, and host-side launch reconfiguration. Speedup tables are
//!   computed from modeled cost so the reproduction is hardware- and
//!   load-independent; wall time is reported alongside.
//!
//! Blocks execute on a persistent worker pool with dynamic
//! ticket-based claiming ([`pool`]) — workers park between launches
//! and pull block indices off a shared atomic, mirroring how hardware
//! SMs pick up ready blocks; threads within a block run as an
//! in-order loop per kernel invocation. This is exact for the
//! profiled ECL kernels, which are either fully asynchronous
//! (per-thread monotonic updates) or block-synchronous (or-reduction
//! loops); none rely on intra-warp communication.

pub mod atomics;
pub mod check;
pub mod cost;
pub mod ctx;
pub mod device;
pub mod launch;
pub mod observe;
pub mod pool;
pub mod schedule;
pub mod timing;

pub use atomics::{max_is_noop, min_is_noop, CountedU32, CountedU64, CountedU8};
pub use check::{AccessKind, Agent, LaunchShape};
pub use cost::{CostKind, CostParams, CostTally};
pub use device::{Device, DeviceConfig};
pub use launch::{
    launch_blocks, launch_blocks_named, launch_flat, launch_flat_named, launch_persistent,
    launch_persistent_named, launch_warps, launch_warps_named, BlockCtx, LaunchConfig, ThreadCtx,
    WarpCtx,
};
pub use observe::Hooks;
pub use pool::{ticket_range, DispatchPolicy};
pub use schedule::{default_schedule, KnobDomain, KnobSpec, KnobValue, Schedule};
pub use timing::run_timed;
