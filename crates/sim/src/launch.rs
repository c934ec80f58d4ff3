//! Kernel launch primitives.
//!
//! Three launch shapes cover all profiled ECL kernels:
//!
//! - [`launch_flat`]: a grid of blocks, one closure call per thread —
//!   the ordinary data-parallel kernel (`<<<blocks, tpb>>>`). All
//!   launched threads are enumerated, including the out-of-range tail
//!   of the last block, so kernels perform their own bounds check and
//!   can count idle threads exactly as the instrumented CUDA does.
//! - [`launch_persistent`]: one thread per resident hardware slot
//!   (196,608 on the RTX 4090 preset) — ECL-MIS's persistent-thread
//!   round-robin kernel.
//! - [`launch_blocks`]: block-granular execution handing the closure a
//!   [`BlockCtx`], which exposes the block's threads and a charged
//!   block-wide synchronization — ECL-SCC's propagate-until-quiescent
//!   kernels.
//!
//! Blocks are dispatched onto the persistent worker pool
//! ([`crate::pool`]): workers claim block indices off a shared ticket,
//! so a heavy block never strands the rest of the grid behind it, and
//! no threads are spawned per launch. Threads inside a block run
//! in-order within one closure invocation; kernels needing block-wide
//! phases call the closure once per block and loop internally. Blocks
//! run in an unspecified order (possibly sequentially) — the CUDA
//! block-scheduling contract — so kernels must not spin-wait on other
//! blocks.

use ecl_profiling::LaunchSample;

use crate::check::{self, Agent, LaunchShape};
use crate::cost::{CostKind, NUM_KINDS};
use crate::device::Device;
use crate::observe::{self, Hooks, Launch};
use crate::{ctx, pool};

/// Dispatches a launch's blocks onto the pool and, given `before`, the
/// device's units from before the launch charge, builds the launch's
/// profile sample. Without it this is the plain [`pool::dispatch`].
fn dispatch_blocks<F>(
    device: &Device,
    name: &str,
    shape: &'static str,
    cfg: LaunchConfig,
    before: Option<[u64; NUM_KINDS]>,
    f: F,
) -> Option<LaunchSample>
where
    F: Fn(usize) + Sync,
{
    let Some(before) = before else {
        pool::dispatch(cfg.blocks, f);
        return None;
    };
    let started = std::time::Instant::now();
    let workers = pool::dispatch_profiled(cfg.blocks, f);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let after = device.cost().by_kind();
    Some(LaunchSample {
        kernel: name.to_string(),
        shape,
        blocks: cfg.blocks as u64,
        block_size: cfg.block_size as u64,
        wall_ns,
        units: std::array::from_fn(|k| after[k] - before[k]),
        workers,
        req: ctx::request(),
        shard: ctx::shard(),
    })
}

/// Grid dimensions of one launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub block_size: usize,
}

impl LaunchConfig {
    /// A grid of exactly `blocks` blocks of `block_size` threads.
    pub fn new(blocks: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Self { blocks, block_size }
    }

    /// The smallest grid covering `n` elements with one thread each
    /// (the usual `(n + tpb - 1) / tpb` computation).
    pub fn cover(n: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Self { blocks: n.div_ceil(block_size), block_size }
    }

    /// Total threads launched (including the idle tail of the last
    /// block).
    pub fn total_threads(&self) -> usize {
        self.blocks * self.block_size
    }
}

/// Identity of one simulated thread inside a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Global thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub global: usize,
    /// Block id.
    pub block: usize,
    /// Thread index within the block.
    pub lane: usize,
    /// What the device's observers want of this block's counted ops.
    pub hooks: Hooks,
}

/// The launch skeleton every shape shares: charges the launch,
/// brackets the grid with the device's observers' `launch_begin` /
/// `launch_end` and each block with `block_begin` / `block_end`, and
/// scopes the per-OS-thread agent, the published observer list and
/// the block-local cost tally around each block (the tally folds into
/// the device's when the block ends, so before the pool retires the
/// block and the launch join publishes it). `per_block(block, tracked,
/// hooks)` only runs the shape's inner loop, setting the agent it
/// iterates when `tracked` and handing `hooks`, the block's snapshot
/// taken once after the list is published, to the kernel; the agent
/// is cleared before `block_end`. A sampled launch reads the device's
/// tally before its launch charge and again after the join, for the
/// sample's units.
fn run_grid<F>(device: &Device, name: &str, shape: LaunchShape, cfg: LaunchConfig, per_block: F)
where
    F: Fn(usize, bool, Hooks) + Sync,
{
    let observers = device.observers().list();
    let list = observers.as_deref();
    let before = observe::wants_sample(list).then(|| device.cost().by_kind());
    device.charge(CostKind::KernelLaunch, 1);
    let launch = Launch { config: device.config(), name, shape, cfg };
    let tracked = observe::launch_begin(list, &launch);
    let sample = dispatch_blocks(device, name, shape.name(), cfg, before, |block| {
        let _agents = check::AgentScope::enter();
        let _observers = observe::BlockScope::enter(observers.as_ref());
        let _tally = device.cost().open_block();
        observe::block_begin(block as u32, cfg.block_size, tracked);
        per_block(block, tracked, Hooks::current());
        if tracked {
            check::set_agent(None);
        }
        observe::block_end(block as u32, cfg.block_size, tracked);
    });
    observe::launch_end(list, &launch, tracked, sample.as_ref());
}

/// Shared body of the per-thread launch shapes: flat grids and
/// persistent-thread grids differ only in how `cfg` was derived and in
/// the [`LaunchShape`] reported to an installed checker.
fn run_flat<F>(device: &Device, name: &str, shape: LaunchShape, cfg: LaunchConfig, f: F)
where
    F: Fn(ThreadCtx) + Sync,
{
    run_grid(device, name, shape, cfg, |block, tracked, hooks| {
        for lane in 0..cfg.block_size {
            if tracked {
                check::set_agent(Some(Agent::thread(block as u32, lane as u32)));
            }
            f(ThreadCtx { global: block * cfg.block_size + lane, block, lane, hooks });
        }
    });
}

/// Launches `cfg.blocks × cfg.block_size` threads; `f` runs once per
/// thread. Charges one kernel launch to the device. Blocks execute in
/// parallel; threads of a block execute in lane order.
pub fn launch_flat<F>(device: &Device, cfg: LaunchConfig, f: F)
where
    F: Fn(ThreadCtx) + Sync,
{
    run_flat(device, "flat", LaunchShape::Flat, cfg, f);
}

/// [`launch_flat`] with a kernel name reported to the checker (and in
/// `ecl-check` findings).
pub fn launch_flat_named<F>(device: &Device, name: &str, cfg: LaunchConfig, f: F)
where
    F: Fn(ThreadCtx) + Sync,
{
    run_flat(device, name, LaunchShape::Flat, cfg, f);
}

/// Launches one thread per resident hardware slot using the device's
/// default block size — the persistent-thread model of ECL-MIS.
/// Returns the number of threads launched.
pub fn launch_persistent<F>(device: &Device, f: F) -> usize
where
    F: Fn(ThreadCtx) + Sync,
{
    launch_persistent_named(device, "persistent", f)
}

/// [`launch_persistent`] with a kernel name reported to the checker.
pub fn launch_persistent_named<F>(device: &Device, name: &str, f: F) -> usize
where
    F: Fn(ThreadCtx) + Sync,
{
    let n = device.resident_threads();
    let cfg = LaunchConfig::cover(n, device.config().default_block_size);
    run_flat(device, name, LaunchShape::Persistent, cfg, f);
    n
}

/// Block-granular execution context handed to [`launch_blocks`]
/// closures.
pub struct BlockCtx<'a> {
    /// Block id.
    pub block: usize,
    /// Threads in this block.
    pub block_size: usize,
    /// What the device's observers want of this block's counted ops;
    /// a hot loop runs under [`Hooks::unswitch`] of it.
    pub hooks: Hooks,
    device: &'a Device,
}

impl BlockCtx<'_> {
    /// The threads of this block, in lane order.
    pub fn threads(&self) -> impl Iterator<Item = ThreadCtx> + '_ {
        let (block, bs, hooks) = (self.block, self.block_size, self.hooks);
        (0..bs).map(move |lane| ThreadCtx { global: block * bs + lane, block, lane, hooks })
    }

    /// One block-wide synchronization round: every thread of the block
    /// participates, so the device is charged `block_size` sync units.
    /// This is the cost §6.2.1 attributes to oversized blocks ("even a
    /// single active thread keeps the entire block alive, forcing many
    /// idle threads to participate in block-wide synchronizations").
    pub fn sync(&self) {
        self.device.charge(CostKind::BlockSync, self.block_size as u64);
        observe::block_sync(self.block_size as u64);
    }

    /// One *lane's* arrival at a block-wide barrier: charges a single
    /// sync unit and reports the lane to an installed checker, which
    /// verifies that every lane of the block reaches the barrier the
    /// same number of times (`__syncthreads()` inside a divergent
    /// branch is undefined behavior on real hardware — the
    /// `divergent-sync` lint). Kernels that iterate lanes explicitly
    /// call this once per lane instead of one [`BlockCtx::sync`].
    pub fn lane_sync(&self, t: ThreadCtx) {
        debug_assert_eq!(t.block, self.block, "lane_sync from a foreign block");
        self.device.charge(CostKind::BlockSync, 1);
        observe::lane_sync(t.lane as u32);
    }

    /// The device this block runs on (for cost charges from kernel
    /// code).
    pub fn device(&self) -> &Device {
        self.device
    }
}

/// Launches `cfg.blocks` blocks; `f` runs once per block with a
/// [`BlockCtx`]. Charges one kernel launch. Blocks run on the
/// dispatch pool ([`pool::dispatch`]).
pub fn launch_blocks<F>(device: &Device, cfg: LaunchConfig, f: F)
where
    F: Fn(BlockCtx<'_>) + Sync,
{
    launch_blocks_named(device, "blocks", cfg, f);
}

/// [`launch_blocks`] with a kernel name reported to the checker. The
/// race agent is the whole block: lanes of a block execute in-order
/// inside one closure call and cannot race each other.
pub fn launch_blocks_named<F>(device: &Device, name: &str, cfg: LaunchConfig, f: F)
where
    F: Fn(BlockCtx<'_>) + Sync,
{
    // Out of line: the body runs once per block and carries the
    // kernel's own loops, which lose registers to the skeleton's live
    // values when the two are compiled as one function.
    run_grid(
        device,
        name,
        LaunchShape::Blocks,
        cfg,
        #[inline(never)]
        |block, tracked, hooks| {
            if tracked {
                check::set_agent(Some(Agent::block_wide(block as u32)));
            }
            f(BlockCtx { block, block_size: cfg.block_size, hooks, device });
        },
    );
}

/// One warp of a warp-synchronous launch.
#[derive(Clone, Copy, Debug)]
pub struct WarpCtx {
    /// Global warp index.
    pub warp: usize,
    /// Block this warp belongs to.
    pub block: usize,
    /// Global thread id of lane 0.
    pub base: usize,
    /// Number of live lanes (the device's warp size, except possibly
    /// in the last warp of a block).
    pub lanes: usize,
    /// What the device's observers want of this block's counted ops.
    pub hooks: Hooks,
    /// Global thread id of the block's first thread.
    block_base: usize,
}

impl WarpCtx {
    /// The thread context of `lane`.
    pub fn thread(&self, lane: usize) -> ThreadCtx {
        debug_assert!(lane < self.lanes);
        let global = self.base + lane;
        ThreadCtx { global, block: self.block, lane: global - self.block_base, hooks: self.hooks }
    }
}

/// Warp-synchronous launch: `f` runs once per warp and typically
/// iterates its lanes in *phases* — all lanes complete phase 1 before
/// any lane runs phase 2, which is the SIMT lockstep CUDA guarantees
/// within a warp. Kernels whose profiled behavior depends on the
/// check-to-atomic race window (ECL-MST's election, §6.1.4) need this
/// launch shape; fully independent threads should prefer
/// [`launch_flat`].
pub fn launch_warps<F>(device: &Device, cfg: LaunchConfig, f: F)
where
    F: Fn(WarpCtx) + Sync,
{
    launch_warps_named(device, "warps", cfg, f);
}

/// [`launch_warps`] with a kernel name reported to the checker. The
/// race agent is the warp: lanes of a warp run lockstep inside one
/// closure call.
pub fn launch_warps_named<F>(device: &Device, name: &str, cfg: LaunchConfig, f: F)
where
    F: Fn(WarpCtx) + Sync,
{
    let warp_size = device.config().warp_size.max(1);
    run_grid(device, name, LaunchShape::Warps, cfg, |block, tracked, hooks| {
        let block_base = block * cfg.block_size;
        let mut offset = 0usize;
        let mut warp_in_block = 0usize;
        while offset < cfg.block_size {
            let lanes = warp_size.min(cfg.block_size - offset);
            if tracked {
                check::set_agent(Some(Agent::warp(block as u32, warp_in_block as u32)));
            }
            f(WarpCtx {
                warp: block * cfg.block_size.div_ceil(warp_size) + warp_in_block,
                block,
                base: block_base + offset,
                lanes,
                hooks,
                block_base,
            });
            offset += lanes;
            warp_in_block += 1;
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn cover_rounds_up() {
        let cfg = LaunchConfig::cover(100, 32);
        assert_eq!(cfg.blocks, 4);
        assert_eq!(cfg.total_threads(), 128);
        assert_eq!(LaunchConfig::cover(0, 32).blocks, 0);
        assert_eq!(LaunchConfig::cover(32, 32).blocks, 1);
        assert_eq!(LaunchConfig::cover(33, 32).blocks, 2);
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_size_rejected() {
        LaunchConfig::cover(10, 0);
    }

    #[test]
    fn flat_launch_runs_every_thread_once() {
        let d = Device::test_small();
        let cfg = LaunchConfig::new(7, 13);
        let count = AtomicUsize::new(0);
        let sum = AtomicU64::new(0);
        launch_flat(&d, cfg, |t| {
            count.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(t.global as u64, Ordering::Relaxed);
        });
        let n = cfg.total_threads();
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
        assert_eq!(d.cost().units(CostKind::KernelLaunch), 1);
    }

    #[test]
    fn thread_ctx_identity() {
        let d = Device::test_small();
        launch_flat(&d, LaunchConfig::new(3, 4), |t| {
            assert_eq!(t.global, t.block * 4 + t.lane);
            assert!(t.lane < 4);
            assert!(t.block < 3);
        });
    }

    #[test]
    fn persistent_launch_covers_resident_threads() {
        let d = Device::test_small();
        let seen = AtomicUsize::new(0);
        let n = launch_persistent(&d, |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n, d.resident_threads());
        // cover() may round launched threads up to a full last block.
        assert!(seen.load(Ordering::Relaxed) >= n);
    }

    #[test]
    fn block_launch_hands_each_block_once() {
        let d = Device::test_small();
        let blocks_seen = AtomicUsize::new(0);
        let threads_seen = AtomicUsize::new(0);
        launch_blocks(&d, LaunchConfig::new(5, 8), |b| {
            blocks_seen.fetch_add(1, Ordering::Relaxed);
            threads_seen.fetch_add(b.threads().count(), Ordering::Relaxed);
            b.sync();
        });
        assert_eq!(blocks_seen.load(Ordering::Relaxed), 5);
        assert_eq!(threads_seen.load(Ordering::Relaxed), 40);
        // 5 blocks × 8 threads each crossed one barrier.
        assert_eq!(d.cost().units(CostKind::BlockSync), 40);
    }

    #[test]
    fn block_ctx_thread_ids_are_global() {
        let d = Device::test_small();
        launch_blocks(&d, LaunchConfig::new(2, 4), |b| {
            for t in b.threads() {
                assert_eq!(t.global, b.block * 4 + t.lane);
                assert_eq!(t.block, b.block);
            }
        });
    }

    #[test]
    fn empty_grid_is_a_noop_launch() {
        let d = Device::test_small();
        launch_flat(&d, LaunchConfig::new(0, 32), |_| panic!("no threads expected"));
        assert_eq!(d.cost().units(CostKind::KernelLaunch), 1);
    }

    #[test]
    fn warp_launch_covers_all_threads_in_warp_chunks() {
        let d = Device::test_small(); // warp size 32
        let cfg = LaunchConfig::new(3, 80); // 80 = 32 + 32 + 16
        let covered = AtomicUsize::new(0);
        let warps_seen = AtomicUsize::new(0);
        launch_warps(&d, cfg, |w| {
            warps_seen.fetch_add(1, Ordering::Relaxed);
            assert!(w.lanes == 32 || w.lanes == 16, "lanes {}", w.lanes);
            covered.fetch_add(w.lanes, Ordering::Relaxed);
            for lane in 0..w.lanes {
                let t = w.thread(lane);
                assert_eq!(t.global, w.base + lane);
                assert_eq!(t.block, w.block);
                assert_eq!(t.lane, t.global - t.block * cfg.block_size);
            }
        });
        assert_eq!(covered.load(Ordering::Relaxed), 240);
        assert_eq!(warps_seen.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn warp_launch_phases_are_lockstep_within_warp() {
        // A warp-synchronous counter: each warp's lanes all read the
        // same snapshot in phase 1, then all add in phase 2 — the sum
        // must reflect per-warp (not per-lane) increments of the
        // shared cell.
        let d = Device::test_small();
        let cell = AtomicU64::new(0);
        launch_warps(&d, LaunchConfig::new(1, 64), |w| {
            let snapshot = cell.load(Ordering::Relaxed);
            let mut pending = 0u64;
            for _lane in 0..w.lanes {
                if snapshot < 100 {
                    pending += 1;
                }
            }
            cell.fetch_add(pending, Ordering::Relaxed);
        });
        // Both 32-lane warps saw snapshot < 100: 64 total.
        assert_eq!(cell.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn device_charge_from_kernel_code() {
        let d = Device::test_small();
        launch_blocks(&d, LaunchConfig::new(2, 2), |b| {
            b.device().charge(CostKind::ThreadWork, 3);
        });
        assert_eq!(d.cost().units(CostKind::ThreadWork), 6);
    }

    /// What simulated thread `global` charges in the fold tests: a
    /// different mix per thread, so a lost or doubled block shows.
    fn charge_as(d: &Device, global: usize) {
        d.charge(CostKind::ThreadWork, global as u64 % 3 + 1);
        if global.is_multiple_of(2) {
            d.charge(CostKind::Atomic, 1);
        } else {
            d.charge(CostKind::IdleCheck, 2);
        }
    }

    #[test]
    fn every_launch_shape_folds_exactly_what_its_blocks_charged() {
        use crate::pool::{with_policy, DispatchPolicy};
        /// Launches on the device; returns the threads launched.
        type Shape = fn(&Device, LaunchConfig) -> usize;
        // Two warps per block: 32 + 8 lanes.
        let cfg = LaunchConfig::new(9, 40);
        let shapes: [(&str, Shape); 4] = [
            ("flat", |d, cfg| {
                launch_flat(d, cfg, |t| charge_as(d, t.global));
                cfg.total_threads()
            }),
            ("persistent", |d, _| {
                // The grid rounds the resident threads up to whole blocks.
                let n = launch_persistent(d, |t| charge_as(d, t.global));
                LaunchConfig::cover(n, d.config().default_block_size).total_threads()
            }),
            ("blocks", |d, cfg| {
                launch_blocks(d, cfg, |b| {
                    b.threads().for_each(|t| charge_as(d, t.global));
                    b.sync();
                });
                cfg.total_threads()
            }),
            ("warps", |d, cfg| {
                launch_warps(d, cfg, |w| {
                    (0..w.lanes).for_each(|l| charge_as(d, w.thread(l).global))
                });
                cfg.total_threads()
            }),
        ];
        for workers in [1, 2, 4] {
            for (shape, launch) in shapes {
                let d = Device::test_small();
                d.charge(CostKind::HostReconfig, 1);
                let launched = with_policy(DispatchPolicy::pooled(workers), || launch(&d, cfg));
                let reference = Device::test_small();
                (0..launched).for_each(|global| charge_as(&reference, global));
                let expect = |kind| match kind {
                    CostKind::KernelLaunch | CostKind::HostReconfig => 1,
                    CostKind::BlockSync if shape == "blocks" => cfg.total_threads() as u64,
                    _ => reference.cost().units(kind),
                };
                for (kind, units) in d.cost().breakdown() {
                    assert_eq!(units, expect(kind), "{shape} at {workers} workers: {kind:?}");
                }
            }
        }
    }

    #[test]
    fn a_charge_to_another_device_from_inside_a_block_lands_at_once() {
        let a = Device::test_small();
        let b = Device::test_small();
        launch_flat(&a, LaunchConfig::new(3, 2), |t| {
            let before = b.cost().units(CostKind::Atomic);
            a.charge(CostKind::ThreadWork, 1);
            b.charge(CostKind::Atomic, 1);
            // Other blocks may charge `b` concurrently; this thread's
            // own charge is there the moment it returns.
            assert!(b.cost().units(CostKind::Atomic) > before, "thread {}", t.global);
        });
        assert_eq!(a.cost().units(CostKind::ThreadWork), 6);
        assert_eq!(a.cost().units(CostKind::Atomic), 0);
        assert_eq!(b.cost().units(CostKind::Atomic), 6);
        assert_eq!(b.cost().units(CostKind::KernelLaunch), 0);
    }

    /// Keeps the samples of its device's launches.
    struct Samples(std::sync::Mutex<Vec<LaunchSample>>);

    impl crate::observe::Observer for Samples {
        fn wants(&self) -> crate::observe::Wants {
            crate::observe::Wants { samples: true, ..Default::default() }
        }
        fn launch_end(&self, _: &Launch<'_>, _: bool, sample: Option<&LaunchSample>) {
            self.0.lock().unwrap().push(sample.unwrap().clone());
        }
    }

    impl Samples {
        /// A sampler attached to `d` until the guard drops.
        fn on(d: &Device) -> (std::sync::Arc<Samples>, crate::observe::Attached<'_>) {
            let samples = std::sync::Arc::new(Samples(Default::default()));
            let attached = d.observe(samples.clone());
            (samples, attached)
        }

        fn units(&self) -> Vec<[u64; NUM_KINDS]> {
            self.0.lock().unwrap().iter().map(|s| s.units).collect()
        }
    }

    #[test]
    fn a_launch_issued_from_inside_a_block_keeps_both_tallies() {
        // The inner launch runs inline on the thread that is inside
        // the outer block, so the two scopes nest on one thread.
        for sampled in [false, true] {
            let outer = Device::test_small();
            let inner = Device::test_small();
            let on_outer = sampled.then(|| Samples::on(&outer));
            let on_inner = sampled.then(|| Samples::on(&inner));
            crate::pool::with_policy(crate::pool::DispatchPolicy::sequential(), || {
                launch_flat(&outer, LaunchConfig::new(2, 1), |_| {
                    outer.charge(CostKind::ThreadWork, 1);
                    launch_flat(&inner, LaunchConfig::new(2, 2), |_| {
                        inner.charge(CostKind::ThreadWork, 1);
                        outer.charge(CostKind::IdleCheck, 1);
                    });
                    launch_flat(&outer, LaunchConfig::new(1, 1), |_| {
                        outer.charge(CostKind::Atomic, 1);
                    });
                    outer.charge(CostKind::ThreadWork, 1);
                });
            });
            assert_eq!(outer.cost().by_kind(), [4, 8, 2, 0, 3, 0], "sampled: {sampled}");
            assert_eq!(inner.cost().by_kind(), [8, 0, 0, 0, 2, 0], "sampled: {sampled}");
            let (Some((outer_samples, _)), Some((inner_samples, _))) = (on_outer, on_inner) else {
                continue;
            };
            // Each launch on another device is exact. A launch nested
            // in a block of its own device holds its block's units but
            // not its launch charge, which folds with the enclosing
            // block; the enclosing launch holds everything.
            assert_eq!(inner_samples.units(), [[4, 0, 0, 0, 1, 0]; 2]);
            let nested = [0, 0, 1, 0, 0, 0];
            assert_eq!(outer_samples.units(), [nested, nested, outer.cost().by_kind()]);
        }
    }

    #[test]
    fn profiling_sink_sees_every_launch_shape() {
        let d = Device::test_small();
        let (samples, attached) = Samples::on(&d);
        let mut deltas = Vec::new();
        let mut delta = |launch: &dyn Fn()| {
            let before = d.cost().by_kind();
            launch();
            let after = d.cost().by_kind();
            deltas.push(std::array::from_fn::<u64, NUM_KINDS, _>(|k| after[k] - before[k]));
        };
        delta(&|| {
            launch_flat_named(&d, "prof-flat", LaunchConfig::new(4, 8), |t| charge_as(&d, t.global))
        });
        delta(&|| {
            launch_blocks_named(&d, "prof-blocks", LaunchConfig::new(3, 8), |b| {
                b.threads().for_each(|t| charge_as(&d, t.global));
                b.sync();
            })
        });
        delta(&|| {
            launch_warps_named(&d, "prof-warps", LaunchConfig::new(2, 64), |w| {
                (0..w.lanes).for_each(|l| charge_as(&d, w.thread(l).global))
            })
        });
        delta(&|| {
            launch_persistent_named(&d, "prof-persistent", |t| charge_as(&d, t.global));
        });
        // A launch on another device is not this observer's.
        launch_flat_named(&Device::test_small(), "other", LaunchConfig::new(1, 1), |_| {});
        drop(attached);
        // Launches after detaching are not sampled.
        launch_flat_named(&d, "prof-flat", LaunchConfig::new(4, 8), |_| {});

        let got = samples.0.lock().unwrap();
        let seen: Vec<_> =
            got.iter().map(|s| (s.kernel.as_str(), s.shape, s.blocks, s.block_size)).collect();
        assert_eq!(
            seen,
            [
                ("prof-flat", "flat", 4, 8),
                ("prof-blocks", "blocks", 3, 8),
                ("prof-warps", "warps", 2, 64),
                ("prof-persistent", "persistent", 8, 32),
            ]
        );
        // Each sample's units are the device's cost delta over its launch.
        let units: Vec<_> = got.iter().map(|s| s.units).collect();
        assert_eq!(units, deltas);
        // Participant accounting covered every block of each launch.
        for s in got.iter() {
            assert_eq!(s.workers.iter().map(|w| w.blocks).sum::<u64>(), s.blocks, "{}", s.kernel);
            assert!((0.0..=1.0).contains(&s.utilization()));
        }
    }
}
