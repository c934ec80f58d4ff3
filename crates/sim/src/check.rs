//! Checker hooks: the seam `ecl-check` plugs into.
//!
//! The simulator reports four things to an installed [`CheckSink`]:
//! kernel-launch boundaries (with name, shape and [`LaunchConfig`]),
//! every counted-atomic cell access (address, width, read / write /
//! atomic), cost charges attributed to the executing agent, and
//! barrier participation. From those a checker can rebuild per-launch
//! shadow memory and launch statistics without the simulator knowing
//! anything about races or lint rules.
//!
//! The plumbing is a `static` [`Sink`] (see [`ecl_profiling::sink`]):
//! one relaxed `AtomicBool` load on the hot path when no checker is
//! installed, an acquire load of a retired-never-freed pointer when
//! one is. Which launches are
//! *tracked* is the sink's decision — [`CheckSink::launch_begin`]
//! returns `false` for devices it does not watch, and untracked
//! launches never set the thread-local agent, so their accesses are
//! invisible. Host-side code (no launch in progress on the calling
//! thread) has no agent either and is likewise skipped: only work
//! attributable to a simulated thread participates in race and lint
//! analysis.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use ecl_profiling::Sink;

use crate::cost::CostKind;
use crate::device::{Device, DeviceConfig};
use crate::launch::LaunchConfig;

/// The execution granularity of a launch, as seen by the checker.
///
/// Race agents match what can actually interleave in the simulator:
/// per-lane for flat grids, per-block for [`crate::launch_blocks`]
/// (lanes of a block run in-order inside one closure call, so they
/// cannot race each other), per-warp for [`crate::launch_warps`].
/// `Persistent` grids are exempt from the over-launch lint — sizing
/// the grid to the hardware rather than the input is their point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaunchShape {
    /// One closure call per thread ([`crate::launch_flat`]).
    Flat,
    /// One thread per resident hardware slot
    /// ([`crate::launch_persistent`]).
    Persistent,
    /// Block-granular closure ([`crate::launch_blocks`]).
    Blocks,
    /// Warp-synchronous phases ([`crate::launch_warps`]).
    Warps,
}

impl LaunchShape {
    /// Lower-case rule-report name.
    pub fn name(self) -> &'static str {
        match self {
            LaunchShape::Flat => "flat",
            LaunchShape::Persistent => "persistent",
            LaunchShape::Blocks => "blocks",
            LaunchShape::Warps => "warps",
        }
    }
}

/// Classification of one counted-atomic cell access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain relaxed load (`CountedU32::load` — a plain CUDA read).
    Read,
    /// Plain relaxed store (`CountedU32::store` — a plain CUDA write).
    Write,
    /// A true atomic RMW that changed the cell (successful CAS,
    /// effective min/max). Exempt from race analysis.
    AtomicUpdated,
    /// A true atomic RMW that left the cell unchanged (failed CAS,
    /// ineffective min/max). Exempt from race analysis.
    AtomicNoEffect,
}

impl AccessKind {
    /// Whether the access was a hardware atomic (and therefore exempt
    /// from the race rules).
    pub fn is_atomic(self) -> bool {
        matches!(self, AccessKind::AtomicUpdated | AccessKind::AtomicNoEffect)
    }
}

/// Lane id of a block-granular agent.
const BLOCK_AGENT_LANE: u32 = u32::MAX;
/// Base lane id of warp-granular agents (`base + warp_in_block`).
const WARP_AGENT_BASE: u32 = 0x8000_0000;

/// The smallest schedulable unit a memory access is attributed to:
/// a (block, lane) pair, with sentinel lanes for block- and
/// warp-granular launches where whole blocks / warps are the unit of
/// interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Agent {
    /// Block id within the launch.
    pub block: u32,
    /// Lane within the block, or a sentinel for coarser granularity.
    pub lane: u32,
}

impl Agent {
    /// A per-thread agent (flat / persistent launches).
    pub fn thread(block: u32, lane: u32) -> Self {
        Self { block, lane }
    }

    /// A block-granular agent ([`crate::launch_blocks`]).
    pub fn block_wide(block: u32) -> Self {
        Self { block, lane: BLOCK_AGENT_LANE }
    }

    /// A warp-granular agent ([`crate::launch_warps`]).
    pub fn warp(block: u32, warp_in_block: u32) -> Self {
        Self { block, lane: WARP_AGENT_BASE + warp_in_block }
    }
}

impl fmt::Display for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lane == BLOCK_AGENT_LANE {
            write!(f, "b{}", self.block)
        } else if self.lane >= WARP_AGENT_BASE {
            write!(f, "b{}/w{}", self.block, self.lane - WARP_AGENT_BASE)
        } else {
            write!(f, "b{}/t{}", self.block, self.lane)
        }
    }
}

/// Receiver for checker hooks. Implemented by `ecl-check`; the
/// simulator only ever talks to this trait.
pub trait CheckSink: Send + Sync {
    /// A kernel launch is starting on `device` (an opaque identity —
    /// see [`device_id`]). Returns whether the sink wants this launch
    /// tracked; untracked launches produce no further hook calls.
    fn launch_begin(
        &self,
        device: usize,
        config: DeviceConfig,
        name: &str,
        shape: LaunchShape,
        cfg: LaunchConfig,
    ) -> bool;

    /// A tracked launch completed (all blocks joined).
    fn launch_end(&self, device: usize);

    /// A counted-atomic cell access by `agent` during a tracked launch.
    fn access(&self, addr: usize, size: usize, kind: AccessKind, agent: Agent);

    /// A cost charge issued by `agent` during a tracked launch.
    fn charge(&self, kind: CostKind, units: u64, agent: Agent);

    /// A block-wide synchronization round (`BlockCtx::sync`) with
    /// `participants` charged thread slots.
    fn block_sync(&self, agent: Agent, participants: u64);

    /// One lane arrived at a per-lane barrier (`BlockCtx::lane_sync`).
    fn lane_sync(&self, agent: Agent, lane: u32);

    /// A tracked block finished executing.
    fn block_end(&self, block: u32, block_size: usize);
}

static SINK: Sink<Arc<dyn CheckSink>> = Sink::new();

thread_local! {
    static AGENT: Cell<Option<Agent>> = const { Cell::new(None) };
}

/// The identity launches report for a device: its address. Stable for
/// the lifetime of the borrow a checker holds on the device.
pub fn device_id(device: &Device) -> usize {
    device as *const Device as usize
}

/// Installs `sink` as the process-global checker and enables hooks.
/// Replaces (and retires) any previously installed sink.
pub fn install(sink: Arc<dyn CheckSink>) {
    SINK.install(Arc::new(sink));
}

/// Disables hooks and detaches the sink (retiring its storage).
pub fn uninstall() {
    SINK.uninstall();
}

/// Whether a checker is installed. One relaxed load — the hot-path
/// guard every hook starts with.
#[inline(always)]
pub fn is_enabled() -> bool {
    SINK.is_enabled()
}

#[inline(always)]
fn with_sink<R>(f: impl FnOnce(&dyn CheckSink) -> R) -> Option<R> {
    SINK.get().map(|s| f(s.as_ref()))
}

/// The agent currently executing on this thread, if a tracked launch
/// is in progress.
pub fn current_agent() -> Option<Agent> {
    AGENT.with(|a| a.get())
}

pub(crate) fn set_agent(agent: Option<Agent>) {
    AGENT.with(|a| a.set(agent));
}

/// Launch-boundary guard for the per-OS-thread agent state.
///
/// Pooled workers survive launches, so the thread-local agent must be
/// cleared at every block *entry* (a previous launch that unwound
/// mid-block would otherwise leave its agent installed, attributing
/// the next launch's — possibly untracked — accesses to a stale
/// agent) and again on *exit*, including panic unwinds: the `Drop`
/// impl runs while the pool's `catch_unwind` is draining the block.
pub(crate) struct AgentScope;

impl AgentScope {
    /// Clears any stale agent left on this OS thread and returns the
    /// guard that re-clears on scope exit.
    pub(crate) fn enter() -> Self {
        set_agent(None);
        AgentScope
    }
}

impl Drop for AgentScope {
    fn drop(&mut self) {
        set_agent(None);
    }
}

pub(crate) fn launch_begin(
    device: &Device,
    name: &str,
    shape: LaunchShape,
    cfg: LaunchConfig,
) -> bool {
    with_sink(|s| s.launch_begin(device_id(device), *device.config(), name, shape, cfg))
        .unwrap_or(false)
}

pub(crate) fn launch_end(device: &Device, tracked: bool) {
    if tracked {
        with_sink(|s| s.launch_end(device_id(device)));
    }
}

pub(crate) fn block_end(block: u32, block_size: usize) {
    with_sink(|s| s.block_end(block, block_size));
}

/// Reports one counted-atomic access. Skipped unless a checker is
/// installed *and* the calling thread is an agent of a tracked launch
/// (host-side accesses are not race candidates).
#[inline(always)]
pub(crate) fn on_access(addr: usize, size: usize, kind: AccessKind) {
    if is_enabled() {
        access_slow(addr, size, kind);
    }
}

#[cold]
fn access_slow(addr: usize, size: usize, kind: AccessKind) {
    if let Some(agent) = current_agent() {
        with_sink(|s| s.access(addr, size, kind, agent));
    }
}

/// Reports one cost charge (same gating as [`on_access`]).
#[inline(always)]
pub(crate) fn on_charge(kind: CostKind, units: u64) {
    if is_enabled() {
        charge_slow(kind, units);
    }
}

#[cold]
fn charge_slow(kind: CostKind, units: u64) {
    if let Some(agent) = current_agent() {
        with_sink(|s| s.charge(kind, units, agent));
    }
}

#[inline(always)]
pub(crate) fn on_block_sync(participants: u64) {
    if is_enabled() {
        if let Some(agent) = current_agent() {
            with_sink(|s| s.block_sync(agent, participants));
        }
    }
}

#[inline(always)]
pub(crate) fn on_lane_sync(lane: u32) {
    if is_enabled() {
        if let Some(agent) = current_agent() {
            with_sink(|s| s.lane_sync(agent, lane));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;
    use crate::atomics::atomic_u32_array;
    use crate::launch::{launch_blocks_named, launch_flat_named, launch_warps_named};
    use std::sync::Mutex as StdMutex;

    /// Logs every hook call of launches on `device`, one line each.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub(crate) device: usize,
        pub(crate) calls: StdMutex<Vec<String>>,
    }

    impl Recorder {
        fn log(&self, s: String) {
            self.calls.lock().unwrap().push(s);
        }
    }

    impl CheckSink for Recorder {
        fn launch_begin(
            &self,
            device: usize,
            _config: DeviceConfig,
            name: &str,
            shape: LaunchShape,
            cfg: LaunchConfig,
        ) -> bool {
            if device != self.device {
                return false;
            }
            self.log(format!("begin {name} {} {}x{}", shape.name(), cfg.blocks, cfg.block_size));
            true
        }
        fn launch_end(&self, _device: usize) {
            self.log("end".into());
        }
        fn access(&self, _addr: usize, size: usize, kind: AccessKind, agent: Agent) {
            self.log(format!("access {kind:?} {size} {agent}"));
        }
        fn charge(&self, kind: CostKind, units: u64, agent: Agent) {
            self.log(format!("charge {kind:?} {units} {agent}"));
        }
        fn block_sync(&self, agent: Agent, participants: u64) {
            self.log(format!("sync {agent} {participants}"));
        }
        fn lane_sync(&self, agent: Agent, lane: u32) {
            self.log(format!("lane-sync {agent} {lane}"));
        }
        fn block_end(&self, block: u32, block_size: usize) {
            self.log(format!("block-end {block} {block_size}"));
        }
    }

    // The sink is process-global, so (like the trace sink's tests)
    // everything shares one #[test] body, serialized with the crate's
    // other sink-installing tests, to avoid interference under the
    // parallel runner. Launches from *other* concurrently running
    // sim tests hit `launch_begin` with a different device id and are
    // rejected, so they cannot pollute the recording.
    #[test]
    fn hook_lifecycle_and_agent_identity() {
        let _serial = crate::lock_global_sinks();
        assert!(!is_enabled());
        assert!(current_agent().is_none());

        let d = Device::test_small();
        let rec = Arc::new(Recorder { device: device_id(&d), ..Default::default() });
        install(rec.clone());
        assert!(is_enabled());

        // Flat launch: per-lane agents; loads/stores visible.
        let cells = atomic_u32_array(4, |_| 0);
        launch_flat_named(&d, "t.flat", LaunchConfig::new(2, 2), |t| {
            cells[t.global].store(t.global as u32);
        });
        {
            let calls = rec.calls.lock().unwrap();
            assert!(calls.iter().any(|c| c == "begin t.flat flat 2x2"), "{calls:?}");
            assert!(calls.iter().any(|c| c == "access Write 4 b0/t1"), "{calls:?}");
            assert!(calls.iter().any(|c| c == "access Write 4 b1/t0"), "{calls:?}");
            assert!(calls.iter().any(|c| c.starts_with("block-end 1")), "{calls:?}");
            assert_eq!(calls.iter().filter(|c| *c == "end").count(), 1);
            // The launch itself charges KernelLaunch host-side (no
            // agent) — must NOT be attributed.
            assert!(!calls.iter().any(|c| c.contains("KernelLaunch")), "{calls:?}");
        }
        rec.calls.lock().unwrap().clear();

        // Block launch: block-wide agents, sync reported.
        launch_blocks_named(&d, "t.blocks", LaunchConfig::new(2, 4), |b| {
            cells[b.block].fetch_min(0, None);
            b.sync();
        });
        {
            let calls = rec.calls.lock().unwrap();
            assert!(calls.iter().any(|c| c == "begin t.blocks blocks 2x4"), "{calls:?}");
            assert!(calls.iter().any(|c| c == "access AtomicUpdated 4 b1"), "{calls:?}");
            assert!(calls.iter().any(|c| c == "sync b0 4"), "{calls:?}");
        }
        rec.calls.lock().unwrap().clear();

        // Warp launch: warp-granular agents.
        launch_warps_named(&d, "t.warps", LaunchConfig::new(1, 64), |w| {
            cells[w.block].load();
            let _ = w.lanes;
        });
        {
            let calls = rec.calls.lock().unwrap();
            assert!(calls.iter().any(|c| c == "access Read 4 b0/w0"), "{calls:?}");
            assert!(calls.iter().any(|c| c == "access Read 4 b0/w1"), "{calls:?}");
        }

        // A launch on a different device is rejected and leaves no
        // agent behind.
        let other = Device::test_small();
        rec.calls.lock().unwrap().clear();
        launch_flat_named(&other, "t.other", LaunchConfig::new(1, 1), |_| {
            assert!(current_agent().is_none());
            cells[0].store(7);
        });
        assert!(rec.calls.lock().unwrap().is_empty());

        // Host-side accesses (no launch) are never reported.
        cells[0].store(9);
        assert!(rec.calls.lock().unwrap().is_empty());

        uninstall();
        assert!(!is_enabled());
        launch_flat_named(&d, "t.after", LaunchConfig::new(1, 1), |_| {});
        assert!(rec.calls.lock().unwrap().is_empty());
    }

    #[test]
    fn agent_display() {
        assert_eq!(Agent::thread(3, 7).to_string(), "b3/t7");
        assert_eq!(Agent::block_wide(12).to_string(), "b12");
        assert_eq!(Agent::warp(2, 5).to_string(), "b2/w5");
        assert!(Agent::warp(0, 0) != Agent::block_wide(0));
    }
}
