//! What an access is attributed to: launch shapes, access kinds and
//! the per-thread [`Agent`] the checker's race and lint analysis keys
//! on.
//!
//! Which launches are *tracked* is the observers' decision
//! ([`crate::observe::Observer::launch_begin`]): `ecl-check` tracks
//! every launch of the device it is attached to. Untracked launches never
//! set the thread-local agent, so the access, charge and sync hooks
//! carry no agent for them. Host-side code (no launch in progress on
//! the calling thread) has no agent either: only work attributable to
//! a simulated thread participates in race and lint analysis.

use std::cell::Cell;
use std::fmt;

use ecl_profiling::AtomicOutcome;

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
    /// An atomic min/max that left the cell unchanged. Exempt from
    /// race analysis.
    AtomicNoEffect,
    /// An `atomicCAS` that found an unexpected value. Exempt from race
    /// analysis; kept apart from [`AccessKind::AtomicNoEffect`] because
    /// the paper (and the trace) count the two outcomes separately.
    AtomicCasFailed,
}

impl AccessKind {
    /// Whether the access was a hardware atomic (and therefore exempt
    /// from the race rules).
    pub fn is_atomic(self) -> bool {
        !matches!(self, AccessKind::Read | AccessKind::Write)
    }
}

/// The access kind observers see for an RMW outcome. All three are
/// atomic (race-exempt) kinds; the split lets lint rules count
/// *effective* updates and the trace keep failed CASes apart.
impl From<AtomicOutcome> for AccessKind {
    fn from(outcome: AtomicOutcome) -> Self {
        match outcome {
            AtomicOutcome::Updated => AccessKind::AtomicUpdated,
            AtomicOutcome::NoEffect => AccessKind::AtomicNoEffect,
            AtomicOutcome::CasFailed => AccessKind::AtomicCasFailed,
        }
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

thread_local! {
    static AGENT: Cell<Option<Agent>> = const { Cell::new(None) };
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use ecl_profiling::LaunchSample;

    use crate::atomics::atomic_u32_array;
    use crate::cost::CostKind;
    use crate::device::Device;
    use crate::launch::{
        launch_blocks_named, launch_flat_named, launch_persistent_named, launch_warps_named,
        LaunchConfig,
    };
    use crate::observe::{self, Hooks, Launch, Observer, Wants};
    use crate::pool::{with_policy, DispatchPolicy};

    /// Logs every hook call it receives, one line each, and tracks
    /// every launch of the device it is attached to.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub(crate) calls: Mutex<Vec<String>>,
    }

    impl Recorder {
        fn log(&self, s: String) {
            self.calls.lock().unwrap().push(s);
        }

        pub(crate) fn take(&self) -> Vec<String> {
            std::mem::take(&mut *self.calls.lock().unwrap())
        }
    }

    impl Observer for Recorder {
        fn wants(&self) -> Wants {
            Wants { blocks: true, accesses: true, charges: true, samples: true, ..Wants::default() }
        }
        fn launch_begin(&self, l: &Launch<'_>) -> bool {
            let (name, shape, cfg) = (l.name, l.shape.name(), l.cfg);
            self.log(format!("begin {name} {shape} {}x{}", cfg.blocks, cfg.block_size));
            true
        }
        fn launch_end(&self, l: &Launch<'_>, tracked: bool, sample: Option<&LaunchSample>) {
            let sample = sample.map_or("none", |s| s.kernel.as_str());
            self.log(format!("end {} tracked={tracked} sample={sample}", l.name));
        }
        fn block_begin(&self, block: u32, block_size: usize, tracked: bool) {
            if tracked {
                self.log(format!("block-begin {block} {block_size}"));
            }
        }
        fn block_end(&self, block: u32, block_size: usize, tracked: bool) {
            if tracked {
                self.log(format!("block-end {block} {block_size}"));
            }
        }
        fn access(&self, _addr: usize, size: usize, kind: AccessKind, agent: Option<Agent>) {
            if let Some(agent) = agent {
                self.log(format!("access {kind:?} {size} {agent}"));
            }
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
        fn phase_start(&self, name: &str) {
            self.log(format!("phase-start {name}"));
        }
        fn phase_end(&self, name: &str) {
            self.log(format!("phase-end {name}"));
        }
        fn round(&self, n: u32) {
            self.log(format!("round {n}"));
        }
        fn check_finding(&self, block: u32, rule: u32) {
            self.log(format!("finding {block} {rule}"));
        }
    }

    /// The log one tracked launch of `name` produces: `per_agent(block)`
    /// lists the lines each block logs between its begin and end.
    fn expected(
        name: &str,
        shape: &str,
        cfg: LaunchConfig,
        per_block: impl Fn(usize) -> Vec<String>,
    ) -> Vec<String> {
        let mut log = vec![format!("begin {name} {shape} {}x{}", cfg.blocks, cfg.block_size)];
        for b in 0..cfg.blocks {
            log.push(format!("block-begin {b} {}", cfg.block_size));
            log.extend(per_block(b));
            log.push(format!("block-end {b} {}", cfg.block_size));
        }
        log.push(format!("end {name} tracked=true sample={name}"));
        log
    }

    /// Runs the four launch shapes (and the phase, round and finding
    /// hooks) on `d`, in order, returning the log each must produce.
    fn all_shapes(d: &Device) -> Vec<String> {
        let mut want = Vec::new();
        // Flat: per-lane agents; stores and charges attributed.
        let cells = atomic_u32_array(4, |_| 0);
        let cfg = LaunchConfig::new(2, 2);
        launch_flat_named(d, "t.flat", cfg, |t| {
            cells[t.global].store(t.global as u32, t.hooks);
            d.charge(CostKind::ThreadWork, 1);
        });
        want.extend(expected("t.flat", "flat", cfg, |b| {
            (0..2)
                .flat_map(|l| {
                    [format!("access Write 4 b{b}/t{l}"), format!("charge ThreadWork 1 b{b}/t{l}")]
                })
                .collect()
        }));

        // Persistent: one lane per resident thread, grid rounded up.
        let n = d.resident_threads();
        let seen = atomic_u32_array(n, |_| 1);
        launch_persistent_named(d, "t.persistent", |t| {
            if t.global < n {
                seen[t.global].fetch_max(0, None, t.hooks);
            }
        });
        let cfg = LaunchConfig::cover(n, d.config().default_block_size);
        want.extend(expected("t.persistent", "persistent", cfg, |b| {
            (0..cfg.block_size)
                .filter(|l| b * cfg.block_size + l < n)
                .map(|l| format!("access AtomicNoEffect 4 b{b}/t{l}"))
                .collect()
        }));

        // Blocks: block-wide agents; RMW outcomes, barriers, and a
        // finding raised inside a block.
        let cells = atomic_u32_array(2, |_| 5);
        let cfg = LaunchConfig::new(2, 4);
        launch_blocks_named(d, "t.blocks", cfg, |b| {
            cells[b.block].fetch_min(0, None, b.hooks);
            cells[b.block].cas(99, 1, None, b.hooks);
            b.sync();
            b.threads().for_each(|t| b.lane_sync(t));
            observe::check_finding(b.block as u32, 2);
        });
        want.extend(expected("t.blocks", "blocks", cfg, |b| {
            let mut log = vec![
                format!("access AtomicUpdated 4 b{b}"),
                format!("access AtomicCasFailed 4 b{b}"),
                format!("charge BlockSync 4 b{b}"),
                format!("sync b{b} 4"),
            ];
            for l in 0..4 {
                log.push(format!("charge BlockSync 1 b{b}"));
                log.push(format!("lane-sync b{b} {l}"));
            }
            log.push(format!("finding {b} 2"));
            log
        }));

        // Warps: warp-granular agents.
        let cfg = LaunchConfig::new(1, 64);
        launch_warps_named(d, "t.warps", cfg, |w| {
            cells[w.block].load(w.hooks);
        });
        want.extend(expected("t.warps", "warps", cfg, |b| {
            (0..2).map(|w| format!("access Read 4 b{b}/w{w}")).collect()
        }));

        observe::phase_span(d, "p", || observe::round(d, 3));
        want.extend(["phase-start p", "round 3", "phase-end p"].map(String::from));
        want
    }

    #[test]
    fn hook_lifecycle_and_agent_identity() {
        assert!(current_agent().is_none());

        with_policy(DispatchPolicy::sequential(), || {
            // Two observers: each sees each hook of every shape once,
            // in the same order.
            let d = Device::test_small();
            let (a, b) = (Arc::new(Recorder::default()), Arc::new(Recorder::default()));
            let a_attached = d.observe(a.clone());
            let b_attached = d.observe(b.clone());
            let want = all_shapes(&d);
            assert_eq!(a.take(), want);
            assert_eq!(b.take(), want);

            // A launch on a different device is untracked and leaves no
            // agent behind; host-side accesses and findings raised
            // outside a block reach no device's observers.
            let other = Device::test_small();
            let cells = atomic_u32_array(1, |_| 0);
            launch_flat_named(&other, "t.other", LaunchConfig::new(1, 1), |t| {
                assert!(current_agent().is_none());
                cells[0].store(7, t.hooks);
            });
            cells[0].store(9, Hooks::OFF);
            observe::check_finding(7, 2);
            assert!(a.take().is_empty());
            assert!(b.take().is_empty());

            // After one detaches, the other keeps receiving.
            drop(a_attached);
            let want = all_shapes(&d);
            assert_eq!(b.take(), want);
            assert!(a.take().is_empty());

            // After both are gone, no hook fires.
            drop(b_attached);
            all_shapes(&d);
            assert!(a.take().is_empty());
            assert!(b.take().is_empty());
        });

        // Each device's observer sees its own launches and none of the
        // other's while both run on the pool at once.
        const LAUNCHES: usize = 20;
        let cfg = LaunchConfig::new(4, 4);
        let (a, b) = (Device::test_small(), Device::test_small());
        let (seen_a, seen_b) = (Arc::new(Recorder::default()), Arc::new(Recorder::default()));
        let _a = a.observe(seen_a.clone());
        let _b = b.observe(seen_b.clone());
        let run = |d: &Device, name: &str| {
            let cells = atomic_u32_array(cfg.total_threads(), |_| 0);
            with_policy(DispatchPolicy::pooled(2), || {
                for _ in 0..LAUNCHES {
                    launch_flat_named(d, name, cfg, |t| cells[t.global].store(1, t.hooks));
                }
            });
        };
        std::thread::scope(|s| {
            s.spawn(|| run(&b, "t.b"));
            run(&a, "t.a");
        });
        for (log, mine) in [(seen_a.take(), "t.a"), (seen_b.take(), "t.b")] {
            let count = |prefix: &str| log.iter().filter(|l| l.starts_with(prefix)).count();
            assert_eq!(count(&format!("begin {mine} ")), LAUNCHES);
            assert_eq!(count("begin "), LAUNCHES, "{mine} saw a foreign launch");
            assert_eq!(count("access Write"), LAUNCHES * cfg.total_threads(), "{mine}");
            assert_eq!(count("block-begin"), LAUNCHES * cfg.blocks, "{mine}");
        }
    }

    #[test]
    fn agent_display() {
        assert_eq!(Agent::thread(3, 7).to_string(), "b3/t7");
        assert_eq!(Agent::block_wide(12).to_string(), "b12");
        assert_eq!(Agent::warp(2, 5).to_string(), "b2/w5");
        assert!(Agent::warp(0, 0) != Agent::block_wide(0));
    }
}
