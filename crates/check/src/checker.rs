//! The checker: an [`Observer`] wiring shadow memory and the lint
//! rules to the simulator's hooks, plus the [`CheckSession`] RAII
//! wrapper that attaches it to one [`Device`].
//!
//! One session checks one device: it sees that device's launches and
//! no other's, so sessions on different devices run side by side.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ecl_gpusim::check::{AccessKind, Agent, LaunchShape};
use ecl_gpusim::observe::{self, Attached, Launch, Observer, Wants};
use ecl_gpusim::{CostKind, Device, LaunchConfig};
use ecl_profiling::LaunchSample;

use crate::region::RegionInfo;
use crate::report::{Finding, Report, Rule};
use crate::shadow::ShadowMemory;

/// Thresholds for the lint rules. The defaults are tuned so the
/// paper's two launch-config defects (ECL-MST §6.3, ECL-SCC §6.2) are
/// flagged on workshop-scale graphs while correctly sized launches
/// pass.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Minimum `DeviceConfig::occupancy` a block size must reach.
    pub occupancy_min: f64,
    /// `over-launch` fires only when at least this many launched
    /// blocks touched no work...
    pub overlaunch_min_idle_blocks: usize,
    /// ...and they are at least this fraction of the grid.
    pub overlaunch_min_idle_fraction: f64,
    /// `block-sync-waste` fires only when a launch charged at least
    /// this many barrier thread-slots...
    pub syncwaste_min_slots: u64,
    /// ...with fewer effective atomic updates per slot than this.
    pub syncwaste_min_utilization: f64,
    /// Cap on distinct findings kept (occurrences keep folding into
    /// existing findings past the cap).
    pub max_findings: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            occupancy_min: 0.9,
            overlaunch_min_idle_blocks: 2,
            overlaunch_min_idle_fraction: 0.25,
            syncwaste_min_slots: 1024,
            syncwaste_min_utilization: 0.25,
            max_findings: 256,
        }
    }
}

/// Per-launch (epoch) bookkeeping.
struct EpochState {
    name: String,
    shape: LaunchShape,
    cfg: LaunchConfig,
    /// Blocks that touched work (memory access or non-idle charge).
    touched_blocks: HashSet<u32>,
    /// Distinct agents that touched work.
    touched_agents: HashSet<Agent>,
    /// block → lane → arrival count at per-lane barriers.
    lane_arrivals: HashMap<u32, HashMap<u32, u64>>,
}

#[derive(Default)]
struct FindingStore {
    /// (rule, kernel, region, suppressed) → index into the matching
    /// vec, for folding repeats.
    index: HashMap<(Rule, String, Option<String>, bool), usize>,
    findings: Vec<Finding>,
    suppressed: Vec<Finding>,
}

/// Source of launch-epoch ids, shared by every session the process
/// ever runs. Epochs must be unique *across* sessions, not merely
/// within one: the simulator's worker threads are pooled and survive
/// launches, so a per-thread memo tagged with a session-local epoch
/// (session 2's launch 1 vs. session 1's launch 1) could alias and
/// suppress attribution in a later session — exactly the stale-state
/// leakage that per-launch thread spawning used to mask.
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(0);

/// The shared checker state; implements [`Observer`].
pub(crate) struct CheckerShared {
    config: CheckConfig,
    shadow: ShadowMemory,
    regions: Mutex<Vec<RegionInfo>>,
    /// Current launch epoch (a [`GLOBAL_EPOCH`] ticket; 0 = before
    /// any launch). Tags shadow-memory cell states and the per-thread
    /// touch memo.
    epoch: AtomicU64,
    /// Launches seen by *this session*, used as the human-readable
    /// `launch_index` on findings.
    launch_index: AtomicU64,
    state: Mutex<Option<EpochState>>,
    store: Mutex<FindingStore>,
    // Per-epoch counters kept as atomics (reset at launch_begin) so
    // the hot charge/access hooks never take the state lock.
    work_units: AtomicU64,
    sync_slots: AtomicU64,
    sync_rounds: AtomicU64,
    atomic_updates: AtomicU64,
    launches: AtomicU64,
    accesses: AtomicU64,
}

thread_local! {
    /// Last (epoch, agent) this OS thread recorded as touched — a
    /// memo that keeps the per-access hot path off the state lock.
    static TOUCH_MEMO: Cell<(u64, Agent)> =
        const { Cell::new((0, Agent { block: u32::MAX, lane: u32::MAX })) };
}

impl CheckerShared {
    fn new(config: CheckConfig) -> Self {
        Self {
            config,
            shadow: ShadowMemory::new(),
            regions: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            launch_index: AtomicU64::new(0),
            state: Mutex::new(None),
            store: Mutex::new(FindingStore::default()),
            work_units: AtomicU64::new(0),
            sync_slots: AtomicU64::new(0),
            sync_rounds: AtomicU64::new(0),
            atomic_updates: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
        }
    }

    fn state(&self) -> MutexGuard<'_, Option<EpochState>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn register_region(&self, info: RegionInfo) {
        self.regions.lock().unwrap_or_else(|e| e.into_inner()).push(info);
    }

    pub(crate) fn unregister_region(&self, base: usize) {
        let mut regions = self.regions.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = regions.iter().rposition(|r| r.base == base) {
            regions.remove(pos);
        }
    }

    /// Region lookup: (label, element index, benign reason). Later
    /// registrations win, so a re-registered buffer resolves to its
    /// newest name.
    fn locate(&self, addr: usize) -> (Option<String>, Option<usize>, Option<String>) {
        let regions = self.regions.lock().unwrap_or_else(|e| e.into_inner());
        for r in regions.iter().rev() {
            if r.contains(addr) {
                return (Some(r.name.clone()), Some(r.index_of(addr)), r.benign.clone());
            }
        }
        (None, None, None)
    }

    /// Marks `agent` (and its block) as having touched work this
    /// epoch.
    fn mark_touched(&self, agent: Agent) {
        let epoch = self.epoch.load(Ordering::Relaxed);
        if TOUCH_MEMO.with(|m| m.get()) == (epoch, agent) {
            return;
        }
        if let Some(st) = self.state().as_mut() {
            st.touched_blocks.insert(agent.block);
            st.touched_agents.insert(agent);
        }
        TOUCH_MEMO.with(|m| m.set((epoch, agent)));
    }

    /// Records one occurrence of a finding, folding into an existing
    /// entry when (rule, kernel, region, suppression) match. New
    /// unsuppressed findings are reported to the observers (the trace
    /// records them as `CheckFinding` events).
    fn record_finding(
        &self,
        rule: Rule,
        kernel: String,
        region: Option<String>,
        detail: String,
        suppressed: Option<String>,
        block: u32,
    ) {
        let launch_index = self.launch_index.load(Ordering::Relaxed);
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let key = (rule, kernel.clone(), region.clone(), suppressed.is_some());
        if let Some(&i) = store.index.get(&key) {
            let list =
                if suppressed.is_some() { &mut store.suppressed } else { &mut store.findings };
            list[i].count += 1;
            return;
        }
        let is_suppressed = suppressed.is_some();
        let finding = Finding { rule, kernel, region, launch_index, count: 1, detail, suppressed };
        let list = if is_suppressed { &mut store.suppressed } else { &mut store.findings };
        if list.len() >= self.config.max_findings {
            return;
        }
        list.push(finding);
        let i = list.len() - 1;
        store.index.insert(key, i);
        if !is_suppressed {
            observe::check_finding(block, rule.raw());
        }
    }

    fn current_kernel(&self) -> String {
        self.state().as_ref().map(|s| s.name.clone()).unwrap_or_else(|| "?".to_string())
    }

    fn finish(&self) -> Report {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let mut findings = std::mem::take(&mut store.findings);
        let mut suppressed = std::mem::take(&mut store.suppressed);
        store.index.clear();
        let key = |f: &Finding| (f.rule, f.kernel.clone());
        findings.sort_by_key(key);
        suppressed.sort_by_key(key);
        Report {
            findings,
            suppressed,
            launches: self.launches.load(Ordering::Relaxed),
            accesses: self.accesses.load(Ordering::Relaxed),
        }
    }
}

impl Observer for CheckerShared {
    fn wants(&self) -> Wants {
        Wants { blocks: true, accesses: true, charges: true, ..Wants::default() }
    }

    fn launch_begin(&self, launch: &Launch<'_>) -> bool {
        let Launch { config, name, shape, cfg } = *launch;
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.launch_index.fetch_add(1, Ordering::Relaxed);
        // A fresh process-globally-unique epoch: stale TOUCH_MEMO and
        // shadow-memory entries from any earlier launch (even of a
        // previous session) can never match it.
        self.epoch.store(GLOBAL_EPOCH.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.work_units.store(0, Ordering::Relaxed);
        self.sync_slots.store(0, Ordering::Relaxed);
        self.sync_rounds.store(0, Ordering::Relaxed);
        self.atomic_updates.store(0, Ordering::Relaxed);
        *self.state() = Some(EpochState {
            name: name.to_string(),
            shape,
            cfg,
            touched_blocks: HashSet::new(),
            touched_agents: HashSet::new(),
            lane_arrivals: HashMap::new(),
        });
        // Static rule: occupancy is a property of the config alone.
        if cfg.blocks > 0 {
            let occ = config.occupancy(cfg.block_size);
            if occ < self.config.occupancy_min {
                self.record_finding(
                    Rule::Occupancy,
                    name.to_string(),
                    None,
                    format!(
                        "block size {} reaches {:.0}% SM occupancy ({} threads/SM schedule whole blocks)",
                        cfg.block_size,
                        occ * 100.0,
                        config.threads_per_sm,
                    ),
                    None,
                    u32::MAX,
                );
            }
        }
        true
    }

    fn launch_end(&self, _launch: &Launch<'_>, _tracked: bool, _sample: Option<&LaunchSample>) {
        let Some(st) = self.state().take() else { return };
        // over-launch: grid sized far beyond the blocks that touched
        // work. Persistent grids are exempt — sizing to the hardware
        // instead of the input is their design.
        if st.shape != LaunchShape::Persistent && st.cfg.blocks > 0 {
            let touched = st.touched_blocks.len().min(st.cfg.blocks);
            let idle = st.cfg.blocks - touched;
            if idle >= self.config.overlaunch_min_idle_blocks
                && idle as f64 / st.cfg.blocks as f64 >= self.config.overlaunch_min_idle_fraction
            {
                self.record_finding(
                    Rule::OverLaunch,
                    st.name.clone(),
                    None,
                    format!(
                        "launched {}\u{d7}{} = {} threads but only {} of {} blocks ({} agents) touched work",
                        st.cfg.blocks,
                        st.cfg.block_size,
                        st.cfg.total_threads(),
                        touched,
                        st.cfg.blocks,
                        st.touched_agents.len(),
                    ),
                    None,
                    u32::MAX,
                );
            }
        }
        // block-sync-waste: many barrier thread-slots charged with few
        // effective updates between them (§6.2.1's "even a single
        // active thread keeps the entire block alive").
        let slots = self.sync_slots.load(Ordering::Relaxed);
        let rounds = self.sync_rounds.load(Ordering::Relaxed);
        let updates = self.atomic_updates.load(Ordering::Relaxed);
        if slots >= self.config.syncwaste_min_slots {
            let util = updates as f64 / slots as f64;
            if util < self.config.syncwaste_min_utilization {
                self.record_finding(
                    Rule::BlockSyncWaste,
                    st.name.clone(),
                    None,
                    format!(
                        "{} barrier thread-slots over {} rounds for {} effective updates ({:.3}/slot): oversized blocks keep idle lanes synchronizing",
                        slots, rounds, updates, util,
                    ),
                    None,
                    u32::MAX,
                );
            }
        }
    }

    fn access(&self, addr: usize, _size: usize, kind: AccessKind, agent: Option<Agent>) {
        let Some(agent) = agent else { return };
        self.accesses.fetch_add(1, Ordering::Relaxed);
        self.mark_touched(agent);
        if kind.is_atomic() {
            if kind == AccessKind::AtomicUpdated {
                self.atomic_updates.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        if let Some(hit) = self.shadow.record(addr, kind, agent, epoch) {
            let (label, idx, benign) = self.locate(addr);
            let cell = match (&label, idx) {
                (Some(name), Some(i)) => format!("{name}[{i}]"),
                _ => format!("cell {addr:#x}"),
            };
            let verb = match hit.rule {
                Rule::WriteWriteRace => "both wrote",
                _ => "reader/writer overlap on",
            };
            let detail = format!("{} and {} {} {}", hit.first, hit.second, verb, cell);
            self.record_finding(
                hit.rule,
                self.current_kernel(),
                label,
                detail,
                benign,
                agent.block,
            );
        }
    }

    fn charge(&self, kind: CostKind, units: u64, agent: Agent) {
        // BlockSync arrives via the dedicated sync hooks; IdleCheck is
        // the explicit "I had nothing to do" signal; launch overheads
        // are host-side. None of them count as touching work.
        if units == 0
            || matches!(
                kind,
                CostKind::BlockSync
                    | CostKind::IdleCheck
                    | CostKind::KernelLaunch
                    | CostKind::HostReconfig
            )
        {
            return;
        }
        self.work_units.fetch_add(units, Ordering::Relaxed);
        self.mark_touched(agent);
    }

    fn block_sync(&self, agent: Agent, participants: u64) {
        self.sync_slots.fetch_add(participants, Ordering::Relaxed);
        self.sync_rounds.fetch_add(1, Ordering::Relaxed);
        // A block at a barrier is alive — it must not read as idle to
        // the over-launch rule (sync slots are judged by their own
        // rule instead).
        self.mark_touched(agent);
    }

    fn lane_sync(&self, agent: Agent, lane: u32) {
        self.sync_slots.fetch_add(1, Ordering::Relaxed);
        self.mark_touched(agent);
        if let Some(st) = self.state().as_mut() {
            *st.lane_arrivals.entry(agent.block).or_default().entry(lane).or_insert(0) += 1;
        }
    }

    fn block_end(&self, block: u32, block_size: usize, tracked: bool) {
        if !tracked {
            return;
        }
        let mut guard = self.state();
        let Some(st) = guard.as_mut() else { return };
        let Some(arrivals) = st.lane_arrivals.remove(&block) else { return };
        let max = arrivals.values().copied().max().unwrap_or(0);
        let min = if arrivals.len() < block_size {
            0
        } else {
            arrivals.values().copied().min().unwrap_or(0)
        };
        if max != min {
            let name = st.name.clone();
            drop(guard);
            self.record_finding(
                Rule::DivergentSync,
                name,
                None,
                format!(
                    "block {block}: some lanes reached the barrier {max} time(s), others {min} ({} of {} lanes arrived at all)",
                    arrivals.len(),
                    block_size,
                ),
                None,
                block,
            );
        }
    }
}

/// An active check session over one device. Created with
/// [`CheckSession::begin`]; consumed by [`CheckSession::finish`],
/// which returns the [`Report`]. Dropping without `finish` detaches
/// cleanly and discards the findings.
pub struct CheckSession<'d> {
    shared: Arc<CheckerShared>,
    attached: Attached<'d>,
}

impl<'d> CheckSession<'d> {
    /// Starts checking `device` with default thresholds.
    pub fn begin(device: &'d Device) -> Self {
        Self::with_config(device, CheckConfig::default())
    }

    /// Starts checking `device` with custom thresholds.
    pub fn with_config(device: &'d Device, config: CheckConfig) -> Self {
        let shared = Arc::new(CheckerShared::new(config));
        let attached = device.observe(shared.clone());
        Self { shared, attached }
    }

    /// Stops checking and returns the findings.
    pub fn finish(self) -> Report {
        let CheckSession { shared, attached } = self;
        drop(attached);
        shared.finish()
    }
}

/// Runs `f` under a default-config check session on `device` and
/// returns its result alongside the report.
pub fn run_checked<R>(device: &Device, f: impl FnOnce() -> R) -> (R, Report) {
    let session = CheckSession::begin(device);
    let result = f();
    (result, session.finish())
}
