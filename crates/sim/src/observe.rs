//! The one observer slot: everything the simulator reports goes to the
//! [`Observer`]s installed here. `ecl-trace`, `ecl-prof`, `ecl-obs` and
//! `ecl-check` implement the trait; the simulator knows none of them.
//!
//! The slot is one `static` [`Sink`] holding an immutable list: the
//! members plus the union of what they [`Wants`]. [`install`] and
//! [`uninstall`] publish a successor list; the replaced one is retired,
//! never freed (`ecl-mc`'s `sink-publish` harness). With nothing
//! installed every hook site is one `Relaxed` load; the per-block,
//! per-access and per-charge hooks reach only the members that want
//! them. A launch builds its [`LaunchSample`] once and hands it to
//! every member. Begin hooks run in install order, `block_end` and
//! `launch_end` in reverse, so an observer installed inside another's
//! lifetime nests inside it. DESIGN.md §8 "The observer slot".

use std::sync::{Arc, Mutex};

use ecl_profiling::{LaunchSample, Sink};

use crate::check::{current_agent, AccessKind, Agent, LaunchShape};
use crate::cost::CostKind;
use crate::device::DeviceConfig;
use crate::launch::LaunchConfig;

/// What a member needs the simulator to report beyond the hooks every
/// member receives (launch boundaries, phases, rounds, context
/// switches, findings). The per-block and per-thread hooks only reach
/// the members that want them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wants {
    /// Block begin and end.
    pub blocks: bool,
    /// Every counted access, plain loads and stores included.
    pub accesses: bool,
    /// Atomic read-modify-write outcomes only.
    pub atomics: bool,
    /// Cost charges and barrier arrivals attributed to an agent.
    pub charges: bool,
    /// A [`LaunchSample`] of every launch.
    pub samples: bool,
    /// A [`LaunchSample`] of every launch issued inside a request
    /// context ([`crate::ctx::request`] non-zero).
    pub request_samples: bool,
}

/// One kernel launch as the hooks see it.
#[derive(Clone, Copy, Debug)]
pub struct Launch<'a> {
    /// The launching device's identity ([`crate::check::device_id`]).
    pub device: usize,
    /// The launching device's shape.
    pub config: &'a DeviceConfig,
    /// Kernel name.
    pub name: &'a str,
    /// Launch shape.
    pub shape: LaunchShape,
    /// Grid dimensions.
    pub cfg: LaunchConfig,
}

/// A switch of the calling thread's ambient context ([`crate::ctx`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxSwitch {
    /// Now working for this request (0 = none).
    Request(u64),
    /// Now working for this shard (`None` = no shard entered).
    Shard(Option<u32>),
}

/// A receiver of simulator events. Every hook defaults to a no-op.
pub trait Observer: Send + Sync {
    /// What this member needs beyond the always-delivered hooks. Read
    /// when a list holding the member is published.
    fn wants(&self) -> Wants {
        Wants::default()
    }

    /// A launch is starting. Returns whether this member *tracks* it:
    /// a launch some member tracks runs with a per-thread [`Agent`],
    /// which the access, charge and sync hooks then carry.
    fn launch_begin(&self, _launch: &Launch<'_>) -> bool {
        false
    }

    /// A launch joined. `tracked` is what [`Observer::launch_begin`]
    /// returned across the members; `sample` is present when a member
    /// wants one.
    fn launch_end(&self, _launch: &Launch<'_>, _tracked: bool, _sample: Option<&LaunchSample>) {}

    /// A block began executing on the calling thread.
    fn block_begin(&self, _block: u32, _block_size: usize, _tracked: bool) {}

    /// A block finished executing on the calling thread.
    fn block_end(&self, _block: u32, _block_size: usize, _tracked: bool) {}

    /// A counted-atomic cell access; `agent` is the simulated thread
    /// of a tracked launch, `None` for host code and untracked launches.
    fn access(&self, _addr: usize, _size: usize, _kind: AccessKind, _agent: Option<Agent>) {}

    /// A cost charge by `agent` during a tracked launch.
    fn charge(&self, _kind: CostKind, _units: u64, _agent: Agent) {}

    /// A block-wide barrier round (`BlockCtx::sync`) with
    /// `participants` charged thread slots.
    fn block_sync(&self, _agent: Agent, _participants: u64) {}

    /// One lane arrived at a per-lane barrier (`BlockCtx::lane_sync`).
    fn lane_sync(&self, _agent: Agent, _lane: u32) {}

    /// A named host-side phase began.
    fn phase_start(&self, _name: &str) {}

    /// A named host-side phase ended.
    fn phase_end(&self, _name: &str) {}

    /// An algorithm round boundary.
    fn round(&self, _n: u32) {}

    /// The calling thread switched request or shard context.
    fn context(&self, _switch: CtxSwitch) {}

    /// A checker reported a new finding: `rule` is its wire id,
    /// `block` the offending block or `u32::MAX`.
    fn check_finding(&self, _block: u32, _rule: u32) {}
}

/// Identity of one [`install`], for [`uninstall`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObserverId(u64);

/// The published, immutable member list.
struct ObserverList {
    members: Vec<(ObserverId, Arc<dyn Observer>)>,
    /// The members the block, access and agent hooks go to.
    blockers: Vec<Arc<dyn Observer>>,
    accessors: Vec<Arc<dyn Observer>>,
    chargers: Vec<Arc<dyn Observer>>,
    wants: Wants,
}

static SLOT: Sink<ObserverList> = Sink::new();

/// Serializes republishing (read the current list, publish its
/// successor) and numbers installs. Never touched by a hook.
static REGISTRY: Mutex<u64> = Mutex::new(0);

/// Publishes the current list minus `remove`, plus `add` under a fresh
/// id (returned). An empty list disables the slot.
fn republish(remove: Option<ObserverId>, add: Option<Arc<dyn Observer>>) -> Option<ObserverId> {
    let mut next = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut members: Vec<_> = SLOT.get().map(|l| l.members.clone()).unwrap_or_default();
    members.retain(|(id, _)| Some(*id) != remove);
    let added = add.map(|observer| {
        *next += 1;
        members.push((ObserverId(*next), observer));
        ObserverId(*next)
    });
    if members.is_empty() {
        SLOT.uninstall();
    } else {
        let any = |f: fn(Wants) -> bool| members.iter().any(|(_, o)| f(o.wants()));
        let wants = Wants {
            blocks: any(|w| w.blocks),
            accesses: any(|w| w.accesses),
            atomics: any(|w| w.atomics),
            charges: any(|w| w.charges),
            samples: any(|w| w.samples),
            request_samples: any(|w| w.request_samples),
        };
        let wanting = |f: fn(Wants) -> bool| {
            members.iter().filter(|(_, o)| f(o.wants())).map(|(_, o)| Arc::clone(o)).collect()
        };
        SLOT.install(Arc::new(ObserverList {
            blockers: wanting(|w| w.blocks),
            accessors: wanting(|w| w.accesses || w.atomics),
            chargers: wanting(|w| w.charges),
            members,
            wants,
        }));
    }
    added
}

/// Adds `observer` to the slot; it receives every hook from now on.
pub fn install(observer: Arc<dyn Observer>) -> ObserverId {
    republish(None, Some(observer)).expect("an added observer has an id")
}

/// Removes the observer `id` names. A hook already walking the old
/// list may still reach it once.
pub fn uninstall(id: ObserverId) {
    republish(Some(id), None);
}

/// Whether any observer is installed: one `Relaxed` load.
#[inline(always)]
pub fn is_enabled() -> bool {
    SLOT.is_enabled()
}

/// At most one observer of type `T`, installed through this handle:
/// installing replaces the previous one. `ecl_trace::sink` and
/// `ecl_prof::sink` keep their `install` / `uninstall` pair on it.
pub struct Exclusive<T>(Mutex<Option<(ObserverId, Arc<T>)>>);

impl<T: Observer + 'static> Exclusive<T> {
    /// Nothing installed.
    pub const fn new() -> Self {
        Exclusive(Mutex::new(None))
    }

    /// Installs `observer` in place of the one installed before, in
    /// one republish.
    pub fn install(&self, observer: Arc<T>) {
        let mut held = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let old = held.take().map(|(id, _)| id);
        *held = republish(old, Some(observer.clone())).map(|id| (id, observer));
    }

    /// Uninstalls the held observer and hands it back.
    pub fn uninstall(&self) -> Option<Arc<T>> {
        let (id, observer) = self.0.lock().unwrap_or_else(|e| e.into_inner()).take()?;
        uninstall(id);
        Some(observer)
    }
}

impl<T: Observer + 'static> Default for Exclusive<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Calls `f` on every member: in install order, or in reverse.
#[inline(always)]
fn each(reverse: bool, f: impl FnMut(&dyn Observer)) {
    if let Some(l) = SLOT.get() {
        let members = l.members.iter().map(|(_, o)| o.as_ref());
        if reverse {
            members.rev().for_each(f);
        } else {
            members.for_each(f);
        }
    }
}

/// The published list, if one is installed and its members' union of
/// wants covers the event. With nothing installed: one relaxed load.
#[inline(always)]
fn wanting(covers: impl FnOnce(&Wants) -> bool) -> Option<&'static ObserverList> {
    SLOT.get().filter(|l| covers(&l.wants))
}

/// Starts a launch; returns whether any member tracks it.
pub(crate) fn launch_begin(launch: &Launch<'_>) -> bool {
    let mut tracked = false;
    each(false, |o| tracked |= o.launch_begin(launch));
    tracked
}

/// Whether the launch about to run must build a [`LaunchSample`].
#[inline(always)]
pub(crate) fn wants_sample() -> bool {
    wanting(|w| w.samples || (w.request_samples && crate::ctx::request() != 0)).is_some()
}

pub(crate) fn launch_end(launch: &Launch<'_>, tracked: bool, sample: Option<&LaunchSample>) {
    each(true, |o| o.launch_end(launch, tracked, sample));
}

#[inline(always)]
pub(crate) fn block_begin(block: u32, block_size: usize, tracked: bool) {
    if let Some(l) = wanting(|w| w.blocks) {
        l.blockers.iter().for_each(|o| o.block_begin(block, block_size, tracked));
    }
}

#[inline(always)]
pub(crate) fn block_end(block: u32, block_size: usize, tracked: bool) {
    if let Some(l) = wanting(|w| w.blocks) {
        l.blockers.iter().rev().for_each(|o| o.block_end(block, block_size, tracked));
    }
}

/// Reports one counted access to the members, if any wants it. The
/// test is inlined at every access site; the fan-out is not.
#[inline(always)]
pub(crate) fn access(addr: usize, size: usize, kind: AccessKind) {
    if let Some(l) = wanting(|w| w.accesses || (w.atomics && kind.is_atomic())) {
        fan_out_access(l, addr, size, kind);
    }
}

#[inline(never)]
fn fan_out_access(l: &ObserverList, addr: usize, size: usize, kind: AccessKind) {
    let agent = current_agent();
    l.accessors.iter().for_each(|o| o.access(addr, size, kind, agent));
}

/// Calls `f` on every member with the calling thread's agent, when a
/// member wants charges and the thread is an agent of a tracked launch.
#[inline(always)]
fn with_agent(f: impl Fn(&dyn Observer, Agent)) {
    #[inline(never)]
    fn fan_out(l: &ObserverList, f: impl Fn(&dyn Observer, Agent)) {
        if let Some(agent) = current_agent() {
            l.chargers.iter().for_each(|o| f(o.as_ref(), agent));
        }
    }
    if let Some(l) = wanting(|w| w.charges) {
        fan_out(l, f);
    }
}

#[inline(always)]
pub(crate) fn charge(kind: CostKind, units: u64) {
    with_agent(|o, agent| o.charge(kind, units, agent));
}

#[inline(always)]
pub(crate) fn block_sync(participants: u64) {
    with_agent(|o, agent| o.block_sync(agent, participants));
}

#[inline(always)]
pub(crate) fn lane_sync(lane: u32) {
    with_agent(|o, agent| o.lane_sync(agent, lane));
}

/// Marks the start of a named host-side phase.
pub fn phase_start(name: &str) {
    each(false, |o| o.phase_start(name));
}

/// Marks the end of a named host-side phase.
pub fn phase_end(name: &str) {
    each(false, |o| o.phase_end(name));
}

/// Runs `f` between [`phase_start`] and [`phase_end`] of `name`.
pub fn phase_span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    phase_start(name);
    let r = f();
    phase_end(name);
    r
}

/// Marks an algorithm round boundary.
pub fn round(n: u32) {
    each(false, |o| o.round(n));
}

pub(crate) fn context(switch: CtxSwitch) {
    each(false, |o| o.context(switch));
}

/// Reports a new checker finding to every member.
pub fn check_finding(block: u32, rule: u32) {
    each(false, |o| o.check_finding(block, rule));
}
