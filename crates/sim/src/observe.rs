//! Observers: everything the simulator reports goes to the
//! [`Observer`]s attached to the [`crate::Device`] it runs on.
//! `ecl-trace`, `ecl-prof`, `ecl-obs` and `ecl-check` implement the
//! trait; the simulator knows none of them.
//!
//! A device owns an [`Observers`] set, copied from the process
//! [`defaults`] when it is created; `Device::observe` attaches a member
//! until the returned [`Attached`] guard drops. A launch clones its
//! device's list once and publishes it in a thread-local for each
//! block, where the charge and sync hooks find it. The counted
//! accesses read no thread-local: the launch takes a [`Hooks`]
//! snapshot of the list's per-thread wants once per block and hands it
//! to the kernel on its context, and every `CountedU*` op takes it as
//! an argument. A kernel's hot loop runs under [`Hooks::unswitch`], so
//! with nothing listening it runs a copy in which every hook test is
//! folded away. A launch builds its [`LaunchSample`] once and hands it
//! to every member. Begin hooks run in attach order, `block_end` and
//! `launch_end` in reverse, so an observer attached inside another's
//! lifetime nests inside it. DESIGN.md §8 "Observers on a device".

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use ecl_profiling::{AtomicOutcome, LaunchSample};

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
pub trait Observer: Any + Send + Sync {
    /// What this member needs beyond the always-delivered hooks. Read
    /// when the member is attached.
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

    /// A counted-atomic cell access inside a block; `agent` is the
    /// simulated thread of a tracked launch, `None` for an untracked one.
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

impl Wants {
    /// These wants as [`ObserverList`] bits, in field order.
    fn bits(self) -> u8 {
        let Wants { blocks, accesses, atomics, charges, samples, request_samples } = self;
        let on = [blocks, accesses, atomics, charges, samples, request_samples];
        on.iter().zip(1..).fold(0, |bits, (&on, i)| bits | (u8::from(on) << i))
    }
}

/// Bits of an [`ObserverList`]: it has members, and what they want.
/// The per-block thread-local holds them, so a per-thread hook tests
/// one byte.
const LISTED: u8 = 1;
const BLOCKS: u8 = 1 << 1;
const ACCESSES: u8 = 1 << 2;
const ATOMICS: u8 = 1 << 3;
const CHARGES: u8 = 1 << 4;
const SAMPLES: u8 = 1 << 5;
const REQUEST_SAMPLES: u8 = 1 << 6;
/// The bits a per-thread hook tests: what a [`Hooks`] snapshot keeps.
const PER_THREAD: u8 = ACCESSES | ATOMICS | CHARGES;

/// An immutable member list: what a launch clones and a block
/// publishes.
pub(crate) struct ObserverList {
    members: Vec<Arc<dyn Observer>>,
    /// The members the block, access and agent hooks go to.
    blockers: Vec<Arc<dyn Observer>>,
    accessors: Vec<Arc<dyn Observer>>,
    chargers: Vec<Arc<dyn Observer>>,
    /// [`LISTED`] plus the union of the members' wants.
    bits: u8,
}

impl ObserverList {
    /// The list of `members` with its per-hook subsets; `None` when
    /// empty.
    fn of(members: Vec<Arc<dyn Observer>>) -> Option<Arc<ObserverList>> {
        if members.is_empty() {
            return None;
        }
        let wanting =
            |bits: u8| members.iter().filter(|o| o.wants().bits() & bits != 0).cloned().collect();
        Some(Arc::new(ObserverList {
            blockers: wanting(BLOCKS),
            accessors: wanting(ACCESSES | ATOMICS),
            chargers: wanting(CHARGES),
            bits: members.iter().fold(LISTED, |bits, o| bits | o.wants().bits()),
            members,
        }))
    }
}

/// The observers of one device, or the process default set new devices
/// start from ([`defaults`]).
pub struct Observers {
    /// Whether `list` holds members. Read without the lock, so a set
    /// with none costs a launch or a host hook one relaxed load; the
    /// list itself is only ever read under the lock.
    any: AtomicBool,
    /// Read by every launch and ambient hook, written by attach and
    /// detach: readers must not park each other.
    list: RwLock<Option<Arc<ObserverList>>>,
}

impl Observers {
    /// An empty set.
    pub(crate) const fn new() -> Self {
        Observers { any: AtomicBool::new(false), list: RwLock::new(None) }
    }

    /// The current list (`None` when empty). With members attached: one
    /// lock and one reference count.
    pub(crate) fn list(&self) -> Option<Arc<ObserverList>> {
        if !self.any.load(Ordering::Relaxed) {
            return None;
        }
        self.list.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Calls `f` on every member, in attach order.
    fn each(&self, f: impl FnMut(&Arc<dyn Observer>)) {
        if let Some(l) = self.list() {
            l.members.iter().for_each(f);
        }
    }

    /// Replaces the members with `edit` of them, under the lock. A list
    /// is replaced whole, so a panic under the lock poisons nothing.
    fn edit(&self, edit: impl FnOnce(&mut Vec<Arc<dyn Observer>>)) {
        let mut list = self.list.write().unwrap_or_else(|e| e.into_inner());
        let mut members = list.as_ref().map(|l| l.members.clone()).unwrap_or_default();
        edit(&mut members);
        *list = ObserverList::of(members);
        self.any.store(list.is_some(), Ordering::Relaxed);
    }

    /// A set holding what `self` holds now.
    pub(crate) fn copy(&self) -> Self {
        let list = self.list();
        Observers { any: AtomicBool::new(list.is_some()), list: RwLock::new(list) }
    }

    /// Attaches `observer` until the returned guard drops.
    pub fn attach(&self, observer: Arc<dyn Observer>) -> Attached<'_> {
        self.edit(|members| members.push(Arc::clone(&observer)));
        Attached { to: self, observer }
    }

    /// The first attached observer of type `T`.
    pub fn find<T: Observer>(&self) -> Option<Arc<T>> {
        let as_t =
            |o: &Arc<dyn Observer>| (o.clone() as Arc<dyn Any + Send + Sync>).downcast().ok();
        self.list().and_then(|list| list.members.iter().find_map(as_t))
    }
}

impl std::fmt::Debug for Observers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Observers({})", self.list().map_or(0, |l| l.members.len()))
    }
}

impl AsRef<Observers> for Observers {
    fn as_ref(&self) -> &Observers {
        self
    }
}

/// One attachment; detaches its observer when dropped. A launch
/// already running keeps the list it cloned.
#[must_use = "the observer detaches when the guard drops"]
pub struct Attached<'a> {
    to: &'a Observers,
    observer: Arc<dyn Observer>,
}

impl Drop for Attached<'_> {
    fn drop(&mut self) {
        self.to.edit(|members| {
            if let Some(at) = members.iter().rposition(|o| Arc::ptr_eq(o, &self.observer)) {
                members.remove(at);
            }
        });
    }
}

/// The process default set: every [`crate::Device::new`] starts from a
/// copy of it, and the hooks that have no device (context switches and
/// findings outside a block, `ecl-serve`'s job spans) reach it.
/// `ecl_trace::sink` and `ecl_prof::sink` install into it.
pub fn defaults() -> &'static Observers {
    static DEFAULTS: Observers = Observers::new();
    &DEFAULTS
}

thread_local! {
    /// The bits of the list published for the block running on this
    /// thread; 0 outside a block or when its device has no observers.
    /// Only [`BlockScope`] writes it and only [`block_bits`] reads it.
    static BLOCK_WANTS: Cell<u8> = const { Cell::new(0) };
    /// The list itself, read only when `BLOCK_WANTS` covers the event.
    static BLOCK_LIST: RefCell<Option<Arc<ObserverList>>> = const { RefCell::new(None) };
}

/// Publishes a launch's list on the calling thread for one block and,
/// when dropped (unwinds included), restores what was published before:
/// a launch issued from inside a block nests. With no list on either
/// side it touches no reference count.
pub(crate) struct BlockScope(u8, Option<Arc<ObserverList>>);

impl BlockScope {
    pub(crate) fn enter(list: Option<&Arc<ObserverList>>) -> Self {
        let bits = list.map_or(0, |l| l.bits);
        BlockScope(BLOCK_WANTS.replace(bits), BLOCK_LIST.replace(list.cloned()))
    }
}

impl Drop for BlockScope {
    fn drop(&mut self) {
        BLOCK_WANTS.set(self.0);
        BLOCK_LIST.set(self.1.take());
    }
}

/// The bits of the list published for this thread's block: the one
/// read of `BLOCK_WANTS`.
#[inline(always)]
fn block_bits() -> u8 {
    BLOCK_WANTS.get()
}

/// Whether the list published for this thread's block has members
/// that want any of `bits`.
#[inline(always)]
fn block_wants(bits: u8) -> bool {
    block_bits() & bits != 0
}

/// What the members of a block's list want of its counted accesses and
/// charges, as a `Copy` snapshot. The launch layer takes it once per
/// block and hands it to the kernel on its context
/// ([`crate::ThreadCtx`], [`crate::BlockCtx`], [`crate::WarpCtx`]);
/// every `CountedU*` op takes it. Host code outside a block passes
/// [`Hooks::OFF`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hooks(u8);

impl Hooks {
    /// Nothing listens: every hook test against it is false.
    pub const OFF: Hooks = Hooks(0);

    /// The snapshot of the block running on the calling thread;
    /// [`Hooks::OFF`] outside a block, or when no member of its list
    /// wants accesses, atomics or charges.
    pub fn current() -> Hooks {
        Hooks(block_bits() & PER_THREAD)
    }

    /// Runs `body(Hooks::OFF)` when nothing listens and `body(self)`
    /// otherwise. With `body` marked `#[inline(always)]` it compiles
    /// the body twice: in the first copy every hook test is a constant
    /// false and folds away, so a hot loop wrapped in it pays nothing
    /// for being observable. Without the mark LLVM may merge the two
    /// calls first (the argument is `self` either way) and keep one
    /// copy with its tests.
    #[inline(always)]
    pub fn unswitch<R>(self, body: impl FnOnce(Hooks) -> R) -> R {
        if self == Hooks::OFF {
            body(Hooks::OFF)
        } else {
            body(self)
        }
    }

    /// Whether a member wants any of `bits`.
    #[inline(always)]
    fn wants(self, bits: u8) -> bool {
        self.0 & bits != 0
    }
}

/// Calls `f` with the list published for this thread's block.
fn with_block_list(f: impl FnOnce(&ObserverList)) {
    BLOCK_LIST.with_borrow(|l| {
        if let Some(l) = l {
            f(l);
        }
    });
}

/// Calls `f` on every member of the block's list inside a block, or of
/// the process default list outside one.
fn each_ambient(f: impl FnMut(&Arc<dyn Observer>)) {
    if block_wants(LISTED) {
        with_block_list(|l| l.members.iter().for_each(f));
    } else {
        defaults().each(f);
    }
}

/// Starts a launch, asking every member (`|` does not short-circuit);
/// returns whether any tracks it.
pub(crate) fn launch_begin(list: Option<&ObserverList>, launch: &Launch<'_>) -> bool {
    list.is_some_and(|l| {
        l.members.iter().fold(false, |tracked, o| o.launch_begin(launch) | tracked)
    })
}

/// Whether the launch about to run must build a [`LaunchSample`].
pub(crate) fn wants_sample(list: Option<&ObserverList>) -> bool {
    list.is_some_and(|l| {
        l.bits & SAMPLES != 0 || (l.bits & REQUEST_SAMPLES != 0 && crate::ctx::request() != 0)
    })
}

/// Ends a launch: `tracked` is what [`launch_begin`] returned.
pub(crate) fn launch_end(
    list: Option<&ObserverList>,
    launch: &Launch<'_>,
    tracked: bool,
    sample: Option<&LaunchSample>,
) {
    let reversed = list.into_iter().flat_map(|l| l.members.iter().rev());
    reversed.for_each(|o| o.launch_end(launch, tracked, sample));
}

pub(crate) fn block_begin(block: u32, block_size: usize, tracked: bool) {
    if block_wants(BLOCKS) {
        with_block_list(|l| {
            l.blockers.iter().for_each(|o| o.block_begin(block, block_size, tracked))
        });
    }
}

pub(crate) fn block_end(block: u32, block_size: usize, tracked: bool) {
    if block_wants(BLOCKS) {
        with_block_list(|l| {
            l.blockers.iter().rev().for_each(|o| o.block_end(block, block_size, tracked))
        });
    }
}

/// Reports one plain counted access (a load or a store) to the block's
/// members, if any wants it. The test is inlined at every access site;
/// the fan-out is cold.
#[inline(always)]
pub(crate) fn access(hooks: Hooks, addr: usize, size: usize, kind: AccessKind) {
    if hooks.wants(ACCESSES) {
        fan_out_access(addr, size, kind);
    }
}

/// Reports one atomic read-modify-write outcome to the block's members,
/// if any wants accesses or atomics.
#[inline(always)]
pub(crate) fn rmw(hooks: Hooks, addr: usize, size: usize, outcome: AtomicOutcome) {
    if hooks.wants(ACCESSES | ATOMICS) {
        fan_out_rmw(addr, size, outcome);
    }
}

#[cold]
#[inline(never)]
fn fan_out_rmw(addr: usize, size: usize, outcome: AtomicOutcome) {
    fan_out_access(addr, size, AccessKind::from(outcome));
}

#[cold]
#[inline(never)]
fn fan_out_access(addr: usize, size: usize, kind: AccessKind) {
    let agent = current_agent();
    with_block_list(|l| l.accessors.iter().for_each(|o| o.access(addr, size, kind, agent)));
}

/// Calls `f` on every member with the calling thread's agent, when a
/// member wants charges and the thread is an agent of a tracked launch.
#[inline(always)]
fn with_agent(f: impl Fn(&dyn Observer, Agent)) {
    #[cold]
    #[inline(never)]
    fn fan_out(f: impl Fn(&dyn Observer, Agent)) {
        if let Some(agent) = current_agent() {
            with_block_list(|l| l.chargers.iter().for_each(|o| f(o.as_ref(), agent)));
        }
    }
    if block_wants(CHARGES) {
        fan_out(f);
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

/// Marks the start of a named host-side phase on `on` (a device, or
/// [`defaults`]).
pub fn phase_start(on: &impl AsRef<Observers>, name: &str) {
    on.as_ref().each(|o| o.phase_start(name));
}

/// Marks the end of a named host-side phase on `on`.
pub fn phase_end(on: &impl AsRef<Observers>, name: &str) {
    on.as_ref().each(|o| o.phase_end(name));
}

/// Runs `f` between [`phase_start`] and [`phase_end`] of `name`.
pub fn phase_span<R>(on: &impl AsRef<Observers>, name: &str, f: impl FnOnce() -> R) -> R {
    phase_start(on, name);
    let r = f();
    phase_end(on, name);
    r
}

/// Marks an algorithm round boundary on `on`.
pub fn round(on: &impl AsRef<Observers>, n: u32) {
    on.as_ref().each(|o| o.round(n));
}

pub(crate) fn context(switch: CtxSwitch) {
    each_ambient(|o| o.context(switch));
}

/// Reports a new checker finding to the members of the block's list
/// inside a block, of the process default list outside one.
pub fn check_finding(block: u32, rule: u32) {
    each_ambient(|o| o.check_finding(block, rule));
}
