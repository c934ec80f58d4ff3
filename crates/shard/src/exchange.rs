//! The superstep driver and its double-buffered cross-shard mailboxes.
//!
//! Every sharded runner is a sequence of calls on one `Driver`. A
//! superstep runs a phase on every shard side by side, one block of a
//! `pool::dispatch` each (in index order on the caller under
//! `DispatchPolicy::sequential()`). A phase runs in order in its shard
//! context, consumes its inbox, writes only its own shard's state and
//! pushes messages into its own [`Outbox`], row `out[s][*]` of the
//! outbox matrix. After the dispatch returns — the barrier —
//! [`Mailboxes::flush`] moves the outboxes into the destinations'
//! inboxes, merging in ascending source-shard order, and the slowest
//! shard's compute delta plus the exchange term go into the run's
//! [`ShardClock`]. Nothing a shard sends is visible to any shard —
//! itself included — before the next superstep, so results do not
//! depend on the order or overlap in which shards run, and any two runs
//! that issue the same sends deliver the same inboxes in the same order.
//!
//! Termination has one rule: stop after a superstep that moved no
//! message. Every runner publishes every boundary change it makes, so
//! such a superstep leaves every shard at its local fixpoint with
//! current mirrors.

use std::sync::Mutex;

use ecl_gpusim::ctx::CtxGuard;
use ecl_gpusim::pool::{self, with_policy};
use ecl_gpusim::{Device, DispatchPolicy};

use crate::partition::Partition;
use crate::time::ShardClock;
use crate::ShardStats;

/// One cross-shard message: a global vertex id plus an
/// algorithm-defined payload (a CC label, packed SCC signatures, or a
/// MIS status byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Global vertex id the payload refers to.
    pub vertex: u32,
    /// Algorithm-defined payload.
    pub payload: u64,
}

/// Double-buffered per-shard outbox/inbox matrix.
#[derive(Debug)]
pub struct Mailboxes {
    /// `out[src][dst]`: messages produced by `src` for `dst` this
    /// superstep.
    out: Vec<Vec<Vec<Message>>>,
    /// `inbox[dst]`: messages delivered by the last flush.
    inbox: Vec<Vec<Message>>,
}

impl Mailboxes {
    /// Empty mailboxes for `shards` shards.
    pub fn new(shards: usize) -> Mailboxes {
        Mailboxes {
            out: (0..shards).map(|_| vec![Vec::new(); shards]).collect(),
            inbox: vec![Vec::new(); shards],
        }
    }

    /// Delivers all outboxes into the destination inboxes, merging in
    /// ascending source-shard order, and returns the number of
    /// messages moved. Undelivered inbox remnants are dropped first —
    /// callers consume inboxes exactly once per superstep.
    pub fn flush(&mut self) -> u64 {
        let (mut moved, shards) = (0u64, self.inbox.len());
        for dst in 0..shards {
            self.inbox[dst].clear();
            for src in 0..shards {
                let box_ = &mut self.out[src][dst];
                moved += box_.len() as u64;
                self.inbox[dst].append(box_);
            }
        }
        moved
    }

    /// Takes shard `dst`'s delivered messages (empties the inbox).
    pub fn take_inbox(&mut self, dst: u32) -> Vec<Message> {
        std::mem::take(&mut self.inbox[dst as usize])
    }
}

/// One shard's row `out[src][*]` of the outbox matrix: all a phase can
/// send through.
pub struct Outbox<'a> {
    row: &'a mut [Vec<Message>],
}

impl Outbox<'_> {
    /// Queues `msg` to shard `dst` for delivery at the next flush.
    #[inline]
    pub fn send(&mut self, dst: u32, msg: Message) {
        self.row[dst as usize].push(msg);
    }

    /// Queues `msg` to every shard named in the holder bitmask (bit
    /// `s` = shard `s`), the owner-to-mirrors broadcast.
    pub fn broadcast(&mut self, holders: u64, msg: Message) {
        let mut mask = holders;
        while mask != 0 {
            self.send(mask.trailing_zeros(), msg);
            mask &= mask - 1;
        }
    }
}

/// A shard phase: `(shard, state, device, inbox, outbox)`.
pub(crate) trait Phase<S>:
    Fn(usize, &mut S, &Device, Vec<Message>, &mut Outbox<'_>) + Sync
{
}
impl<S, F: Fn(usize, &mut S, &Device, Vec<Message>, &mut Outbox<'_>) + Sync> Phase<S> for F {}

/// The one superstep driver of a sharded run: it owns the devices (one
/// per shard), one [`Mailboxes`] and the [`ShardClock`].
pub(crate) struct Driver<'d> {
    devices: &'d [Device],
    mail: Mailboxes,
    clock: ShardClock,
}

impl<'d> Driver<'d> {
    /// A driver over `devices` for the shards of `part`.
    ///
    /// # Panics
    /// Panics if `devices.len() != part.shards`.
    pub(crate) fn new(devices: &'d [Device], part: &Partition) -> Driver<'d> {
        assert_eq!(
            devices.len(),
            part.shards as usize,
            "one device per shard required ({} devices for {} shards)",
            devices.len(),
            part.shards
        );
        Driver { devices, mail: Mailboxes::new(devices.len()), clock: ShardClock::default() }
    }

    /// One superstep: `phase(shard, state, device, inbox, outbox)` on
    /// every shard side by side, each in order, with `states[shard]`
    /// and the shard's own outbox row, then a flush. Folds the slowest
    /// shard's modeled delta and the messages moved into the clock, and
    /// returns the messages moved.
    pub(crate) fn step<S: Send>(&mut self, states: &mut [S], phase: impl Phase<S>) -> u64 {
        assert_eq!(states.len(), self.devices.len(), "one state per shard required");
        let inboxes: Vec<_> = (0..states.len() as u32).map(|s| self.mail.take_inbox(s)).collect();
        // Only shard `s`'s block locks `slots[s]`: the lock hands the
        // shard's disjoint `&mut` parts to whichever thread runs it.
        let slots: Vec<_> = (states.iter_mut().zip(&mut self.mail.out).zip(inboxes))
            .map(|((state, row), inbox)| Mutex::new((state, row, inbox, 0.0)))
            .collect();
        pool::dispatch(slots.len(), |s| {
            let (state, row, inbox, delta) = &mut *slots[s].lock().expect("locked once, here");
            let (device, _guard) = (&self.devices[s], CtxGuard::shard(s as u32));
            let before = device.modeled_time();
            with_policy(DispatchPolicy::sequential(), || {
                phase(s, state, device, std::mem::take(inbox), &mut Outbox { row });
            });
            *delta = device.modeled_time() - before;
        });
        let deltas = slots.into_iter().map(|slot| slot.into_inner().expect("no phase panicked").3);
        let slowest = deltas.fold(0.0, f64::max);
        let moved = self.mail.flush();
        self.clock.superstep(self.devices[0].params(), slowest, moved);
        moved
    }

    /// Repeats [`Driver::step`] until a superstep moves no message.
    pub(crate) fn step_to_fixpoint<S: Send>(&mut self, states: &mut [S], phase: impl Phase<S>) {
        while self.step(states, &phase) > 0 {}
    }

    /// The statistics of the run so far over `part`.
    pub(crate) fn stats(&self, part: &Partition) -> ShardStats {
        ShardStats {
            shards: part.shards,
            strategy: part.strategy,
            cut_arcs: part.cut_arcs,
            total_arcs: part.total_arcs,
            supersteps: self.clock.supersteps(),
            exchange_messages: self.clock.messages(),
            modeled_time: self.clock.total(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ecl_gpusim::observe::{Launch, Observer, Wants};
    use ecl_gpusim::pool::with_policy;
    use ecl_gpusim::{launch_flat_named, CostKind, DeviceConfig, DispatchPolicy, LaunchConfig};
    use ecl_graph::Csr;
    use ecl_profiling::LaunchSample;

    use crate::devices_for;
    use crate::partition::Strategy;

    fn send(m: &mut Mailboxes, src: u32, dst: u32, msg: Message) {
        Outbox { row: &mut m.out[src as usize] }.send(dst, msg);
    }

    #[test]
    fn starts_quiescent() {
        let mut m = Mailboxes::new(3);
        assert!((0..3).all(|s| m.take_inbox(s).is_empty()));
        assert_eq!(m.flush(), 0);
    }

    #[test]
    fn send_breaks_quiescence_until_consumed() {
        let mut m = Mailboxes::new(2);
        send(&mut m, 0, 1, Message { vertex: 7, payload: 42 });
        assert!(m.take_inbox(1).is_empty(), "pending outbox");
        assert_eq!(m.flush(), 1);
        assert_eq!(m.take_inbox(1), vec![Message { vertex: 7, payload: 42 }]);
        assert_eq!(m.flush(), 0, "consumed: the next superstep is quiet");
    }

    #[test]
    fn flush_merges_in_ascending_source_order() {
        let mut m = Mailboxes::new(3);
        send(&mut m, 2, 0, Message { vertex: 20, payload: 0 });
        send(&mut m, 0, 0, Message { vertex: 1, payload: 0 });
        send(&mut m, 1, 0, Message { vertex: 10, payload: 0 });
        send(&mut m, 1, 0, Message { vertex: 11, payload: 0 });
        m.flush();
        let got: Vec<u32> = m.take_inbox(0).iter().map(|msg| msg.vertex).collect();
        assert_eq!(got, vec![1, 10, 11, 20]);
    }

    #[test]
    fn double_buffering_delays_delivery_one_flush() {
        let mut m = Mailboxes::new(2);
        send(&mut m, 0, 1, Message { vertex: 1, payload: 1 });
        m.flush();
        // A send during the "next superstep" is not visible in the
        // already-delivered inbox.
        send(&mut m, 0, 1, Message { vertex: 2, payload: 2 });
        assert_eq!(m.take_inbox(1).len(), 1);
        m.flush();
        assert_eq!(m.take_inbox(1), vec![Message { vertex: 2, payload: 2 }]);
    }

    #[test]
    fn broadcast_hits_every_holder_bit() {
        let mut m = Mailboxes::new(4);
        Outbox { row: &mut m.out[1] }.broadcast(0b1101, Message { vertex: 5, payload: 9 });
        assert_eq!(m.flush(), 3);
        assert_eq!(m.take_inbox(0).len(), 1);
        assert!(m.take_inbox(1).is_empty(), "bit 1 unset: no self message");
        assert_eq!(m.take_inbox(2).len(), 1);
        assert_eq!(m.take_inbox(3).len(), 1);
    }

    #[test]
    fn self_send_still_buffers_one_superstep() {
        let mut m = Mailboxes::new(1);
        send(&mut m, 0, 0, Message { vertex: 0, payload: 3 });
        assert!(m.take_inbox(0).is_empty());
        m.flush();
        assert_eq!(m.take_inbox(0).len(), 1);
    }

    const SHARDS: u32 = 4;

    /// Four devices and a partition of an edgeless graph over them:
    /// the driver only needs the shard count.
    fn setup() -> (Vec<Device>, Partition) {
        let part = Partition::new(&Csr::empty(64, false), SHARDS, Strategy::Contiguous);
        (devices_for(DeviceConfig::test_small(), SHARDS), part)
    }

    /// A launch whose modeled cost depends on the shard and superstep.
    fn work(device: &Device, s: usize, step: u64) {
        let n = 40 + 25 * s + 7 * step as usize;
        launch_flat_named(device, "test.work", LaunchConfig::cover(n, 16), |t| {
            device.charge(CostKind::ThreadWork, 1 + (t.global % 3) as u64);
        });
    }

    /// Five supersteps of a synthetic phase that sends 300 messages
    /// per shard, spread over every destination. Returns every inbox
    /// each shard consumed, the messages each step moved and the
    /// clock's total bits.
    fn synthetic_run(policy: DispatchPolicy) -> (Vec<Vec<Vec<Message>>>, Vec<u64>, u64) {
        let (devices, part) = setup();
        let mut driver = Driver::new(&devices, &part);
        let mut seen: Vec<Vec<Vec<Message>>> = vec![Vec::new(); SHARDS as usize];
        let moved = with_policy(policy, || {
            (0..5u64)
                .map(|step| {
                    driver.step(&mut seen, |s, seen, device, inbox, out| {
                        seen.push(inbox);
                        work(device, s, step);
                        for i in 0..300u32 {
                            let msg = Message { vertex: s as u32 * 1000 + i, payload: step };
                            out.send((i * 7 + s as u32) % SHARDS, msg);
                        }
                    })
                })
                .collect()
        });
        (seen, moved, driver.clock.total().to_bits())
    }

    #[test]
    fn pooled_and_sequential_steps_are_bit_identical() {
        let sequential = synthetic_run(DispatchPolicy::sequential());
        assert_eq!(sequential.1, vec![1200; 5]);
        assert!(sequential.0.iter().all(|s| s[1..].iter().all(|inbox| inbox.len() == 300)));
        for _ in 0..10 {
            assert_eq!(synthetic_run(DispatchPolicy::pooled(4)), sequential);
        }
    }

    #[test]
    fn sequential_policy_runs_every_phase_on_the_caller_in_order() {
        let (devices, part) = setup();
        let mut driver = Driver::new(&devices, &part);
        let order = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        with_policy(DispatchPolicy::sequential(), || {
            for _ in 0..3 {
                driver.step(&mut [(); SHARDS as usize], |s, _, _, _, _| {
                    assert_eq!(std::thread::current().id(), caller, "shard {s}");
                    order.lock().unwrap().push(s);
                });
            }
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3].repeat(3));
    }

    /// Every launch sample of device `.0`: (device index, request,
    /// shard), into the log all devices share.
    struct Launches(usize, Arc<Mutex<Vec<(usize, u64, u32)>>>);

    impl Observer for Launches {
        fn wants(&self) -> Wants {
            Wants { samples: true, ..Wants::default() }
        }

        fn launch_end(&self, _: &Launch<'_>, _: bool, sample: Option<&LaunchSample>) {
            let sample = sample.unwrap();
            self.1.lock().unwrap().push((self.0, sample.req, sample.shard));
        }
    }

    #[test]
    fn pooled_shards_launch_in_the_request_and_their_own_shard() {
        const REQ: u64 = 0x5EED_0036;
        let (devices, part) = setup();
        let log = Arc::new(Mutex::new(Vec::new()));
        let _attached: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(d, device)| device.observe(Arc::new(Launches(d, log.clone()))))
            .collect();
        {
            let _req = CtxGuard::request(REQ);
            let mut driver = Driver::new(&devices, &part);
            with_policy(DispatchPolicy::pooled(4), || {
                for step in 0..3 {
                    driver.step(&mut [(); SHARDS as usize], |s, _, device, _, _| {
                        work(device, s, step);
                        work(device, s, step + 1);
                    });
                }
            });
        }
        let launches = log.lock().unwrap();
        assert_eq!(launches.len(), 6 * SHARDS as usize);
        for &(device, req, shard) in launches.iter() {
            assert_eq!((req, shard), (REQ, device as u32), "launch on device {device}");
        }
    }
}
