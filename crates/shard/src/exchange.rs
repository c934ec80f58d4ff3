//! The superstep driver and its double-buffered cross-shard mailboxes.
//!
//! Every sharded runner is a sequence of calls on one `Driver`. A
//! superstep runs a phase on every shard in ascending order, each in
//! its shard context: the phase consumes its inbox and pushes messages
//! into per-destination *outboxes*. [`Mailboxes::flush`] then moves the
//! outboxes into the destinations' *inboxes*, merging in ascending
//! source-shard order, and the slowest shard's compute delta plus the
//! exchange term go into the run's [`ShardClock`]. Nothing a shard
//! sends is visible to any shard — itself included — before the next
//! superstep, so results do not depend on the order shards run in, and
//! any two runs that issue the same sends deliver the same inboxes in
//! the same order.
//!
//! Termination has one rule: stop after a superstep that moved no
//! message. Every runner publishes every boundary change it makes, so
//! such a superstep leaves every shard at its local fixpoint with
//! current mirrors.

use ecl_gpusim::ctx::CtxGuard;
use ecl_gpusim::Device;

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

    /// Queues `msg` from shard `src` to shard `dst` for delivery at
    /// the next flush.
    #[inline]
    pub fn send(&mut self, src: u32, dst: u32, msg: Message) {
        self.out[src as usize][dst as usize].push(msg);
    }

    /// Queues `msg` from `src` to every shard named in the holder
    /// bitmask (bit `s` = shard `s`), the owner-to-mirrors broadcast.
    pub fn broadcast(&mut self, src: u32, holders: u64, msg: Message) {
        let mut mask = holders;
        while mask != 0 {
            let dst = mask.trailing_zeros();
            self.send(src, dst, msg);
            mask &= mask - 1;
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

    /// One superstep: `phase(shard, device, inbox, mail)` on every shard
    /// in ascending order, then a flush. Folds the slowest shard's
    /// modeled delta and the messages moved into the clock, and returns
    /// the messages moved.
    pub(crate) fn step(
        &mut self,
        mut phase: impl FnMut(usize, &Device, Vec<Message>, &mut Mailboxes),
    ) -> u64 {
        let mut slowest = 0.0f64;
        for (s, device) in self.devices.iter().enumerate() {
            let before = device.modeled_time();
            let _guard = CtxGuard::shard(s as u32);
            phase(s, device, self.mail.take_inbox(s as u32), &mut self.mail);
            slowest = slowest.max(device.modeled_time() - before);
        }
        let moved = self.mail.flush();
        self.clock.superstep(self.devices[0].params(), slowest, moved);
        moved
    }

    /// Repeats [`Driver::step`] until a superstep moves no message.
    pub(crate) fn step_to_fixpoint(
        &mut self,
        mut phase: impl FnMut(usize, &Device, Vec<Message>, &mut Mailboxes),
    ) {
        while self.step(&mut phase) > 0 {}
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

    #[test]
    fn starts_quiescent() {
        let mut m = Mailboxes::new(3);
        assert!((0..3).all(|s| m.take_inbox(s).is_empty()));
        assert_eq!(m.flush(), 0);
    }

    #[test]
    fn send_breaks_quiescence_until_consumed() {
        let mut m = Mailboxes::new(2);
        m.send(0, 1, Message { vertex: 7, payload: 42 });
        assert!(m.take_inbox(1).is_empty(), "pending outbox");
        assert_eq!(m.flush(), 1);
        assert_eq!(m.take_inbox(1), vec![Message { vertex: 7, payload: 42 }]);
        assert_eq!(m.flush(), 0, "consumed: the next superstep is quiet");
    }

    #[test]
    fn flush_merges_in_ascending_source_order() {
        let mut m = Mailboxes::new(3);
        m.send(2, 0, Message { vertex: 20, payload: 0 });
        m.send(0, 0, Message { vertex: 1, payload: 0 });
        m.send(1, 0, Message { vertex: 10, payload: 0 });
        m.send(1, 0, Message { vertex: 11, payload: 0 });
        m.flush();
        let got: Vec<u32> = m.take_inbox(0).iter().map(|msg| msg.vertex).collect();
        assert_eq!(got, vec![1, 10, 11, 20]);
    }

    #[test]
    fn double_buffering_delays_delivery_one_flush() {
        let mut m = Mailboxes::new(2);
        m.send(0, 1, Message { vertex: 1, payload: 1 });
        m.flush();
        // A send during the "next superstep" is not visible in the
        // already-delivered inbox.
        m.send(0, 1, Message { vertex: 2, payload: 2 });
        assert_eq!(m.take_inbox(1).len(), 1);
        m.flush();
        assert_eq!(m.take_inbox(1), vec![Message { vertex: 2, payload: 2 }]);
    }

    #[test]
    fn broadcast_hits_every_holder_bit() {
        let mut m = Mailboxes::new(4);
        m.broadcast(1, 0b1101, Message { vertex: 5, payload: 9 });
        assert_eq!(m.flush(), 3);
        assert_eq!(m.take_inbox(0).len(), 1);
        assert!(m.take_inbox(1).is_empty(), "bit 1 unset: no self message");
        assert_eq!(m.take_inbox(2).len(), 1);
        assert_eq!(m.take_inbox(3).len(), 1);
    }

    #[test]
    fn self_send_still_buffers_one_superstep() {
        let mut m = Mailboxes::new(1);
        m.send(0, 0, Message { vertex: 0, payload: 3 });
        assert!(m.take_inbox(0).is_empty());
        m.flush();
        assert_eq!(m.take_inbox(0).len(), 1);
    }
}
