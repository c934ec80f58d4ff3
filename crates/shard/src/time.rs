//! Modeled-time aggregation for multi-pool runs.
//!
//! Each shard executes on its own simulated [`ecl_gpusim::Device`],
//! which accumulates that shard's modeled compute cost. The shards
//! model *parallel* hardware (one GPU per shard), so a superstep's
//! latency is the **maximum** per-shard compute delta — the slowest
//! shard gates the barrier — plus an exchange term for the cross-shard
//! traffic the superstep produced:
//!
//! - one kernel-launch-weight hop per superstep that moved messages
//!   (the transfer batch submission),
//! - per message, one atomic (the merge into the destination's state)
//!   plus one thread-work unit (payload application),
//! - one host-reconfiguration weight per superstep for the global
//!   fixpoint detector, charged at every shard count — including one —
//!   so single-shard modeled time is an honest baseline for the
//!   scaling curve rather than a free ride.
//!
//! The accumulation is pure `f64` arithmetic over deterministic
//! inputs, so repeated runs produce bit-identical totals.

use ecl_gpusim::CostParams;

/// Running modeled-time account of one sharded run; the default is a
/// zeroed clock.
#[derive(Clone, Debug, Default)]
pub struct ShardClock {
    total: f64,
    supersteps: u32,
    messages: u64,
}

impl ShardClock {
    /// Folds in one superstep: `max_shard_delta` is the largest
    /// per-shard modeled-compute delta of the superstep, `messages`
    /// the count the exchange moved.
    pub fn superstep(&mut self, params: &CostParams, max_shard_delta: f64, messages: u64) {
        let transfer = if messages > 0 {
            params.kernel_launch + messages as f64 * (params.atomic + params.thread_work)
        } else {
            0.0
        };
        self.total += max_shard_delta + transfer + params.host_reconfig;
        self.supersteps += 1;
        self.messages += messages;
    }

    /// Modeled time so far (cost-weight units).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Supersteps folded in.
    pub fn supersteps(&self) -> u32 {
        self.supersteps
    }

    /// Exchange messages folded in.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn quiet_superstep_charges_detector_only() {
        let params = CostParams::default();
        let mut clock = ShardClock::default();
        clock.superstep(&params, 100.0, 0);
        assert_eq!(clock.total(), 100.0 + params.host_reconfig);
        assert_eq!(clock.supersteps(), 1);
        assert_eq!(clock.messages(), 0);
    }

    #[test]
    fn messages_add_transfer_term() {
        let params = CostParams::default();
        let mut clock = ShardClock::default();
        clock.superstep(&params, 50.0, 10);
        let expect = 50.0
            + params.kernel_launch
            + 10.0 * (params.atomic + params.thread_work)
            + params.host_reconfig;
        assert_eq!(clock.total(), expect);
        assert_eq!(clock.messages(), 10);
    }

    #[test]
    fn accumulation_is_deterministic() {
        let params = CostParams::default();
        let run = || {
            let mut clock = ShardClock::default();
            for step in 0..100u64 {
                clock.superstep(&params, (step * 37 % 11) as f64, step % 5);
            }
            clock.total().to_bits()
        };
        assert_eq!(run(), run());
    }
}
