//! Sharded shadow memory for the race detector.
//!
//! One `CellState` per accessed counted-atomic cell, keyed by address
//! and scoped to a kernel-launch *epoch*: CUDA guarantees nothing
//! about the interleaving of threads within one launch, so two
//! conflicting non-atomic accesses by distinct agents in the same
//! epoch are a race *regardless of how the simulator happened to
//! schedule them* — detection is structural, not timing-dependent,
//! which is what makes the seeded-defect fixtures deterministic.
//! Accesses from different epochs never conflict (the host-side join
//! at launch end is a full synchronization point).
//!
//! States are reset lazily: a cell stamped with a stale epoch is
//! reinitialized on its next access instead of sweeping the map at
//! every launch boundary.

use std::collections::HashMap;
use std::sync::Mutex;

use ecl_gpusim::check::{AccessKind, Agent};

use crate::report::Rule;

const SHARDS: usize = 64;

/// Per-cell state for the current epoch. Two reader slots suffice:
/// read/write detection only needs *one* reader distinct from the
/// writer, and with two distinct readers recorded at least one always
/// differs from any later writer.
#[derive(Clone, Copy)]
struct CellState {
    epoch: u64,
    writer: Option<Agent>,
    readers: [Option<Agent>; 2],
    /// bit 0: write/write reported, bit 1: read/write reported — one
    /// report per cell per epoch, folding happens at the finding level.
    reported: u8,
}

impl CellState {
    fn fresh(epoch: u64) -> Self {
        Self { epoch, writer: None, readers: [None; 2], reported: 0 }
    }
}

/// A detected conflict on one cell.
#[derive(Clone, Copy, Debug)]
pub struct RaceHit {
    /// Which race rule fired.
    pub rule: Rule,
    /// The agent recorded earlier.
    pub first: Agent,
    /// The agent whose access completed the conflict.
    pub second: Agent,
}

/// Address-sharded shadow memory.
pub struct ShadowMemory {
    shards: Vec<Mutex<HashMap<usize, CellState>>>,
}

impl Default for ShadowMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowMemory {
    /// An empty shadow memory.
    pub fn new() -> Self {
        Self { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, addr: usize) -> &Mutex<HashMap<usize, CellState>> {
        // Fibonacci hash on the cell address (cells are ≥ 1 byte
        // apart; >> 2 drops alignment zeros) to spread neighboring
        // array cells across shards.
        let h = ((addr >> 2) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 58) as usize % SHARDS]
    }

    /// Records one non-atomic access and returns a conflict if this
    /// access completes one. Atomic accesses must be filtered out by
    /// the caller — they are exempt by construction.
    pub fn record(
        &self,
        addr: usize,
        kind: AccessKind,
        agent: Agent,
        epoch: u64,
    ) -> Option<RaceHit> {
        debug_assert!(!kind.is_atomic());
        let mut shard = self.shard(addr).lock().unwrap_or_else(|e| e.into_inner());
        let st = shard.entry(addr).or_insert_with(|| CellState::fresh(epoch));
        if st.epoch != epoch {
            *st = CellState::fresh(epoch);
        }
        match kind {
            AccessKind::Write => {
                if let Some(w) = st.writer {
                    if w != agent && st.reported & 1 == 0 {
                        st.reported |= 1;
                        return Some(RaceHit {
                            rule: Rule::WriteWriteRace,
                            first: w,
                            second: agent,
                        });
                    }
                } else {
                    // First write: a prior reader by a different agent
                    // makes this a read-then-write conflict.
                    let other = st.readers.iter().flatten().find(|&&r| r != agent).copied();
                    st.writer = Some(agent);
                    if let Some(r) = other {
                        if st.reported & 2 == 0 {
                            st.reported |= 2;
                            return Some(RaceHit {
                                rule: Rule::ReadWriteRace,
                                first: r,
                                second: agent,
                            });
                        }
                    }
                }
            }
            AccessKind::Read => {
                if let Some(w) = st.writer {
                    if w != agent && st.reported & 2 == 0 {
                        st.reported |= 2;
                        return Some(RaceHit {
                            rule: Rule::ReadWriteRace,
                            first: w,
                            second: agent,
                        });
                    }
                }
                // Remember up to two distinct readers.
                if !st.readers.iter().flatten().any(|&r| r == agent) {
                    if let Some(slot) = st.readers.iter_mut().find(|s| s.is_none()) {
                        *slot = Some(agent);
                    }
                }
            }
            AccessKind::AtomicUpdated
            | AccessKind::AtomicNoEffect
            | AccessKind::AtomicCasFailed => {}
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn t(block: u32, lane: u32) -> Agent {
        Agent::thread(block, lane)
    }

    #[test]
    fn write_write_conflict_reported_once_per_cell() {
        let s = ShadowMemory::new();
        assert!(s.record(100, AccessKind::Write, t(0, 0), 1).is_none());
        let hit = s.record(100, AccessKind::Write, t(0, 1), 1).expect("w/w conflict");
        assert_eq!(hit.rule, Rule::WriteWriteRace);
        assert_eq!(hit.first, t(0, 0));
        assert_eq!(hit.second, t(0, 1));
        // Further writers on the same cell+epoch fold silently.
        assert!(s.record(100, AccessKind::Write, t(0, 2), 1).is_none());
    }

    #[test]
    fn same_agent_never_conflicts_with_itself() {
        let s = ShadowMemory::new();
        assert!(s.record(8, AccessKind::Write, t(1, 1), 1).is_none());
        assert!(s.record(8, AccessKind::Write, t(1, 1), 1).is_none());
        assert!(s.record(8, AccessKind::Read, t(1, 1), 1).is_none());
    }

    #[test]
    fn read_write_both_orders() {
        let s = ShadowMemory::new();
        // Write then read.
        assert!(s.record(16, AccessKind::Write, t(0, 0), 1).is_none());
        let hit = s.record(16, AccessKind::Read, t(0, 1), 1).expect("r after w");
        assert_eq!(hit.rule, Rule::ReadWriteRace);
        // Read then write (different cell).
        assert!(s.record(32, AccessKind::Read, t(0, 0), 1).is_none());
        let hit = s.record(32, AccessKind::Write, t(0, 1), 1).expect("w after r");
        assert_eq!(hit.rule, Rule::ReadWriteRace);
        assert_eq!(hit.first, t(0, 0));
    }

    #[test]
    fn many_readers_then_writer_who_also_read() {
        let s = ShadowMemory::new();
        for lane in 0..10 {
            assert!(s.record(64, AccessKind::Read, t(0, lane), 1).is_none());
        }
        // The writer is one of the recorded readers: the other
        // recorded reader still completes the conflict.
        let hit = s.record(64, AccessKind::Write, t(0, 0), 1).expect("r/w");
        assert_eq!(hit.rule, Rule::ReadWriteRace);
        assert_ne!(hit.first, t(0, 0));
    }

    #[test]
    fn epochs_isolate_launches() {
        let s = ShadowMemory::new();
        assert!(s.record(4, AccessKind::Write, t(0, 0), 1).is_none());
        // Same cell, different epoch: no conflict, state reset.
        assert!(s.record(4, AccessKind::Write, t(0, 1), 2).is_none());
        // ... but a further writer in epoch 2 conflicts with the epoch-2 writer.
        let hit = s.record(4, AccessKind::Write, t(0, 2), 2).expect("w/w in epoch 2");
        assert_eq!(hit.first, t(0, 1));
    }

    #[test]
    fn block_and_warp_agents_participate() {
        let s = ShadowMemory::new();
        assert!(s.record(4, AccessKind::Write, Agent::block_wide(0), 5).is_none());
        let hit = s.record(4, AccessKind::Write, Agent::block_wide(1), 5).expect("w/w");
        assert_eq!(hit.rule, Rule::WriteWriteRace);
        assert!(s.record(44, AccessKind::Write, Agent::warp(0, 0), 5).is_none());
        assert!(
            s.record(44, AccessKind::Read, Agent::warp(0, 1), 5).is_some(),
            "distinct warps of one block do conflict"
        );
    }
}
