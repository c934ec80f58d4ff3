//! Recorders for the paper's two figures.
//!
//! - [`BlockSeries`]: per-(outer m, inner n, block) update counts for
//!   ECL-SCC's Figure 1 ("the number of updates performed by each
//!   thread block during every signature-propagation iteration").
//! - [`IterationBars`]: per-kernel-iteration percentage metrics for
//!   ECL-MST's Figure 2 (threads-with-work %, conflict %, useless
//!   atomics %), tagged Regular or Filter.

use parking_lot::Mutex;

use crate::table::Table;

/// Key of one recorded SCC propagation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StepKey {
    /// Outer-loop counter (pruning round), 1-based as in the paper.
    pub m: u32,
    /// Inner signature-propagation iteration, 1-based ("reflecting a
    /// do-while loop").
    pub n: u32,
}

/// Records the number of updates each thread block performed in each
/// signature-propagation iteration. Each block owns a column of
/// `(step, updates)` entries behind its own lock: a block runs on one
/// worker at a time, so the lock is uncontended, and a record appends
/// to its block's column without touching any other block's or
/// scanning the steps. Readers assemble a step's row from the columns.
#[derive(Debug)]
pub struct BlockSeries {
    columns: Box<[Column]>,
}

/// One block's entries in recording order, on its own cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Column(Mutex<Vec<(StepKey, u64)>>);

impl BlockSeries {
    /// A recorder for `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> Self {
        Self { columns: (0..num_blocks).map(|_| Column::default()).collect() }
    }

    /// Number of blocks per row.
    pub fn num_blocks(&self) -> usize {
        self.columns.len()
    }

    /// Records `updates` performed by `block` in iteration `(m, n)`.
    pub fn record(&self, m: u32, n: u32, block: usize, updates: u64) {
        assert!(block < self.columns.len(), "block id out of range");
        let key = StepKey { m, n };
        let mut column = self.columns[block].0.lock();
        match column.last_mut() {
            Some((k, u)) if *k == key => *u += updates,
            _ => column.push((key, updates)),
        }
    }

    /// All recorded iterations, sorted by (m, n).
    pub fn steps(&self) -> Vec<StepKey> {
        let mut keys = Vec::new();
        for c in self.columns.iter() {
            keys.extend(c.0.lock().iter().map(|&(k, _)| k));
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// The per-block update vector of iteration `(m, n)`, if recorded.
    pub fn row(&self, m: u32, n: u32) -> Option<Vec<u64>> {
        let key = StepKey { m, n };
        let mut recorded = false;
        let row = self
            .columns
            .iter()
            .map(|c| {
                let column = c.0.lock();
                let mut updates = column.iter().filter(|(k, _)| *k == key).peekable();
                recorded |= updates.peek().is_some();
                updates.map(|&(_, u)| u).sum()
            })
            .collect();
        recorded.then_some(row)
    }

    /// Number of inner iterations recorded for outer round `m` (the "43
    /// total signature-propagation iterations" of Figure 1).
    pub fn inner_iterations(&self, m: u32) -> u32 {
        self.steps().iter().filter(|k| k.m == m).map(|k| k.n).max().unwrap_or(0)
    }

    /// Largest outer-round index recorded ("m=1 and m=2 out of 10
    /// total").
    pub fn outer_iterations(&self) -> u32 {
        self.steps().iter().map(|k| k.m).max().unwrap_or(0)
    }

    /// Number of blocks with at least one update in iteration `(m, n)`.
    pub fn active_blocks(&self, m: u32, n: u32) -> usize {
        self.row(m, n).map(|r| r.iter().filter(|&&u| u > 0).count()).unwrap_or(0)
    }

    /// Total updates in iteration `(m, n)`.
    pub fn total_updates(&self, m: u32, n: u32) -> u64 {
        self.row(m, n).map(|r| r.iter().sum()).unwrap_or(0)
    }

    /// Renders one iteration as a `block -> updates` table, skipping
    /// zero-update blocks when `skip_zero` (the tail of Figure 1's
    /// plots is dominated by inactive blocks).
    pub fn to_table(&self, m: u32, n: u32, skip_zero: bool) -> Table {
        let mut t =
            Table::new(&format!("ECL-SCC block updates, m={m}, n={n}"), &["Block", "Updates"]);
        if let Some(row) = self.row(m, n) {
            for (b, &u) in row.iter().enumerate() {
                if !skip_zero || u > 0 {
                    t.row(&[&b.to_string(), &u.to_string()]);
                }
            }
        }
        t
    }
}

/// The kind of an ECL-MST worklist iteration (§6.1.4: "'Regular'
/// iterations ... process the light edges ...; 'Filter' iterations ...
/// handle heavier edges").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IterationKind {
    /// Light-edge pass.
    Regular,
    /// Heavy-edge / filtering pass.
    Filter,
}

/// One iteration's bar group in Figure 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationBar {
    /// Regular or Filter.
    pub kind: IterationKind,
    /// 1-based index within its kind.
    pub index: u32,
    /// Percentage of launched threads that had useful work.
    pub threads_with_work_pct: f64,
    /// Percentage of threads that conflicted on an atomic target.
    pub conflicts_pct: f64,
    /// Percentage of atomics that were useless (CAS failure or
    /// no-effect min).
    pub useless_atomics_pct: f64,
}

/// Accumulates the per-iteration bars of Figure 2.
#[derive(Debug, Default)]
pub struct IterationBars {
    bars: Mutex<Vec<IterationBar>>,
}

impl IterationBars {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one iteration's bars.
    pub fn push(&self, bar: IterationBar) {
        self.bars.lock().push(bar);
    }

    /// All recorded bars in execution order.
    pub fn bars(&self) -> Vec<IterationBar> {
        self.bars.lock().clone()
    }

    /// Bars of one kind only.
    pub fn of_kind(&self, kind: IterationKind) -> Vec<IterationBar> {
        self.bars().into_iter().filter(|b| b.kind == kind).collect()
    }

    /// Renders all bars as a table (one row per iteration).
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &["Iteration", "Kind", "Threads w/ work %", "Conflicts %", "Useless atomics %"],
        );
        for b in self.bars() {
            t.row(&[
                &b.index.to_string(),
                match b.kind {
                    IterationKind::Regular => "Regular",
                    IterationKind::Filter => "Filter",
                },
                &format!("{:.1}", b.threads_with_work_pct),
                &format!("{:.1}", b.conflicts_pct),
                &format!("{:.1}", b.useless_atomics_pct),
            ]);
        }
        t
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn block_series_records_and_queries() {
        let s = BlockSeries::new(4);
        s.record(1, 1, 0, 70);
        s.record(1, 1, 2, 68);
        s.record(1, 2, 0, 10);
        assert_eq!(s.row(1, 1), Some(vec![70, 0, 68, 0]));
        assert_eq!(s.active_blocks(1, 1), 2);
        assert_eq!(s.total_updates(1, 1), 138);
        assert_eq!(s.inner_iterations(1), 2);
        assert_eq!(s.outer_iterations(), 1);
        assert_eq!(s.row(9, 9), None);
        assert_eq!(s.active_blocks(9, 9), 0);
    }

    #[test]
    fn block_series_accumulates_same_key() {
        let s = BlockSeries::new(2);
        s.record(1, 1, 1, 3);
        s.record(1, 1, 1, 4);
        assert_eq!(s.row(1, 1), Some(vec![0, 7]));
    }

    #[test]
    fn block_series_steps_sorted() {
        let s = BlockSeries::new(1);
        s.record(2, 1, 0, 1);
        s.record(1, 3, 0, 1);
        s.record(1, 1, 0, 1);
        let keys = s.steps();
        assert_eq!(
            keys,
            vec![StepKey { m: 1, n: 1 }, StepKey { m: 1, n: 3 }, StepKey { m: 2, n: 1 },]
        );
    }

    #[test]
    #[should_panic(expected = "block id out of range")]
    fn block_series_rejects_bad_block() {
        BlockSeries::new(2).record(1, 1, 5, 1);
    }

    #[test]
    fn block_series_concurrent_recording() {
        let s = BlockSeries::new(64);
        std::thread::scope(|scope| {
            for b in 0..64 {
                let s = &s;
                scope.spawn(move || s.record(1, 1, b, b as u64));
            }
        });
        let row = s.row(1, 1).unwrap();
        assert_eq!(row[63], 63);
        assert_eq!(row.iter().sum::<u64>(), (0..64).sum::<u64>());
    }

    #[test]
    fn block_series_table_skips_zeros() {
        let s = BlockSeries::new(3);
        s.record(1, 1, 1, 5);
        let t = s.to_table(1, 1, true);
        assert_eq!(t.num_rows(), 1);
        let t_all = s.to_table(1, 1, false);
        assert_eq!(t_all.num_rows(), 3);
    }

    #[test]
    fn iteration_bars_roundtrip() {
        let bars = IterationBars::new();
        bars.push(IterationBar {
            kind: IterationKind::Regular,
            index: 1,
            threads_with_work_pct: 90.0,
            conflicts_pct: 30.0,
            useless_atomics_pct: 10.0,
        });
        bars.push(IterationBar {
            kind: IterationKind::Filter,
            index: 1,
            threads_with_work_pct: 50.0,
            conflicts_pct: 5.0,
            useless_atomics_pct: 60.0,
        });
        assert_eq!(bars.bars().len(), 2);
        assert_eq!(bars.of_kind(IterationKind::Filter).len(), 1);
        let t = bars.to_table("fig2");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(0, 1), "Regular");
        assert_eq!(t.cell(1, 1), "Filter");
    }
}
