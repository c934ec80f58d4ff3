//! Table 3: ECL-MIS iteration counts across multiple runs.
//!
//! The paper's point (§3/§6.1.1): on the GPU the code is internally
//! non-deterministic — per-thread iteration counts differ run to run —
//! but the trends are stable and the *final result* is identical. Here
//! every run is in order, so the three runs are one cell (Table 2's
//! run, too) and the three column pairs print the same numbers; "Same
//! result" still compares the three outcomes' selected sets.

use ecl_algos::cells::{Input, Key, Run};
use ecl_profiling::{SketchSnapshot, Table};

use super::{count, general, sketch};

/// Runs per input, as in the paper.
pub const REPS: usize = 3;

/// Per-input iteration summaries of the runs.
#[derive(Debug)]
pub struct Row {
    /// Input name.
    pub name: &'static str,
    /// The per-thread iteration counts of each run.
    pub runs: Vec<SketchSnapshot>,
    /// Whether the selected set was identical across runs.
    pub deterministic_result: bool,
}

/// ECL-MIS [`REPS`] times on every general input: one key.
pub fn keys(input: &Input) -> Option<Vec<Key>> {
    general(input).then(|| vec![Key::new("mis", &[]); REPS])
}

/// Each run's iteration counts, and whether the selected sets agree.
pub fn row(input: &Input, runs: &[&Run]) -> Row {
    let set = |run| count(run, "set_checksum");
    Row {
        name: input.spec.name,
        runs: runs.iter().map(|run| sketch(run, "mis/iterations")).collect(),
        deterministic_result: runs.iter().all(|&run| set(run) == set(runs[0])),
    }
}

/// Renders the paper-shaped table.
pub fn render(scale: f64, rows: &[Row]) -> String {
    let mut t = Table::new(
        &format!("Table 3: ECL-MIS iterations across runs (scale {scale})"),
        &[
            "Graph",
            "Run1 Avg",
            "Run1 Max",
            "Run2 Avg",
            "Run2 Max",
            "Run3 Avg",
            "Run3 Max",
            "Same result",
        ],
    );
    for r in rows {
        let mut cells: Vec<String> = vec![r.name.to_string()];
        for run in &r.runs {
            cells.push(format!("{:.2}", run.mean()));
            cells.push(run.max.to_string());
        }
        cells.push(if r.deterministic_result { "yes" } else { "NO" }.to_string());
        t.row_owned(cells);
    }
    t.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiments::visited;

    #[test]
    fn results_deterministic_trends_stable() {
        // Subset of inputs at tiny scale for speed: take the produced
        // rows and check the paper's two claims. In order, the runs
        // agree exactly.
        let rs = visited(keys, row, 0.002, 11);
        for r in rs.iter().take(5) {
            assert!(r.deterministic_result, "{}: final MIS differed across runs", r.name);
            assert_eq!(r.runs.len(), REPS);
            assert!(r.runs.iter().all(|run| *run == r.runs[0]), "{}: runs differ", r.name);
        }
    }
}
