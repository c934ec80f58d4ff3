//! One module per reproduced table/figure. Each declares its cells on a
//! resident input (`keys`: algorithm × schedule, `None` where it does
//! not read the input), folds their in-order runs into one `row` per
//! input, and renders the rows (`render`). The cell runner
//! ([`ecl_algos::cells`]) visits the registry's inputs one at a time
//! and runs each distinct cell once for all the experiments of a pass,
//! so a table prints the same bytes alone or in `all`, on any host,
//! under any caller's dispatch policy. [`ALL`] lists the experiments in
//! the report's order.

use std::io::{self, Write};

use ecl_algos::cells::{self, Input, Key, Run, Visitor};
use ecl_graphgen::{all_inputs, general_inputs};
use ecl_profiling::{Counter, SketchSnapshot};

pub mod fig1;
pub mod fig2;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

/// A reproduced table or figure, as the runner visits it.
pub trait Experiment: Visitor {
    /// The printed output, from the rows the visits folded.
    fn render(&self, scale: f64) -> String;
}

/// An experiment module's `keys`, `row` and `render`, and the rows
/// folded so far.
struct Rows<R> {
    keys: fn(&Input) -> Option<Vec<Key>>,
    row: fn(&Input, &[&Run]) -> R,
    render: fn(f64, &[R]) -> String,
    rows: Vec<R>,
}

impl<R> Visitor for Rows<R> {
    fn keys(&mut self, input: &Input) -> Option<Vec<Key>> {
        (self.keys)(input)
    }

    fn fold(&mut self, input: &Input, runs: &[&Run]) {
        self.rows.push((self.row)(input, runs));
    }
}

impl<R> Experiment for Rows<R> {
    fn render(&self, scale: f64) -> String {
        (self.render)(scale, &self.rows)
    }
}

/// A fresh experiment, nothing visited yet.
pub type New = fn() -> Box<dyn Experiment>;

/// The [`New`] of the experiment module `$m`.
macro_rules! new {
    ($m:ident) => {
        || Box::new(Rows { keys: $m::keys, row: $m::row, render: $m::render, rows: Vec::new() })
    };
}

/// Every experiment as `(name, title, new)`, in the report's order.
pub const ALL: [(&str, &str, New); 10] = [
    ("table1", "Table 1 — input graphs", new!(table1)),
    ("table2", "Table 2 — ECL-MIS per-thread metrics", new!(table2)),
    ("table3", "Table 3 — ECL-MIS across runs", new!(table3)),
    ("table4", "Table 4 — ECL-CC init kernel", new!(table4)),
    ("table5", "Table 5 — ECL-GC runLarge statistics", new!(table5)),
    ("table6", "Table 6 — ECL-SCC block-size speedups", new!(table6)),
    ("table7", "Table 7 — ECL-CC init-optimization speedups", new!(table7)),
    ("table8", "Table 8 — ECL-MST launch-configuration fix", new!(table8)),
    ("fig1", "Figure 1 — ECL-SCC code progression (star)", new!(fig1)),
    ("fig2", "Figure 2 — ECL-MST iteration metrics (amazon0601)", new!(fig2)),
];

/// Whether `input` is one of the 17 general (non-SCC) inputs.
fn general(input: &Input) -> bool {
    general_inputs().iter().any(|spec| spec.name == input.spec.name)
}

/// The count `name` among a run's aggregates or counters.
fn count(run: &Run, name: &str) -> u64 {
    match run.outcome.aggregates.iter().find(|(n, _)| *n == name) {
        Some(&(_, v)) => v,
        None => match counter(run, name) {
            Counter::Count(v) => *v,
            _ => panic!("{name} is not a count"),
        },
    }
}

/// The sketch counter `name` of a run.
fn sketch(run: &Run, name: &str) -> SketchSnapshot {
    match counter(run, name) {
        Counter::Sketch(s) => s.clone(),
        _ => panic!("{name} is not a sketch"),
    }
}

fn counter<'a>(run: &'a Run, name: &str) -> &'a Counter {
    let found = run.outcome.counters.iter().find(|(n, _)| *n == name);
    &found.unwrap_or_else(|| panic!("no counter {name}")).1
}

/// Runs `experiments` on one pass of the cell runner over the
/// registry's inputs; returns the runner's executions ([`cells::run`]).
pub fn run(
    experiments: &mut [Box<dyn Experiment>],
    scale: f64,
    seed: u64,
) -> Vec<(&'static str, Key)> {
    let mut visitors: Vec<&mut dyn Visitor> =
        experiments.iter_mut().map(|e| &mut **e as &mut dyn Visitor).collect();
    cells::run(all_inputs(), scale, seed, &mut visitors)
}

/// The printed output of the experiment called `name` at
/// `scale`/`seed`; `None` if no experiment has that name.
pub fn render(name: &str, scale: f64, seed: u64) -> Option<String> {
    let &(_, _, new) = ALL.iter().find(|(n, _, _)| *n == name)?;
    let mut experiment = [new()];
    run(&mut experiment, scale, seed);
    Some(experiment[0].render(scale))
}

/// Writes every experiment as one markdown report: a heading and a
/// fenced block per experiment, all folded from one pass of the runner.
pub fn report(scale: f64, seed: u64, out: &mut impl Write) -> io::Result<()> {
    let mut experiments: Vec<Box<dyn Experiment>> = ALL.iter().map(|(_, _, new)| new()).collect();
    run(&mut experiments, scale, seed);
    write!(
        out,
        "# ecl-profiling-rs experiment report\n\nscale {scale}, seed {seed}. \
         Shapes are checked against the paper; see EXPERIMENTS.md for the\n\
         full paper-vs-measured discussion.\n\n"
    )?;
    for ((_, title, _), experiment) in ALL.iter().zip(&experiments) {
        write!(out, "## {title}\n\n```text\n{}```\n\n", experiment.render(scale))?;
    }
    Ok(())
}

/// The rows `keys` and `row` fold from one pass of the runner alone
/// (the experiments' tests read them).
#[cfg(test)]
fn visited<R>(
    keys: fn(&Input) -> Option<Vec<Key>>,
    row: fn(&Input, &[&Run]) -> R,
    scale: f64,
    seed: u64,
) -> Vec<R> {
    let mut rows = Rows { keys, row, render: |_, _| String::new(), rows: Vec::new() };
    cells::run(all_inputs(), scale, seed, &mut [&mut rows]);
    rows.rows
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use ecl_gpusim::pool::{with_policy, DispatchPolicy};

    use super::*;

    #[test]
    fn rendering_ignores_the_callers_pool() {
        let table6 = |policy| with_policy(policy, || render("table6", 0.002, 3).unwrap());
        let first = table6(DispatchPolicy::pooled(2));
        assert_eq!(table6(DispatchPolicy::pooled(2)), first);
        assert_eq!(table6(DispatchPolicy::sequential()), first);
    }

    #[test]
    fn the_report_equals_each_experiment_on_fresh_inputs() {
        let mut text = Vec::new();
        report(0.002, 3, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let sections: Vec<&str> =
            text.split("```text\n").skip(1).map(|s| s.split_once("```").unwrap().0).collect();
        assert_eq!(sections.len(), ALL.len());
        for ((name, title, _), section) in ALL.iter().zip(sections) {
            assert!(text.contains(&format!("## {title}\n")), "{name}");
            assert_eq!(section, render(name, 0.002, 3).unwrap(), "{name}");
        }
    }

    #[test]
    fn unknown_names_render_nothing() {
        assert_eq!(render("table9", 0.002, 3), None);
        assert_eq!(render("all", 0.002, 3), None);
    }
}
