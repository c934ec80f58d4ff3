//! One module per reproduced table/figure. Each exposes
//! `render(&Inputs) -> String`, the experiment's whole printed output,
//! plus the rows its tests check. An experiment maps its cells (input ×
//! configuration) with [`run_cells`] and folds the results in cell
//! order, so a table prints the same bytes on any host, under any
//! caller's dispatch policy and whatever the number of host threads.
//! [`ALL`] lists the experiments in the report's order.

use std::io::{self, Write};

use ecl_gpusim::pool::{with_policy, DispatchPolicy};
use rayon::prelude::*;

use crate::Inputs;

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

/// An experiment's printed output as a function of its inputs.
pub type Render = fn(&Inputs) -> String;

/// Every experiment as `(name, title, render)`, in the report's order.
pub const ALL: [(&str, &str, Render); 10] = [
    ("table1", "Table 1 — input graphs", table1::render),
    ("table2", "Table 2 — ECL-MIS per-thread metrics", table2::render),
    ("table3", "Table 3 — ECL-MIS across runs", table3::render),
    ("table4", "Table 4 — ECL-CC init kernel", table4::render),
    ("table5", "Table 5 — ECL-GC runLarge statistics", table5::render),
    ("table6", "Table 6 — ECL-SCC block-size speedups", table6::render),
    ("table7", "Table 7 — ECL-CC init-optimization speedups", table7::render),
    ("table8", "Table 8 — ECL-MST launch-configuration fix", table8::render),
    ("fig1", "Figure 1 — ECL-SCC code progression (star)", fig1::render),
    ("fig2", "Figure 2 — ECL-MST iteration metrics (amazon0601)", fig2::render),
];

/// Runs `f` with one simulator worker: in-order execution, the
/// schedule whose modeled time is a pure function of the inputs. The
/// paper's tables are printed, and their shapes tested, under it.
pub fn in_order<R>(f: impl FnOnce() -> R) -> R {
    with_policy(DispatchPolicy::sequential(), f)
}

/// Runs `cell` on every cell side by side, one host thread per
/// available core, each in order ([`in_order`]) on its own device; the
/// results come back in cell order.
pub fn run_cells<T: Send, R: Send>(
    cells: impl IntoIterator<Item = T>,
    cell: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let cells: Vec<T> = cells.into_iter().collect();
    cells.into_par_iter().map(|c| in_order(|| cell(c))).collect()
}

/// The printed output of the experiment called `name`; `None` if no
/// experiment has that name.
pub fn render(name: &str, inputs: &Inputs) -> Option<String> {
    let &(_, _, render) = ALL.iter().find(|(n, _, _)| *n == name)?;
    Some(render(inputs))
}

/// Writes every experiment as one markdown report: a heading and a
/// fenced block per experiment, all on `inputs`.
pub fn report(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    write!(
        out,
        "# ecl-profiling-rs experiment report\n\nscale {}, seed {}. \
         Shapes are checked against the paper; see EXPERIMENTS.md for the\n\
         full paper-vs-measured discussion.\n\n",
        inputs.scale(),
        inputs.seed()
    )?;
    for (_, title, render) in ALL {
        write!(out, "## {title}\n\n```text\n{}```\n\n", render(inputs))?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn rendering_ignores_the_callers_pool() {
        let pooled =
            || with_policy(DispatchPolicy::pooled(2), || render("table6", &Inputs::new(0.002, 3)));
        let first = pooled().unwrap();
        assert_eq!(pooled().unwrap(), first);
        let sequential =
            with_policy(DispatchPolicy::sequential(), || table6::render(&Inputs::new(0.002, 3)));
        assert_eq!(first, sequential);
    }

    #[test]
    fn cells_run_side_by_side_give_the_sequential_answer() {
        let cell = |i: u64| (i, ecl_gpusim::pool::effective_workers());
        let side_by_side = run_cells(0..64, cell);
        let sequential: Vec<_> = (0..64).map(|i| in_order(|| cell(i))).collect();
        assert_eq!(side_by_side, sequential);
        assert!(side_by_side.iter().all(|&(_, workers)| workers == 1));
    }

    #[test]
    fn the_report_equals_each_experiment_on_fresh_inputs() {
        let shared = Inputs::new(0.002, 3);
        let mut text = Vec::new();
        report(&shared, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let sections: Vec<&str> =
            text.split("```text\n").skip(1).map(|s| s.split_once("```").unwrap().0).collect();
        assert_eq!(sections.len(), ALL.len());
        for ((name, title, _), section) in ALL.iter().zip(sections) {
            assert!(text.contains(&format!("## {title}\n")), "{name}");
            assert_eq!(section, render(name, &Inputs::new(0.002, 3)).unwrap(), "{name}");
        }
    }

    #[test]
    fn unknown_names_render_nothing() {
        let inputs = Inputs::new(0.002, 3);
        assert_eq!(render("table9", &inputs), None);
        assert_eq!(render("all", &inputs), None);
    }
}
