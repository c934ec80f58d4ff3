//! One module per reproduced table/figure. Each exposes
//! `render(scale, seed) -> String`, the experiment's whole printed
//! output from a single run, plus the rows its tests check.
//!
//! [`ALL`] lists the experiments once, in the report's order, and
//! [`render`] is the one entry point: it runs an experiment in order
//! ([`in_order`]), so a table prints the same bytes on any host and
//! under any caller's dispatch policy.

use ecl_gpusim::pool::{with_policy, DispatchPolicy};

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

/// An experiment's printed output as a function of `(scale, seed)`.
pub type Render = fn(f64, u64) -> String;

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

/// The printed output of the experiment called `name`, run in order;
/// `None` if no experiment has that name.
pub fn render(name: &str, scale: f64, seed: u64) -> Option<String> {
    let &(_, _, render) = ALL.iter().find(|(n, _, _)| *n == name)?;
    Some(in_order(|| render(scale, seed)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn rendering_ignores_the_callers_pool() {
        let pooled = || with_policy(DispatchPolicy::pooled(2), || render("table6", 0.002, 3));
        let first = pooled().unwrap();
        assert_eq!(pooled().unwrap(), first);
        let sequential = with_policy(DispatchPolicy::sequential(), || table6::render(0.002, 3));
        assert_eq!(first, sequential);
    }

    #[test]
    fn unknown_names_render_nothing() {
        assert_eq!(render("table9", 0.002, 3), None);
        assert_eq!(render("all", 0.002, 3), None);
    }
}
