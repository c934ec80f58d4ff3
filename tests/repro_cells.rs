//! `ecl-repro all` through the cell runner: every (input, algorithm,
//! schedule) key runs exactly once, however many experiments declare
//! it, and no input's graph outlives its last cell.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

use ecl_bench::experiments::{self, Experiment, ALL};
use ecl_suite::algos::cells::{Input, Key, Run, Visitor};
use ecl_suite::graph::Csr;

type Graphs = Arc<Mutex<Vec<(&'static str, Weak<Csr>)>>>;

/// Declares no cell on any input; keeps a `Weak` to each graph it
/// folds and, at every later input, checks that those graphs are gone.
struct Lifetimes(Graphs);

impl Visitor for Lifetimes {
    fn keys(&mut self, input: &Input) -> Option<Vec<Key>> {
        for (name, graph) in self.0.lock().unwrap().iter() {
            let at = input.spec.name;
            assert!(graph.upgrade().is_none(), "{name}'s graph is still resident at {at}");
        }
        Some(Vec::new())
    }

    fn fold(&mut self, input: &Input, _: &[&Run]) {
        self.0.lock().unwrap().push((input.spec.name, Arc::downgrade(input.shared())));
    }
}

impl Experiment for Lifetimes {
    fn render(&self, _: f64) -> String {
        String::new()
    }
}

#[test]
fn all_runs_each_key_once_and_drops_each_graph_after_its_last_cell() {
    let graphs = Graphs::default();
    let mut all: Vec<Box<dyn Experiment>> = ALL.iter().map(|(_, _, new)| new()).collect();
    all.push(Box::new(Lifetimes(Arc::clone(&graphs))));
    let executed = experiments::run(&mut all, 0.002, 42);

    let mut per_key: HashMap<(&str, &str, String), usize> = HashMap::new();
    for (input, key) in &executed {
        *per_key.entry((input, key.algo.name(), key.schedule.to_json())).or_default() += 1;
    }
    for ((input, algo, schedule), runs) in &per_key {
        assert_eq!(*runs, 1, "{algo} {schedule} on {input}");
    }
    let untuned = |algo: &str| {
        let runs = executed.iter().filter(|(_, key)| key.algo.name() == algo);
        runs.filter(|(_, key)| key.schedule == key.algo.default_schedule()).count()
    };
    // Table 2 and Table 3's three runs: one in-order cell per input.
    assert_eq!(untuned("mis"), 17);
    // Table 4 and Table 7's baseline half.
    assert_eq!(untuned("cc"), 17);

    let graphs = graphs.lock().unwrap();
    assert_eq!(graphs.len(), 22, "Table 1 reads every input");
    for (name, graph) in graphs.iter() {
        assert!(graph.upgrade().is_none(), "{name}'s graph outlived the run");
    }
}
