//! The cell runner. A cell is a [`Key`] (a registered algorithm under a
//! schedule) on an [`Input`]; the paper's tables are grids of cells
//! that overlap (Tables 4 and 7 read one baseline ECL-CC run, Tables 2
//! and 3 one ECL-MIS run). [`run`] visits the inputs one at a time, runs
//! each distinct key once through [`execute`], in order, side by side
//! on one worker per core, and folds every [`Visitor`]'s runs in the
//! order it declared them before the input drops. The next inputs are
//! generated while the cells run, so at most three graphs are resident,
//! and the folds see the same runs on any host and under any caller's
//! dispatch policy.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

use ecl_gpusim::pool::{with_policy, DispatchPolicy};
use ecl_gpusim::{KnobValue, Schedule};
use ecl_graph::{Csr, WeightedCsr};
use ecl_graphgen::{InputSpec, DEFAULT_MAX_WEIGHT};
use rayon::prelude::*;

use crate::{check_directedness, execute, Algorithm, Outcome, Views};

/// A registry input at one (scale, seed): the graph and its weighted
/// view (sharing it) are made on first use and drop with the `Input`.
pub struct Input {
    /// The registry entry.
    pub spec: &'static InputSpec,
    /// Generation scale; it also sizes the device of every run.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    graph: OnceLock<Arc<Csr>>,
    weighted: OnceLock<WeightedCsr>,
}

impl Input {
    /// `spec` at `scale`/`seed`; nothing is generated yet.
    pub fn new(spec: &'static InputSpec, scale: f64, seed: u64) -> Input {
        Input { spec, scale, seed, graph: OnceLock::new(), weighted: OnceLock::new() }
    }

    /// The registry input called `name`.
    pub fn from_registry(name: &str, scale: f64, seed: u64) -> Result<Input, String> {
        let spec = ecl_graphgen::registry::find(name)
            .ok_or_else(|| format!("unknown registry input {name:?}"))?;
        Ok(Input::new(spec, scale, seed))
    }

    /// The graph's shared handle.
    pub fn shared(&self) -> &Arc<Csr> {
        self.graph.get_or_init(|| Arc::new(self.spec.generate(self.scale, self.seed)))
    }

    /// The graph.
    pub fn graph(&self) -> &Csr {
        self.shared()
    }

    /// The weighted view, sharing [`Self::graph`]; panics for a directed
    /// input.
    pub fn weighted(&self) -> &WeightedCsr {
        let weigh = || self.spec.weigh(Arc::clone(self.shared()), self.seed, DEFAULT_MAX_WEIGHT);
        self.weighted.get_or_init(weigh)
    }

    /// The views `algo` consumes: the graph, and the weighted view for
    /// a weighted algorithm on an undirected input.
    pub fn views(&self, algo: &dyn Algorithm) -> Views<'_> {
        let weighted = (algo.weighted() && !self.spec.directed).then(|| self.weighted());
        Views { name: self.spec.name, csr: self.graph(), weighted }
    }

    /// Whether `algo` can run on this input (its directedness).
    pub fn supports(&self, algo: &dyn Algorithm) -> bool {
        check_directedness(algo, self.spec.name, self.spec.directed).is_ok()
    }

    /// Runs `algo` under `schedule` through [`execute`] in order (one
    /// simulator worker, whatever the caller's policy): the modeled time
    /// is a pure function of (algorithm, input, schedule).
    pub fn run(&self, algo: &dyn Algorithm, schedule: &Schedule) -> Result<Run, String> {
        let views = self.views(algo);
        let sequential = || execute(algo, self.scale, &views, Some(schedule));
        let (outcome, modeled_time) = with_policy(DispatchPolicy::sequential(), sequential)?;
        Ok(Run { outcome, modeled_time })
    }
}

/// One cell on an input: a registered algorithm under a schedule.
#[derive(Clone)]
pub struct Key {
    /// The algorithm.
    pub algo: &'static dyn Algorithm,
    /// Every knob of its schedule.
    pub schedule: Schedule,
}

impl Key {
    /// The registered algorithm `name` under its default schedule with
    /// `knobs` set; panics for an unregistered name.
    pub fn new(name: &str, knobs: &[(&str, KnobValue)]) -> Key {
        let algo = crate::find(name).unwrap_or_else(|| panic!("no algorithm {name:?}"));
        let mut schedule = algo.default_schedule();
        for (knob, value) in knobs {
            schedule.set(knob, value.clone());
        }
        Key { algo, schedule }
    }

    fn same(&self, other: &Key) -> bool {
        self.algo.name() == other.algo.name() && self.schedule == other.schedule
    }
}

/// A cell's in-order result.
#[derive(Debug)]
pub struct Run {
    /// What the algorithm reported.
    pub outcome: Outcome,
    /// The device's modeled time.
    pub modeled_time: f64,
}

/// What [`run`] visits the inputs for.
pub trait Visitor {
    /// The keys read on the resident `input` (facts of the graph may be
    /// read here too), `None` if it is not read. Asked up to two inputs
    /// ahead of the folds.
    fn keys(&mut self, input: &Input) -> Option<Vec<Key>>;

    /// The runs of the declared keys, in their order, with `input`
    /// resident; inputs fold in visiting order, in order like the cells.
    fn fold(&mut self, input: &Input, runs: &[&Run]);
}

/// `f` on every item side by side, one host thread per core, each in
/// order (one simulator worker); the results come back in item order.
pub fn side_by_side<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let in_order = |item| with_policy(DispatchPolicy::sequential(), || f(item));
    items.into_par_iter().map(in_order).collect()
}

/// Each visitor's keys on `input` as positions among the distinct keys
/// returned with them; `None` if no visitor reads the input.
fn declare(input: &Input, visitors: &mut [&mut dyn Visitor]) -> Option<(Declared, Vec<Key>)> {
    let mut distinct: Vec<Key> = Vec::new();
    let mut position = |key: Key| {
        distinct.iter().position(|k| k.same(&key)).unwrap_or_else(|| {
            distinct.push(key);
            distinct.len() - 1
        })
    };
    let declared: Declared = visitors
        .iter_mut()
        .map(|visitor| Some(visitor.keys(input)?.into_iter().map(&mut position).collect()))
        .collect();
    declared.iter().any(Option::is_some).then_some((declared, distinct))
}

type Declared = Vec<Option<Vec<usize>>>;
type Task = Box<dyn FnOnce() + Send>;

/// A queued input: each visitor's keys as positions among its `cells`
/// distinct ones, whose runs arrive on `done`.
struct Visit {
    input: Arc<Input>,
    declared: Declared,
    cells: usize,
    done: Receiver<(usize, Run)>,
}

impl Visit {
    /// Queues the `distinct` keys on the workers, each run sent with its
    /// position. The cells of a weighted algorithm share one lane: each
    /// builds per-edge worklists several times the graph's size, so side
    /// by side they would double the peak (two ECL-MST runs on
    /// europe_osm). A lane that panics drops its sender, so the fold
    /// finds its runs missing.
    fn queue(
        input: Arc<Input>,
        declared: Declared,
        distinct: Vec<Key>,
        tasks: &Sender<Task>,
    ) -> Visit {
        let (sender, done) = mpsc::channel();
        let cells = distinct.len();
        let (weighted, single): (Vec<_>, Vec<_>) =
            distinct.into_iter().enumerate().partition(|(_, key)| key.algo.weighted());
        let lanes = std::iter::once(weighted).chain(single.into_iter().map(|cell| vec![cell]));
        for lane in lanes.filter(|lane| !lane.is_empty()) {
            let (input, sender) = (Arc::clone(&input), sender.clone());
            let cells = move || {
                let run = |(i, key): (usize, Key)| match input.run(key.algo, &key.schedule) {
                    Ok(run) => (i, run),
                    Err(e) => panic!("{}: {e}", input.spec.name),
                };
                let runs: Vec<(usize, Run)> = lane.into_iter().map(run).collect();
                drop(input); // no graph outlives its last cell
                runs.into_iter().for_each(|run| sender.send(run).expect("the fold waits"));
            };
            tasks.send(Box::new(cells)).expect("the workers outlive the visits");
        }
        Visit { input, declared, cells, done }
    }

    /// Whether every cell has run: each lane holds the input until then.
    fn ran(&self) -> bool {
        Arc::strong_count(&self.input) == 1
    }

    /// Waits for the cells; then every visitor folds its runs in the
    /// order it declared them, and the input drops. Panics if a cell did.
    fn fold(self, visitors: &mut [&mut dyn Visitor]) {
        let mut runs: Vec<(usize, Run)> = self.done.iter().collect();
        assert_eq!(runs.len(), self.cells, "{}: a cell panicked", self.input.spec.name);
        runs.sort_by_key(|&(i, _)| i);
        for (visitor, keys) in visitors.iter_mut().zip(&self.declared) {
            let Some(keys) = keys else { continue };
            let mine: Vec<&Run> = keys.iter().map(|&i| &runs[i].1).collect();
            with_policy(DispatchPolicy::sequential(), || visitor.fold(&self.input, &mine));
        }
    }
}

/// Visits `specs` at `scale`/`seed` on one worker per core: on each
/// input the visitors declare their keys, the input is generated and
/// its distinct keys queued. The inputs whose cells have run fold in
/// visiting order before the next is generated, and the oldest is
/// waited for while two others are queued, so at most three graphs are
/// resident. An input no visitor reads is never generated. Returns one
/// (input name, key) per run, in queue order. Panics if a cell does
/// (e.g. a key that breaks its input's contract); the workers survive
/// it, so nothing hangs.
pub fn run(
    specs: impl IntoIterator<Item = &'static InputSpec>,
    scale: f64,
    seed: u64,
    visitors: &mut [&mut dyn Visitor],
) -> Vec<(&'static str, Key)> {
    let (tasks, queued) = mpsc::channel::<Task>();
    let queued = Mutex::new(queued);
    let next = || queued.lock().expect("task queue").recv();
    let (mut executed, mut pending) = (Vec::new(), VecDeque::<Visit>::new());
    std::thread::scope(|scope| {
        for _ in 0..std::thread::available_parallelism().map_or(1, NonZeroUsize::get) {
            scope.spawn(|| {
                while let Ok(task) = next() {
                    drop(panic::catch_unwind(AssertUnwindSafe(task)));
                }
            });
        }
        for spec in specs {
            while pending.front().is_some_and(|visit| visit.ran() || pending.len() > 2) {
                pending.pop_front().expect("a visit").fold(visitors);
            }
            let input = Arc::new(Input::new(spec, scale, seed));
            let Some((declared, distinct)) = declare(&input, visitors) else { continue };
            input.graph(); // generated here, beside the queued inputs' cells
            executed.extend(distinct.iter().map(|key| (spec.name, key.clone())));
            pending.push_back(Visit::queue(input, declared, distinct, &tasks));
        }
        pending.drain(..).for_each(|visit| visit.fold(visitors));
        drop(tasks);
    });
    executed
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Declares `keys` on every undirected input it is shown and keeps
    /// what it folds.
    struct Probe {
        keys: Vec<Key>,
        folded: Vec<(&'static str, Vec<f64>)>,
    }

    impl Visitor for Probe {
        fn keys(&mut self, input: &Input) -> Option<Vec<Key>> {
            (!input.spec.directed).then(|| self.keys.clone())
        }

        fn fold(&mut self, input: &Input, runs: &[&Run]) {
            self.folded.push((input.spec.name, runs.iter().map(|r| r.modeled_time).collect()));
        }
    }

    fn specs(names: &[&str]) -> Vec<&'static InputSpec> {
        names.iter().map(|n| ecl_graphgen::registry::find(n).unwrap()).collect()
    }

    #[test]
    fn each_distinct_key_runs_once_and_folds_in_declared_order() {
        let optimized = Key::new("cc", &[("optimized_init", KnobValue::Bool(true))]);
        // The default schedule spelled out is the untuned run.
        let spelled = Key::new("cc", &[("optimized_init", KnobValue::Bool(false))]);
        let mut a = Probe { keys: vec![Key::new("cc", &[]), optimized.clone()], folded: vec![] };
        let mut b = Probe { keys: vec![optimized, spelled.clone(), spelled], folded: vec![] };
        let ran = run(specs(&["internet", "star"]), 0.002, 7, &mut [&mut a, &mut b]);
        assert_eq!(ran.len(), 2, "two distinct cc runs on internet, none on star");
        assert!(ran.iter().all(|(input, key)| *input == "internet" && key.algo.name() == "cc"));
        let (base, opt) = (a.folded[0].1[0], a.folded[0].1[1]);
        assert_eq!(a.folded, [("internet", vec![base, opt])]);
        assert_eq!(b.folded, [("internet", vec![opt, base, base])]);
        let alone = Input::from_registry("internet", 0.002, 7).unwrap();
        let key = Key::new("cc", &[]);
        assert_eq!(
            alone.run(key.algo, &key.schedule).unwrap().modeled_time.to_bits(),
            base.to_bits()
        );
    }

    #[test]
    fn an_input_no_visitor_reads_is_never_generated() {
        struct Names(Vec<&'static str>);
        impl Visitor for Names {
            fn keys(&mut self, input: &Input) -> Option<Vec<Key>> {
                self.0.push(input.spec.name);
                assert!(input.graph.get().is_none(), "generated before any visitor asked");
                None
            }
            fn fold(&mut self, _: &Input, _: &[&Run]) {
                unreachable!("no visitor read the input")
            }
        }
        let mut names = Names(Vec::new());
        assert!(run(specs(&["internet", "star"]), 0.002, 7, &mut [&mut names]).is_empty());
        assert_eq!(names.0, ["internet", "star"]);
    }

    #[test]
    fn a_cell_that_cannot_run_panics_the_run_instead_of_hanging_it() {
        // More failing lanes than a small host has workers: a worker
        // that died with its cell would leave the other lanes queued
        // and the fold waiting for their runs.
        struct Undirected;
        impl Visitor for Undirected {
            fn keys(&mut self, _: &Input) -> Option<Vec<Key>> {
                Some(["cc", "gc", "mis", "mst"].map(|name| Key::new(name, &[])).to_vec())
            }
            fn fold(&mut self, _: &Input, _: &[&Run]) {
                unreachable!("no cell can run on a directed input")
            }
        }
        let star = || run(specs(&["star"]), 0.002, 7, &mut [&mut Undirected]).len();
        let message = *panic::catch_unwind(star).unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("star: a cell panicked"), "{message}");
    }

    #[test]
    fn the_weighted_view_shares_the_graph() {
        let input = Input::from_registry("internet", 0.002, 7).unwrap();
        assert!(std::ptr::eq(input.graph(), input.graph()));
        assert_eq!(*input.graph(), input.spec.generate(0.002, 7));
        assert!(std::ptr::eq(input.weighted().csr(), input.graph()));
        assert_eq!(*input.weighted(), input.spec.generate_weighted(0.002, 7, DEFAULT_MAX_WEIGHT));
        let mst = crate::find("mst").unwrap();
        assert!(std::ptr::eq(input.views(mst).weighted.unwrap(), input.weighted()));
        let star = Input::from_registry("star", 0.002, 7).unwrap();
        assert!(!star.supports(mst) && star.views(mst).weighted.is_none());
        assert!(Input::from_registry("no-such-graph", 0.002, 7).is_err());
    }

    #[test]
    fn cells_run_side_by_side_give_the_sequential_answer() {
        let cell = |i: u64| (i, ecl_gpusim::pool::effective_workers());
        let side = side_by_side((0..64).collect(), cell);
        let sequential: Vec<_> = (0..64).map(|i| (i, 1)).collect();
        assert_eq!(side, sequential);
    }
}
