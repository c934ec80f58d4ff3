//! The benchmark's own in-memory span recorder.
//!
//! One span per call from the benchmark into a layer: name, start,
//! end, the span that caused it, and the job it belongs to. Recording
//! is off in timed (`--trace 0`) runs, where [`span`] costs one relaxed
//! load; the traced run turns it on, keeps every span in memory, and
//! writes `trace.json` when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the recorder) of the enclosing span on this thread.
    pub parent: Option<usize>,
    /// Job (or request) the span belongs to; 0 = set-up / probe.
    pub job: u64,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<R>(name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let thread = THREAD.with(|t| *t);
    let index = {
        let mut spans = SPANS.lock().expect("span recorder lock");
        spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, job, thread });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(index));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    let end = now_ns();
    SPANS.lock().expect("span recorder lock")[index].end_ns = end;
    out
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().expect("span recorder lock").clone()
}

/// Per-name totals derived from a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Renders the spans as a Chrome `trace_event` document (loads in
/// Perfetto / `chrome://tracing`), with `parent`, `job` and `self_us`
/// in each event's `args` and the per-name totals under `"layers"`.
pub fn to_trace_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"job\": {}, \"self_us\": {:.3}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.job,
            *self_ns as f64 / 1e3,
        ));
    }
    out.push_str("\n], \"layers\": {");
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        out.push_str(&format!(
            "{}\n  \"{}\": {{\"count\": {}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
            if i == 0 { "" } else { "," },
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
        ));
    }
    out.push_str("\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, job: 1, thread: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100; children 10..30 and 50..60; grandchild 12..20.
        let spans =
            vec![sp(0, 100, None), sp(10, 30, Some(0)), sp(50, 60, Some(0)), sp(12, 20, Some(1))];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two children on other threads overlap in 20..30.
        let spans = vec![sp(0, 100, None), sp(10, 30, Some(0)), sp(20, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let spans = vec![sp(10, 20, None), sp(5, 15, Some(0)), sp(18, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = vec![sp(0, 10, None), sp(20, 50, None)];
        spans[1].name = "t";
        let totals = totals_by_name(&spans);
        assert_eq!(totals["s"], NameTotals { count: 1, total_ns: 10, self_ns: 10 });
        assert_eq!(totals["t"].total_ns, 30);
    }
}
