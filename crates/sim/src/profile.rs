//! Per-kernel cost attribution.
//!
//! The paper anchors several arguments on how runtime distributes over
//! kernels (e.g. "the init kernel ... accounts for 10-20% of the total
//! runtime" of ECL-CC, §6.1.3). [`KernelProfile`] is an [`Observer`]:
//! installed around a run, it folds the device's cost delta between
//! each `phase_start` / `phase_end` the kernel crates mark into a
//! per-phase record, so the harness can report a per-kernel breakdown
//! like a profiler's kernel table — except in deterministic modeled
//! time — for any algorithm, without the algorithm knowing.

use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use parking_lot::Mutex;

use crate::cost::{CostKind, CostTally};
use crate::device::Device;
use crate::observe::Observer;

/// One profiled kernel phase.
#[derive(Clone, Debug)]
pub struct KernelRecord {
    /// Phase name (e.g. "init", "compute-low").
    pub name: String,
    /// Cost units attributed to the phase, by kind.
    pub cost: Vec<(CostKind, u64)>,
    /// Modeled time of the phase under the device's weights.
    pub modeled_time: f64,
    /// Wall time of the phase in seconds.
    pub wall_seconds: f64,
    /// Invocations folded into this record.
    pub calls: u64,
}

/// Accumulates per-phase cost deltas of one device. It listens to the
/// phases of the thread that created it — the host loop driving the
/// device — and ignores any other thread's.
#[derive(Debug)]
pub struct KernelProfile {
    device: Arc<Device>,
    host: ThreadId,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Phases begun and not yet ended: name, tally then, start time.
    open: Vec<(String, CostTally, Instant)>,
    records: Vec<KernelRecord>,
}

impl KernelProfile {
    /// An empty profile of `device`'s phases run on this thread.
    pub fn new(device: Arc<Device>) -> Self {
        Self { device, host: std::thread::current().id(), state: Mutex::default() }
    }

    /// All records in first-seen order.
    pub fn records(&self) -> Vec<KernelRecord> {
        self.state.lock().records.clone()
    }

    /// Total modeled time across phases.
    pub fn total_modeled(&self) -> f64 {
        self.state.lock().records.iter().map(|r| r.modeled_time).sum()
    }

    /// Renders the profile as a kernel table (modeled-time ordered).
    pub fn render(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut records = self.records();
        records.sort_by(|a, b| b.modeled_time.total_cmp(&a.modeled_time));
        let total = self.total_modeled().max(1e-12);
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  {:<18} {:>6} {:>14} {:>7} {:>10}",
            "kernel", "calls", "modeled", "share", "wall (s)"
        );
        for r in records {
            let _ = writeln!(
                out,
                "  {:<18} {:>6} {:>14.0} {:>6.1}% {:>10.4}",
                r.name,
                r.calls,
                r.modeled_time,
                100.0 * r.modeled_time / total,
                r.wall_seconds
            );
        }
        out
    }
}

impl Observer for KernelProfile {
    fn phase_start(&self, name: &str) {
        if std::thread::current().id() == self.host {
            let before = self.device.cost().clone();
            self.state.lock().open.push((name.to_string(), before, Instant::now()));
        }
    }

    /// Attributes the device-cost delta and wall time since the
    /// matching `phase_start` to `name`; repeated phases of one name
    /// fold together.
    fn phase_end(&self, name: &str) {
        if std::thread::current().id() != self.host {
            return;
        }
        let mut state = self.state.lock();
        let Some(at) = state.open.iter().rposition(|(open, _, _)| open == name) else { return };
        let (_, before, start) = state.open.remove(at);
        let wall = start.elapsed().as_secs_f64();
        let (after, params) = (self.device.cost(), self.device.params());
        let delta: Vec<(CostKind, u64)> =
            CostKind::ALL.iter().map(|&k| (k, after.units(k) - before.units(k))).collect();
        let modeled = delta.iter().map(|&(k, u)| u as f64 * params.weight(k)).sum();
        match state.records.iter_mut().find(|r| r.name == name) {
            Some(r) => {
                for (acc, &(_, u)) in r.cost.iter_mut().zip(&delta) {
                    acc.1 += u;
                }
                r.modeled_time += modeled;
                r.wall_seconds += wall;
                r.calls += 1;
            }
            None => state.records.push(KernelRecord {
                name: name.to_string(),
                cost: delta,
                modeled_time: modeled,
                wall_seconds: wall,
                calls: 1,
            }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// A profile of a fresh test device; phases are driven by calling
    /// the hooks directly, so no observer is installed process-wide.
    fn profile() -> (Arc<Device>, KernelProfile) {
        let d = Arc::new(Device::test_small());
        (Arc::clone(&d), KernelProfile::new(d))
    }

    fn phase(p: &KernelProfile, name: &str, f: impl FnOnce()) {
        p.phase_start(name);
        f();
        p.phase_end(name);
    }

    #[test]
    fn attributes_costs_to_phases() {
        let (d, p) = profile();
        phase(&p, "a", || d.charge(CostKind::ThreadWork, 10));
        phase(&p, "b", || d.charge(CostKind::Atomic, 5));
        d.charge(CostKind::ThreadWork, 1000); // outside any phase
        phase(&p, "a", || d.charge(CostKind::ThreadWork, 30));
        let records = p.records();
        assert_eq!(records.len(), 2);
        let a = records.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.cost.iter().find(|(k, _)| *k == CostKind::ThreadWork).unwrap().1, 40);
        let b = records.iter().find(|r| r.name == "b").unwrap();
        assert_eq!(b.cost.iter().find(|(k, _)| *k == CostKind::Atomic).unwrap().1, 5);
    }

    #[test]
    fn phase_times_sum_to_the_devices() {
        let (d, p) = profile();
        phase(&p, "x", || d.charge(CostKind::ThreadWork, 100));
        phase(&p, "y", || d.charge(CostKind::Atomic, 300));
        assert_eq!(p.total_modeled(), d.modeled_time());
    }

    #[test]
    fn empty_profile() {
        let (_, p) = profile();
        p.phase_end("never-started");
        assert_eq!(p.total_modeled(), 0.0);
        assert!(p.records().is_empty());
    }

    #[test]
    fn other_threads_phases_are_ignored() {
        let (d, p) = profile();
        std::thread::scope(|s| {
            s.spawn(|| phase(&p, "elsewhere", || d.charge(CostKind::ThreadWork, 7)));
        });
        phase(&p, "outer", || phase(&p, "inner", || d.charge(CostKind::ThreadWork, 3)));
        let names: Vec<String> = p.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["inner", "outer"]);
    }

    #[test]
    fn render_contains_phases_and_shares() {
        let (d, p) = profile();
        phase(&p, "init", || d.charge(CostKind::ThreadWork, 10));
        phase(&p, "compute", || d.charge(CostKind::ThreadWork, 90));
        let s = p.render("kernel table");
        assert!(s.contains("init"));
        assert!(s.contains("compute"));
        assert!(s.contains("90.0%"));
    }
}
