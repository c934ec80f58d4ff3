//! Instrumenting your *own* kernel: the paper's actual recommendation
//! is not the five codes themselves but the practice — "manually
//! adding counters to source code ... to complement existing
//! profilers". This example writes a small user kernel (label
//! propagation) against the simulator and instruments it with every
//! counter kind the framework offers, owned in a plain struct and
//! printed through a `Table`.
//!
//! ```text
//! cargo run --release --example custom_profiling
//! ```

use ecl_suite::{gen, profiling, sim};
use profiling::{ActivityTally, AtomicTally, GlobalCounter, PerThreadCounter, Table};
use sim::{launch_flat, CostKind, Hooks, LaunchConfig};

/// The kernel's counters, one of each granularity (§3: thread-local
/// or global "depending on the granularity we need"), owned in a
/// plain struct the way the ECL kernel crates own theirs.
struct LabelPropCounters {
    launches: GlobalCounter,
    /// Per *vertex* here.
    relaxations: PerThreadCounter,
    min_outcomes: AtomicTally,
    activity: ActivityTally,
}

impl LabelPropCounters {
    fn new(n: usize) -> Self {
        Self {
            launches: GlobalCounter::new(),
            relaxations: PerThreadCounter::new(n),
            min_outcomes: AtomicTally::new(),
            activity: ActivityTally::new(),
        }
    }

    fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["Counter", "Total", "Avg", "Max", "Detail"]);
        t.row(&["kernel-launches", &self.launches.get().to_string(), "-", "-", "global"]);
        let s = self.relaxations.summary();
        t.row(&[
            "label-relaxations",
            &self.relaxations.total().to_string(),
            &format!("{:.2}", s.avg),
            &format!("{:.0}", s.max),
            &format!("per-vertex ({} slots)", s.count),
        ]);
        let m = &self.min_outcomes;
        t.row(&[
            "atomicMin-outcomes",
            &m.attempted().to_string(),
            "-",
            "-",
            &format!("updated={} no-effect={}", m.updated(), m.no_effect()),
        ]);
        let a = &self.activity;
        let detail = format!("active={} idle={}", a.active(), a.idle());
        t.row(&["thread-activity", &a.launched().to_string(), "-", "-", &detail]);
        t
    }
}

fn main() {
    let g = gen::random::erdos_renyi(20_000, 6.0, 3);
    let device = sim::Device::new(sim::DeviceConfig { num_sms: 4, ..sim::DeviceConfig::rtx4090() });
    let n = g.num_vertices();
    let block_size = 256;
    let c = LabelPropCounters::new(n);

    // Min-label propagation until fixed point: each vertex repeatedly
    // takes the minimum label of its neighborhood (a naive CC).
    let labels = sim::atomics::atomic_u32_array(n, |i| i as u32);
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        c.launches.inc();
        let changed = std::sync::atomic::AtomicBool::new(false);
        launch_flat(&device, LaunchConfig::cover(n, block_size), |t| {
            if t.global >= n {
                device.charge(CostKind::IdleCheck, 1);
                c.activity.record_idle_unassigned();
                return;
            }
            let v = t.global as u32;
            let my = labels[t.global].load(t.hooks);
            let best = g
                .neighbors(v)
                .iter()
                .map(|&u| labels[u as usize].load(t.hooks))
                .min()
                .unwrap_or(my);
            device.charge(CostKind::ThreadWork, g.degree(v) as u64 + 1);
            if best < my {
                c.activity.record_active();
                // A counted atomicMin: the wrapper classifies the
                // outcome (updated / no effect) into the tally.
                labels[t.global].fetch_min(best, Some(&c.min_outcomes), t.hooks);
                c.relaxations.inc(t.global);
                changed.store(true, std::sync::atomic::Ordering::Relaxed);
            } else {
                c.activity.record_idle_no_work();
            }
        });
        if !changed.load(std::sync::atomic::Ordering::Relaxed) {
            break;
        }
    }

    // The converged labels are a valid CC labeling.
    let expect = ecl_suite::reference::connected_components(&g);
    let got: Vec<u32> = labels.iter().map(|l| l.load(Hooks::OFF)).collect();
    assert_eq!(got, expect, "min-label propagation must converge to component minima");

    println!("naive min-label CC converged in {rounds} rounds\n");
    print!("{}", c.to_table("custom kernel counters").render());

    // What the counters reveal: per-vertex relaxation counts expose
    // the straggler structure (high-diameter components relax often).
    let s = c.relaxations.summary();
    println!(
        "\nrelaxations per vertex: avg {:.2}, max {:.0} — compare with ECL-CC's\n\
         pointer-jumping design, which avoids exactly this repeated relaxation.",
        s.avg, s.max
    );
    println!("modeled cost: {:.0} units over {} launches", device.modeled_time(), c.launches.get());
}
