//! Integration tests of the profiling framework against the real
//! instrumented algorithms: internal-consistency identities between
//! independently maintained counters, and failure-injection checks.

#![allow(clippy::unwrap_used)]

use ecl_suite::{cc, gen, mis, mst, profiling, scc, sim};

fn device() -> sim::Device {
    sim::Device::test_small()
}

/// The MIS finalized counters must sum to the selected-set size, and
/// the assigned counters to |V| — two independent code paths agreeing.
#[test]
fn mis_counter_identities() {
    let g = gen::registry::find("amazon0601").unwrap().generate(0.002, 5);
    let r = mis::run(&device(), &g, &mis::MisConfig::default());
    assert_eq!(r.counters.finalized.total() as usize, r.set_size());
    assert_eq!(r.counters.assigned.total() as usize, g.num_vertices());
}

/// CC: find_calls = find_smaller + find_unchanged, and CAS tally
/// attempted = updated + failed.
#[test]
fn cc_counter_identities() {
    let g = gen::registry::find("rmat16.sym").unwrap().generate(0.01, 5);
    let r = cc::run(&device(), &g, &cc::CcConfig::baseline());
    let c = &r.counters;
    assert_eq!(c.find_calls.get(), c.find_smaller.get() + c.find_unchanged.get());
    assert_eq!(
        c.hook_cas.attempted(),
        c.hook_cas.updated() + c.hook_cas.cas_failed() + c.hook_cas.no_effect()
    );
    assert_eq!(c.vertices_initialized.get() as usize, g.num_vertices());
    assert!(c.vertices_traversed.get() >= c.vertices_initialized.get());
}

/// SCC: the per-block series totals equal the atomicMax updated count
/// (every effective update was recorded in exactly one block/step).
#[test]
fn scc_series_tally_identity() {
    let g = gen::registry::find("toroid-wedge").unwrap().generate(0.002, 5);
    let r = scc::run(&device(), &g, &scc::SccConfig::original());
    let series_total: u64 =
        r.counters.series.steps().iter().map(|k| r.counters.series.total_updates(k.m, k.n)).sum();
    assert_eq!(series_total, r.counters.max_tally.updated());
}

/// SCC's propagate sweep runs under `Hooks::unswitch`: with an
/// atomics-counting observer attached it must take the copy that
/// reports, so in order the observer counts every atomicMax — two per
/// edge per sweep, exactly the run's `Atomic` cost units and its
/// `max_tally` attempts.
#[test]
fn an_atomics_observer_counts_every_scc_atomic() {
    use sim::observe::{Observer, Wants};
    use sim::{AccessKind, Agent, CostKind};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Default)]
    struct Atomics(AtomicU64);
    impl Observer for Atomics {
        fn wants(&self) -> Wants {
            Wants { atomics: true, ..Wants::default() }
        }
        fn access(&self, _: usize, _: usize, kind: AccessKind, _: Option<Agent>) {
            if kind.is_atomic() {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    let g = gen::registry::find("toroid-wedge").unwrap().generate(0.002, 5);
    let device = device();
    let seen = Arc::new(Atomics::default());
    let _attached = device.observe(seen.clone());
    let r = sim::pool::with_policy(sim::DispatchPolicy::sequential(), || {
        scc::run(&device, &g, &scc::SccConfig::original())
    });
    let atomics = seen.0.load(Ordering::Relaxed);
    assert!(atomics > 0);
    assert_eq!(atomics, device.cost().units(CostKind::Atomic));
    assert_eq!(atomics, r.counters.max_tally.attempted());
}

/// MST: per-iteration bar percentages are consistent with the
/// cumulative tallies (useless fraction within [0, 100]).
#[test]
fn mst_bars_consistent() {
    let g = gen::registry::find("2d-2e20.sym").unwrap().generate_weighted(0.002, 5, 1 << 16);
    let r = mst::run(&device(), &g, &mst::MstConfig::baseline());
    assert!(r.counters.atomics.attempted() >= r.counters.atomics.updated());
    for b in r.counters.bars.bars() {
        assert!((0.0..=100.0).contains(&b.useless_atomics_pct));
        assert!((0.0..=100.0).contains(&b.threads_with_work_pct));
    }
}

/// Profiling off produces identical algorithm outputs with zero
/// counter activity, across all five codes.
#[test]
fn profile_off_outputs_identical_counters_silent() {
    use ecl_suite::profiling::ProfileMode;
    let g = gen::registry::find("citationCiteseer").unwrap().generate(0.002, 5);
    let wg = gen::registry::find("citationCiteseer").unwrap().generate_weighted(0.002, 5, 1000);
    let mesh = gen::registry::find("star").unwrap().generate(0.002, 5);

    let on = cc::run(&device(), &g, &cc::CcConfig::baseline());
    let off = cc::run(
        &device(),
        &g,
        &cc::CcConfig { mode: ProfileMode::Off, ..cc::CcConfig::baseline() },
    );
    assert_eq!(on.labels, off.labels);
    assert_eq!(off.counters.find_calls.get(), 0);

    let on = mst::run(&device(), &wg, &mst::MstConfig::baseline());
    let off = mst::run(
        &device(),
        &wg,
        &mst::MstConfig { mode: ProfileMode::Off, ..mst::MstConfig::baseline() },
    );
    assert_eq!(on.total_weight, off.total_weight);
    assert_eq!(off.counters.atomics.attempted(), 0);

    let on = scc::run(&device(), &mesh, &scc::SccConfig::original());
    let off = scc::run(
        &device(),
        &mesh,
        &scc::SccConfig { mode: ProfileMode::Off, ..scc::SccConfig::original() },
    );
    assert_eq!(on.labels, off.labels);
    assert!(off.counters.series.steps().is_empty());
}

/// Counter overflow behavior: u64 counters saturate the practical
/// range; adding huge values does not panic and keeps totals exact
/// within u64.
#[test]
fn counters_handle_large_values() {
    let c = profiling::GlobalCounter::new();
    c.add(u64::MAX / 2);
    c.add(u64::MAX / 2);
    assert_eq!(c.get(), u64::MAX - 1);

    let p = profiling::PerThreadCounter::new(3);
    p.add(0, u64::MAX / 4);
    p.add(1, u64::MAX / 4);
    // Summary converts through f64; totals stay finite.
    let s = p.summary();
    assert!(s.sum.is_finite());
    assert!(s.max.is_finite());
}

/// Convergence traces: every algorithm's shrinking quantity is
/// recorded per round and is (weakly) monotone where the algorithm
/// guarantees it.
#[test]
fn convergence_traces_are_monotone() {
    let g = gen::registry::find("rmat16.sym").unwrap().generate(0.02, 3);

    // GC: uncolored vertices strictly decrease per round.
    let r = ecl_suite::gc::run(&device(), &g, &ecl_suite::gc::GcConfig::default());
    let t = &r.counters.uncolored_per_round;
    assert_eq!(t.len(), r.rounds as usize);
    assert!(t.is_non_increasing());
    assert_eq!(*t.values().last().unwrap(), 0);

    // MIS: undecided vertices weakly decrease; end at zero.
    let r = mis::run(&device(), &g, &mis::MisConfig::default());
    let t = &r.counters.undecided_per_round;
    assert_eq!(t.len(), r.rounds as usize);
    assert!(t.is_non_increasing());
    assert_eq!(*t.values().last().unwrap(), 0);

    // MST: worklist shrinks per iteration (compaction).
    let wg = gen::registry::find("rmat16.sym").unwrap().generate_weighted(0.02, 3, 1 << 16);
    let r = mst::run(&device(), &wg, &mst::MstConfig::baseline());
    assert!(!r.counters.worklist_per_iteration.is_empty());

    // SCC: surviving edges weakly decrease per outer iteration.
    let mesh = gen::registry::find("toroid-hex").unwrap().generate(0.002, 3);
    let r = scc::run(&device(), &mesh, &scc::SccConfig::original());
    let t = &r.counters.edges_per_outer;
    assert_eq!(t.len(), r.outer_iterations as usize);
    assert!(t.is_non_increasing());
}

/// IO failure injection: every possible truncation of a serialized
/// graph must produce an error, never a panic or a wrong graph.
#[test]
fn io_truncation_always_errors() {
    let g = gen::registry::find("internet").unwrap().generate(0.002, 1);
    let mut buf = Vec::new();
    ecl_suite::graph::io::write_csr(&mut buf, &g).unwrap();
    // Sweep truncation points (step keeps the test fast; always
    // include the off-by-one boundary cases).
    let mut points: Vec<usize> = (0..buf.len()).step_by(97).collect();
    points.extend([0, 1, buf.len() - 1, buf.len() - 4]);
    for &cut in &points {
        let r = ecl_suite::graph::io::read_csr(&mut &buf[..cut]);
        assert!(r.is_err(), "truncation at {cut} of {} did not error", buf.len());
    }
    // The untruncated stream still round-trips.
    assert_eq!(ecl_suite::graph::io::read_csr(&mut buf.as_slice()).unwrap(), g);
}

/// IO failure injection: flipping header bytes must never panic; a
/// successful parse after corruption must still be a structurally
/// valid graph.
#[test]
fn io_corruption_never_panics() {
    let g = gen::registry::find("rmat16.sym").unwrap().generate(0.002, 1);
    let mut clean = Vec::new();
    ecl_suite::graph::io::write_csr(&mut clean, &g).unwrap();
    for pos in 0..clean.len().min(200) {
        let mut buf = clean.clone();
        buf[pos] ^= 0xFF;
        if let Ok(parsed) = ecl_suite::graph::io::read_csr(&mut buf.as_slice()) {
            assert!(
                ecl_suite::graph::validate::check_adjacency_lists(&parsed).is_ok()
                    || parsed.num_vertices() > 0,
                "corrupted parse at byte {pos} produced an unusable graph"
            );
        }
    }
}

/// The cost model distinguishes the algorithms: CC on a torus does no
/// atomic hooks (init heuristic suffices), while MST must elect edges
/// atomically.
#[test]
fn cost_model_reflects_algorithm_structure() {
    let g = gen::grid::torus_2d(24, 24);
    let wg = gen::with_hashed_weights(g.clone(), 1000, 1);
    let d_cc = device();
    let d_mst = device();
    cc::run(&d_cc, &g, &cc::CcConfig::baseline());
    mst::run(&d_mst, &wg, &mst::MstConfig::baseline());
    use ecl_suite::sim::CostKind;
    assert_eq!(d_cc.cost().units(CostKind::Atomic), 0, "torus CC needs no hooks");
    assert!(d_mst.cost().units(CostKind::Atomic) > 0, "MST must elect atomically");
}

/// One per-kernel record in both currencies: an `ecl_prof::Collector`
/// attached to a device sums each launch's cost units, so the kernel
/// rows plus the host remainder (what was charged outside any launch)
/// are the device's cost, kind by kind, for every registered algorithm
/// run in order. CC's rows are its five kernels, with init the §6.1.3
/// minority share; MST's fixed-launch readbacks are host work, and a
/// collector sees no launch on another device.
#[test]
fn collector_rows_and_host_remainder_are_the_devices_cost() {
    use ecl_prof::{Collector, KernelStats};
    use ecl_suite::algos::{self, Algorithm};
    use sim::pool::{with_policy, DispatchPolicy};
    use sim::{CostKind, KnobValue, Schedule};
    use std::sync::Arc;

    const SCALE: f64 = 0.0005;
    /// Runs `algo` in order on a fresh device with a collector
    /// attached, meanwhile runs it on a second device the collector
    /// must not see, and returns the device and the collector's rows.
    fn collected(algo: &dyn Algorithm, schedule: &Schedule) -> (sim::Device, Vec<KernelStats>) {
        let input = if algo.directed() { "toroid-wedge" } else { "as-skitter" };
        let inputs = ecl_bench::Inputs::new(SCALE, 42);
        let views = inputs.views(algo, gen::registry::find(input).unwrap());
        let device = sim::Device::new(algos::device_config(algo, SCALE));
        let collector = Arc::new(Collector::new());
        let attached = device.observe(collector.clone());
        with_policy(DispatchPolicy::sequential(), || {
            let other = sim::Device::new(algos::device_config(algo, SCALE));
            algo.run(&other, &views, schedule);
            assert_eq!(collector.launches(), 0, "{}: recorded another device", algo.name());
            algo.run(&device, &views, schedule);
        });
        drop(attached);
        (device, collector.snapshot())
    }
    /// The device's units no launch charged, by kind; panics if the
    /// rows claim more than the device holds.
    fn host_remainder(device: &sim::Device, rows: &[KernelStats]) -> [u64; 6] {
        let mut left = device.cost().by_kind();
        for row in rows {
            for (kind, (left, units)) in CostKind::ALL.iter().zip(left.iter_mut().zip(row.units)) {
                *left = left.checked_sub(units).unwrap_or_else(|| panic!("{kind:?} overcounted"));
            }
        }
        left
    }

    for algo in algos::ALL {
        let (device, rows) = collected(algo, &algo.default_schedule());
        let name = algo.name();
        let host = host_remainder(&device, &rows);
        assert_eq!(
            host[CostKind::KernelLaunch.index()],
            0,
            "{name}: a launch charge escaped its row"
        );
        let modeled: f64 = rows.iter().map(|r| device.params().time_of(&r.units)).sum();
        let total = modeled + device.params().time_of(&host);
        assert_eq!(total, device.modeled_time(), "{name}");
        if name == "cc" {
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "cc.init",
                    "cc.compute-low",
                    "cc.compute-medium",
                    "cc.compute-high",
                    "cc.finalize"
                ]
            );
            let init = device.params().time_of(&rows[0].units) / device.modeled_time();
            assert!((0.01..0.7).contains(&init), "init share {init} outside the plausible band");
        }
    }

    let mst = algos::find("mst").unwrap();
    let mut fixed = mst.default_schedule();
    fixed.set("fixed_launch", KnobValue::Bool(true));
    let (device, rows) = collected(mst, &fixed);
    let readbacks = device.cost().units(CostKind::HostReconfig);
    assert!(readbacks > 0, "fixed_launch reads the worklist size back");
    assert_eq!(host_remainder(&device, &rows)[CostKind::HostReconfig.index()], readbacks);
}
