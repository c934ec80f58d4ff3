//! The algorithm registry contract (`ecl-algos`).
//!
//! - **A sixth algorithm needs one impl.** `DegreeSum` exists in this
//!   file only and runs through the shared driver, the tuner's
//!   evaluate/search and the profile runner as a `&dyn Algorithm`.
//! - **Golden equivalence.** Under the sequential policy the driver
//!   returns, bit for bit, what the hand-written per-algorithm arms it
//!   replaced returned: `ecl_*::run` / `ecl_shard::run_*` with a
//!   hand-built config on a device from the one preset, down to every
//!   counter `ecl-run` prints (the kernel crate's own `counters()`,
//!   sketches and tables included) and their names in order.
//! - **Parity.** Serve's wire names, the registry and the committed
//!   tune manifest name the same algorithms in the same order, and
//!   every registered default schedule is valid.
//! - **Pins.** The in-order modeled time of every registered algorithm
//!   under its default schedule is a literal, bit for bit.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecl_suite::algos::{self, checksum_u32, Algorithm, Outcome, Views};
use ecl_suite::graph::{Csr, WeightedCsr};
use ecl_suite::profiling::Counter;
use ecl_suite::serve::exec::execute as serve_execute;
use ecl_suite::serve::{Algo, CatalogConfig, GraphCatalog, JobSpec};
use ecl_suite::sim::pool::{with_policy, DispatchPolicy};
use ecl_suite::sim::schedule::{KnobDomain, KnobSpec, KnobValue, BLOCK_SIZES};
use ecl_suite::sim::{launch_flat, CostKind, Device, DeviceConfig, LaunchConfig, Schedule};
use ecl_suite::{cc, gc, gen, mis, mst, scc, shard};
use ecl_tune::{evaluate, search, EvalOutcome, SearchConfig, TuneInput, TuneManifest};

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

fn sequential<R>(f: impl FnOnce() -> R) -> R {
    with_policy(DispatchPolicy::sequential(), f)
}

fn find(name: &str) -> &'static dyn Algorithm {
    algos::find(name).unwrap()
}

fn generate(input: &str) -> Csr {
    gen::registry::find(input).unwrap().generate(SCALE, SEED)
}

/// The toy sixth algorithm: sums vertex degrees with one flat launch.
/// Its one knob moves the modeled cost (the idle tail of the last
/// block), so a search has something to find.
struct DegreeSum;

static DEGREE_SUM_KNOBS: [KnobSpec; 1] =
    [KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 2 }];

impl Algorithm for DegreeSum {
    fn name(&self) -> &'static str {
        "degsum"
    }

    fn knobs(&self) -> &'static [KnobSpec] {
        &DEGREE_SUM_KNOBS
    }

    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome {
        let g = views.csr;
        let n = g.num_vertices();
        let block_size = schedule.int_knob("block_size").unwrap_or(256) as usize;
        let sum = AtomicU64::new(0);
        let degrees = ecl_suite::profiling::LogSketch::new();
        launch_flat(device, LaunchConfig::cover(n, block_size), |t| {
            if t.global >= n {
                device.charge(CostKind::IdleCheck, 1);
                return;
            }
            let d = g.degree(t.global as u32) as u64;
            device.charge(CostKind::ThreadWork, d + 1);
            sum.fetch_add(d, Ordering::Relaxed);
            degrees.record(d);
        });
        Outcome {
            aggregates: vec![("degree_sum", sum.load(Ordering::Relaxed)), ("vertices", n as u64)],
            counters: vec![("degsum/degree", Counter::Sketch(degrees.snapshot()))],
        }
    }
}

#[test]
fn toy_algorithm_runs_through_the_shared_driver() {
    let g = generate("internet");
    let views = Views { name: "internet", csr: &g, weighted: None };
    let (out, time) = algos::execute(&DegreeSum, SCALE, &views, None).unwrap();
    assert_eq!(out.aggregates[0], ("degree_sum", g.num_arcs() as u64));
    assert!(time > 0.0);
    // The shared contract applies to it unasked: undirected only, no
    // sharded implementation.
    let star = generate("star");
    let directed = Views { name: "star", csr: &star, weighted: None };
    assert_eq!(
        algos::execute(&DegreeSum, SCALE, &directed, None).unwrap_err(),
        "degsum requires an undirected graph (\"star\" is directed)"
    );
    let err = algos::execute_sharded(&DegreeSum, SCALE, &views, 2, None).unwrap_err();
    assert_eq!(err, "degsum does not support sharded execution");
}

#[test]
fn toy_algorithm_tunes_and_profiles_without_a_registry_entry() {
    let input = TuneInput::from_registry("internet", SCALE, SEED).unwrap();
    assert!(input.supports(&DegreeSum));
    let default = DegreeSum.default_schedule();
    let a = evaluate(&DegreeSum, &input, &default).unwrap();
    assert_eq!(a, evaluate(&DegreeSum, &input, &default).unwrap());

    // One knob, five values: exhaustive, and the brute-force winner.
    let r = search(&DegreeSum, &input, &SearchConfig::default()).unwrap();
    assert_eq!((r.method, r.space, r.evaluations), ("exhaustive", 5, 5));
    assert_eq!(r.default_time.to_bits(), a.modeled_time.to_bits());
    r.best.check_against_registry(&DEGREE_SUM_KNOBS).unwrap();
    let brute = BLOCK_SIZES.iter().map(|&bs| {
        let s = default.clone().with("block_size", KnobValue::Int(bs));
        evaluate(&DegreeSum, &input, &s).unwrap().modeled_time
    });
    assert_eq!(r.best_time.to_bits(), brute.fold(f64::INFINITY, f64::min).to_bits());

    // `ecl-run` prints its counters with no edit anywhere.
    let inputs = ecl_bench::Inputs::new(SCALE, SEED);
    let views = inputs.views(&DegreeSum, gen::registry::find("internet").unwrap());
    let (out, _) = algos::execute(&DegreeSum, SCALE, &views, Some(&default)).unwrap();
    let printed = ecl_bench::render_counters(&out, true);
    assert!(printed.contains("  degsum/degree: avg "), "{printed}");
    assert!(printed.contains("  degsum/degree distribution"), "{printed}");

    let dir = std::env::temp_dir().join(format!("ecl-algo-registry-{}", std::process::id()));
    let spec = ecl_bench::profile_run::ProfileSpec {
        algo: &DegreeSum,
        views,
        scale: SCALE,
        seed: SEED,
        repeats: 2,
        schedule: &default,
    };
    let manifest = ecl_bench::profile_run::profile(&spec, &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(manifest.context.contains(&("algo".to_string(), "degsum".to_string())));
    assert_eq!(manifest.distributions[0].0, "degsum/degree");
    let modeled = &manifest.metrics.iter().find(|m| m.name == "modeled_time").unwrap().samples;
    assert_eq!(modeled.len(), 2);
    assert_eq!(modeled[0].to_bits(), a.modeled_time.to_bits());
}

/// What a hand-written arm produced: its aggregate values in its
/// order, the kernel crate's own named counters, and the bits of its
/// device's modeled time.
type Golden = (Vec<u64>, Vec<(&'static str, Counter)>, u64);

fn device(name: &str) -> Device {
    Device::new(DeviceConfig::rtx4090_scaled(SCALE, if name == "scc" { 8 } else { 1 }))
}

fn golden(
    name: &str,
    arm: impl FnOnce(&Device) -> (Vec<u64>, Vec<(&'static str, Counter)>),
) -> Golden {
    let d = device(name);
    let (aggregates, counts) = arm(&d);
    (aggregates, counts, d.modeled_time().to_bits())
}

fn golden_cc(g: &Csr, cfg: &cc::CcConfig) -> Golden {
    golden("cc", |d| {
        let r = cc::run(d, g, cfg);
        let labels = checksum_u32(r.labels.iter().copied());
        (vec![r.num_components() as u64, labels], r.counters())
    })
}

fn golden_gc(g: &Csr, cfg: &gc::GcConfig) -> Golden {
    golden("gc", |d| {
        let r = gc::run(d, g, cfg);
        let colors = checksum_u32(r.colors.iter().copied());
        (vec![r.num_colors() as u64, r.rounds as u64, colors], r.counters(g))
    })
}

fn golden_mis(g: &Csr, cfg: &mis::MisConfig) -> Golden {
    golden("mis", |d| {
        let r = mis::run(d, g, cfg);
        let set = checksum_u32(r.in_set.iter().map(|&b| b as u32));
        (vec![r.set_size() as u64, r.rounds as u64, set], r.counters())
    })
}

fn golden_mst(g: &WeightedCsr, cfg: &mst::MstConfig) -> Golden {
    golden("mst", |d| {
        let r = mst::run(d, g, cfg);
        let mut edges: Vec<u32> = r.edges.iter().map(|&e| e as u32).collect();
        edges.sort_unstable();
        let aggregates =
            vec![r.total_weight, r.num_trees as u64, edges.len() as u64, checksum_u32(edges)];
        (aggregates, r.counters())
    })
}

fn golden_scc(g: &Csr, cfg: &scc::SccConfig) -> Golden {
    golden("scc", |d| {
        let r = scc::run(d, g, cfg);
        let labels = checksum_u32(r.labels.iter().copied());
        (vec![r.num_sccs() as u64, r.outer_iterations as u64, labels], r.counters())
    })
}

fn values(aggregates: &[(&'static str, u64)]) -> Vec<u64> {
    aggregates.iter().map(|a| a.1).collect()
}

/// The registry's answer for `name`, in `Golden` form.
fn registry(name: &str, views: &Views<'_>, schedule: Option<&Schedule>) -> Golden {
    let (out, time) = algos::execute(find(name), SCALE, views, schedule).unwrap();
    (values(&out.aggregates), out.counters, time.to_bits())
}

/// A manifest-style schedule: every knob present (the registered
/// defaults), the named ones tuned.
fn tuned(name: &str, knobs: &[(&str, KnobValue)]) -> Schedule {
    let mut s = find(name).default_schedule();
    for (knob, value) in knobs {
        s.set(knob, value.clone());
    }
    s.check_against_registry(find(name).knobs()).unwrap();
    s
}

#[test]
fn driver_equals_the_hand_written_arms_under_the_sequential_policy() {
    use KnobValue::{Bool, Float, Int, Str};
    let (g, d) = (generate("internet"), generate("toroid-wedge"));
    let w = gen::registry::find("internet").unwrap().generate_weighted(SCALE, SEED, 1 << 20);
    let und = Views { name: "internet", csr: &g, weighted: Some(&w) };
    let dir = Views { name: "toroid-wedge", csr: &d, weighted: None };
    assert_eq!(device("scc").config().num_sms, find("scc").min_sms());

    sequential(|| {
        // No schedule: the configuration every arm started from — and
        // the registered defaults, spelled out, are that configuration.
        // The aggregate names and their order are part of serve's wire
        // format; the counter names and their order are what `ecl-run`
        // prints and a profile manifest records.
        for (name, views, names, counters) in [
            (
                "cc",
                &und,
                "num_components labels_checksum",
                "cc/init_traversal_len cc/vertices_initialized cc/vertices_traversed \
                 cc/find_calls cc/find_smaller cc/hook_cas_attempted cc/hook_cas_failed",
            ),
            (
                "gc",
                &und,
                "num_colors rounds colors_checksum",
                "gc/scan_per_visit gc/large_best_changed gc/large_not_yet_possible \
                 gc/shortcut2_removals gc/not_yet_possible",
            ),
            (
                "mis",
                &und,
                "set_size rounds set_checksum",
                "mis/spins_per_round mis/iterations mis/assigned mis/finalized",
            ),
            (
                "mst",
                &und,
                "total_weight num_trees num_mst_edges edges_checksum",
                "mst/launch_coverage mst/iterations mst/atomics_attempted mst/atomics_useless",
            ),
            (
                "scc",
                &dir,
                "num_sccs outer_iterations labels_checksum",
                "scc/updates_per_sweep scc/edges_removed scc/max_attempted scc/max_updated \
                 scc/modeled_parallel_time scc/block_updates",
            ),
        ] {
            let (out, _) = algos::execute(find(name), SCALE, views, None).unwrap();
            assert_eq!(out.aggregates.iter().map(|a| a.0).collect::<Vec<_>>().join(" "), names);
            assert_eq!(out.counters.iter().map(|c| c.0).collect::<Vec<_>>().join(" "), counters);
            assert_eq!(registry(name, views, None), registry(name, views, Some(&tuned(name, &[]))));
        }
        assert_eq!(registry("cc", &und, None), golden_cc(&g, &cc::CcConfig::baseline()));
        assert_eq!(registry("gc", &und, None), golden_gc(&g, &gc::GcConfig::default()));
        assert_eq!(registry("mis", &und, None), golden_mis(&g, &mis::MisConfig::default()));
        assert_eq!(registry("mst", &und, None), golden_mst(&w, &mst::MstConfig::baseline()));
        assert_eq!(registry("scc", &dir, None), golden_scc(&d, &scc::SccConfig::original()));

        // A manifest-style schedule against the config it spells out.
        let s = tuned("cc", &[("optimized_init", Bool(true)), ("low_bin", Int(8))]);
        let mut cfg = cc::CcConfig::optimized();
        cfg.bins.low_below = 8;
        assert_eq!(registry("cc", &und, Some(&s)), golden_cc(&g, &cfg));

        let s = tuned("gc", &[("shortcut2", Bool(false)), ("block_size", Int(128))]);
        let cfg = gc::GcConfig { shortcut2: false, block_size: 128, ..gc::GcConfig::default() };
        assert_eq!(registry("gc", &und, Some(&s)), golden_gc(&g, &cfg));

        let s = tuned("mis", &[("priority", Str("id".into())), ("tie_salt", Int(0x85EB))]);
        let by_id = mis::MisConfig::with_priority(mis::status::PriorityPolicy::IdOrder);
        let cfg = mis::MisConfig { tie_salt: 0x85EB, ..by_id };
        assert_eq!(registry("mis", &und, Some(&s)), golden_mis(&g, &cfg));

        let s = tuned("mst", &[("fixed_launch", Bool(true)), ("light_fraction", Float(0.25))]);
        let cfg = mst::MstConfig { light_fraction: 0.25, ..mst::MstConfig::fixed() };
        assert_eq!(registry("mst", &und, Some(&s)), golden_mst(&w, &cfg));

        let s = tuned("scc", &[("block_size", Int(64)), ("trim", Bool(true))]);
        let cfg = scc::SccConfig { block_size: 64, ..scc::SccConfig::trimmed() };
        assert_eq!(registry("scc", &dir, Some(&s)), golden_scc(&d, &cfg));
    });
}

#[test]
fn serve_overrides_equal_the_hand_written_arms() {
    let catalog = Arc::new(GraphCatalog::new(CatalogConfig::default()));
    let job = |algo, graph: &str| JobSpec { scale: SCALE, seed: SEED, ..JobSpec::new(algo, graph) };
    // Serve reports the aggregates and the modeled time.
    let served = |spec: &JobSpec, (aggregates, _, time): Golden| {
        let out = serve_execute(spec, &catalog).unwrap();
        assert_eq!((values(&out.aggregates), out.modeled_time.to_bits()), (aggregates, time));
    };
    sequential(|| {
        // A client block_size reaches gc and scc, and only them.
        let g = catalog.resolve("internet", SCALE, SEED, false).unwrap();
        let g = &g.csr;
        let sized = |algo, graph| JobSpec { block_size: Some(128), ..job(algo, graph) };
        let cfg = gc::GcConfig { block_size: 128, ..gc::GcConfig::default() };
        served(&sized(Algo::Gc, "internet"), golden_gc(g, &cfg));
        served(&sized(Algo::Cc, "internet"), golden_cc(g, &cc::CcConfig::baseline()));
        let d = catalog.resolve("toroid-wedge", SCALE, SEED, false).unwrap();
        let cfg = scc::SccConfig::with_block_size(128);
        let want = golden_scc(&d.csr, &cfg);
        served(&sized(Algo::Scc, "toroid-wedge"), want);
        let w = catalog.resolve("internet", SCALE, SEED, true).unwrap();
        let want = golden_mst(w.weighted.as_ref().unwrap(), &mst::MstConfig::baseline());
        served(&job(Algo::Mst, "internet"), want);

        // The job seed selects the MIS tie-break permutation (and the
        // generated graph): two seeds, two hand-built seeded configs.
        for seed in [5u64, 0xDEAD_BEEF_CAFE] {
            let g = catalog.resolve("internet", SCALE, seed, false).unwrap();
            let want = golden_mis(&g.csr, &mis::MisConfig::seeded(seed));
            served(&JobSpec { seed, ..job(Algo::Mis, "internet") }, want);
        }
    });
}

#[test]
fn sharded_driver_equals_ecl_shard_at_two_shards() {
    let (g, d) = (generate("internet"), generate("toroid-wedge"));
    let schedule = Schedule::new().with("tie_salt", algos::adapters::mis_tie_salt(SEED));
    for (name, graph) in [("cc", &g), ("mis", &g), ("scc", &d)] {
        let views = Views { name, csr: graph, weighted: None };
        let (out, stats) =
            algos::execute_sharded(find(name), SCALE, &views, 2, Some(&schedule)).unwrap();

        let part = shard::Partition::auto(graph, 2);
        let devices = shard::devices_for(*device(name).config(), 2);
        let (checksum, want) = match name {
            "cc" => {
                let r = shard::run_cc(&devices, graph, &part);
                (checksum_u32(r.labels), r.stats)
            }
            "mis" => {
                let salt = mis::MisConfig::seeded(SEED).tie_salt;
                let r = shard::run_mis(&devices, graph, &part, salt);
                (checksum_u32(r.in_set.iter().map(|&b| b as u32)), r.stats)
            }
            _ => {
                let r = shard::run_scc(&devices, graph, &part);
                (checksum_u32(r.labels), r.stats)
            }
        };
        assert_eq!(out.aggregates.last().unwrap().1, checksum, "{name}");
        assert_eq!(stats.modeled_time.to_bits(), want.modeled_time.to_bits(), "{name}");
        assert_eq!(
            (stats.cut_arcs, stats.supersteps, stats.exchange_messages),
            (want.cut_arcs, want.supersteps, want.exchange_messages),
            "{name}"
        );
    }
}

#[test]
fn serve_registry_and_manifest_name_the_same_algorithms() {
    let registered: Vec<&str> = algos::ALL.iter().map(|a| a.name()).collect();
    assert_eq!(registered, ["cc", "gc", "mis", "mst", "scc"], "wire order is part of the contract");
    for (a, name) in Algo::ALL.into_iter().zip(&registered) {
        assert_eq!((a.name(), a.algorithm().name()), (*name, *name));
        assert_eq!(Algo::from_name(name), Some(a));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/TUNED_SCALE_0.002.json");
    let manifest = TuneManifest::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    manifest.validate().unwrap();
    let mut tuned: Vec<&str> = manifest.entries.iter().map(|e| e.algo.as_str()).collect();
    tuned.sort_unstable();
    tuned.dedup();
    assert_eq!(tuned, registered);
}

#[test]
fn every_registered_default_schedule_is_valid() {
    for a in algos::ALL {
        let s = a.default_schedule();
        assert_eq!(s.len(), a.knobs().len(), "{}: a name clash", a.name());
        s.check_against_registry(a.knobs()).unwrap();
        let findings = ecl_check::lint_schedule(a.name(), a.knobs(), &s, &DeviceConfig::rtx4090());
        assert!(findings.is_empty(), "{}: {}", a.name(), findings[0].detail);
    }
    // The paper's profiled baselines: CC full-init at 256, SCC 512, MST
    // stale launch, GC both shortcuts, MIS degree priority salt 0.
    let defaults: Vec<String> = algos::ALL.iter().map(|a| a.default_schedule().to_json()).collect();
    let want = [
        r#"{"block_size": 256, "low_bin": 16, "medium_bin": 352, "optimized_init": false}"#,
        r#"{"block_size": 256, "shortcut1": true, "shortcut2": true}"#,
        r#"{"priority": "degree", "tie_salt": 0}"#,
        r#"{"block_size": 256, "fixed_launch": false, "light_fraction": 0.5}"#,
        r#"{"block_size": 512, "trim": false}"#,
    ];
    assert_eq!(defaults, want);
}

/// The tuner's objective is the in-order modeled time whatever policy
/// its caller runs under: ten evaluations inside a four-worker pool and
/// ten inside the in-order policy give one modeled time and one result.
#[test]
fn evaluate_runs_in_order_under_any_caller_policy() {
    let und = TuneInput::from_registry("internet", SCALE, SEED).unwrap();
    let dir = TuneInput::from_registry("toroid-wedge", SCALE, SEED).unwrap();
    for a in algos::ALL {
        let input = if a.directed() { &dir } else { &und };
        let schedule = a.default_schedule();
        let ten = |policy| {
            with_policy(policy, || {
                (0..10).map(|_| evaluate(a, input, &schedule).unwrap()).collect::<Vec<_>>()
            })
        };
        let mut runs = ten(DispatchPolicy::pooled(4));
        runs.extend(ten(DispatchPolicy::sequential()));
        let key = |r: &EvalOutcome| (r.modeled_time.to_bits(), r.result_sig);
        let first = key(&runs[0]);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(key(r), first, "{}: run {i} of 20 ({})", a.name(), r.modeled_time);
        }
    }
}

/// In order, modeled time is a pure function of (algorithm, input,
/// schedule): each registered algorithm's under its default schedule,
/// on the views `ecl-run --scale 0.0005 --seed 42` generates, is pinned
/// bit for bit. (`ecl-run` itself salts MIS with its seed, so its MIS
/// number differs.) A cost-model change shows up here as a diff, not as
/// drift inside a tolerance.
#[test]
fn in_order_modeled_time_of_every_algorithm_is_pinned() {
    const SCALE: f64 = 0.0005;
    const SEED: u64 = 42;
    let pins = [
        ("cc", 32_857.0),
        ("gc", 115_969.75),
        ("mis", 29_264.5),
        ("mst", 119_583.0),
        ("scc", 619_122.25),
    ];
    let inputs = ecl_bench::Inputs::new(SCALE, SEED);
    for (a, (name, want)) in algos::ALL.into_iter().zip(pins) {
        assert_eq!(a.name(), name);
        let input = if a.directed() { "toroid-wedge" } else { "as-skitter" };
        let views = inputs.views(a, gen::registry::find(input).unwrap());
        let (_, time) = sequential(|| algos::execute(a, SCALE, &views, None)).unwrap();
        assert_eq!(time.to_bits(), f64::to_bits(want), "{name} on {input}: {time}");
    }
}
