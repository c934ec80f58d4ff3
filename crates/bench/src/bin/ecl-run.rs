//! `ecl-run` — run any of the five instrumented algorithms on any
//! registered input and dump the counters the paper's methodology
//! produces.
//!
//! ```text
//! ecl-run --algo cc  --input europe_osm --scale 0.01 [--optimized]
//! ecl-run --algo mis --input as-skitter --histogram
//! ecl-run --algo scc --input star --block-size 256 [--trim]
//! ecl-run --algo mst --input amazon0601 [--fixed-launch]
//! ecl-run --algo gc  --input coPapersDBLP [--no-shortcuts]
//! ecl-run --algo cc  --input coPapersDBLP --trace out.etr
//! ecl-run --list
//! ```
//!
//! `--trace <path>` records kernel launches, block lifetimes, atomic
//! outcomes, and per-round phases into a `.etr` capture; inspect it
//! with the `ecl-trace` binary (`ecl-trace export --chrome out.etr`
//! loads in Perfetto).
//!
//! `--check` runs the algorithm under the `ecl-check` data-race
//! sanitizer and launch linter, prints the findings report after the
//! run, and exits with status 1 if any unsuppressed finding remains.

use ecl_profiling::{chart, Histogram};

struct Args {
    algo: String,
    input: String,
    scale: f64,
    seed: u64,
    optimized: bool,
    fixed_launch: bool,
    no_shortcuts: bool,
    trim: bool,
    block_size: Option<usize>,
    histogram: bool,
    kernels: bool,
    trace: Option<String>,
    check: bool,
    profile: Option<String>,
    repeats: usize,
    /// `--shards N`: run CC/MIS/SCC sharded across N modeled GPUs
    /// through ecl-shard (1 = ordinary single-pool execution).
    shards: u32,
    /// `--tuned <manifest>`: apply the best-known schedule for
    /// (algo, input family) from an `ecl-tune/1` manifest. Overrides
    /// the toggle flags; an explicit `--block-size` still wins.
    tuned: Option<ecl_tune::TuneManifest>,
}

/// Looks up the manifest schedule matching `algo` and the generated
/// graph's family fingerprint; announces the match on stderr.
fn tuned_schedule(a: &Args, algo: &str, g: &ecl_graph::Csr) -> Option<ecl_gpusim::Schedule> {
    let manifest = a.tuned.as_ref()?;
    let family = ecl_graph::Fingerprint::of(g).family_key();
    match manifest.lookup(algo, &family) {
        Some(e) => {
            eprintln!(
                "tuned: {algo} matched family {family} (tuned on {}, {:.2}x): {}",
                e.input,
                e.speedup(),
                e.schedule.to_json()
            );
            Some(e.schedule.clone())
        }
        None => {
            eprintln!("tuned: no {algo} entry for family {family}; running defaults");
            None
        }
    }
}

/// Writes the `.etr` capture when the run finishes — on drop, so the
/// early-return paths (e.g. `--kernels`) still produce the file.
struct TraceGuard {
    path: Option<String>,
}

impl TraceGuard {
    fn start(path: Option<String>) -> TraceGuard {
        if path.is_some() {
            ecl_trace::sink::install(std::sync::Arc::new(ecl_trace::Tracer::with_clock(
                ecl_trace::ClockMode::Wall,
            )));
        }
        TraceGuard { path }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        let Some(tracer) = ecl_trace::sink::uninstall() else { return };
        let snap = tracer.snapshot();
        let result =
            std::fs::File::create(&path).and_then(|mut f| ecl_trace::write_snapshot(&mut f, &snap));
        match result {
            Ok(()) => eprintln!(
                "trace: {} events ({} dropped) -> {path}",
                snap.events.len(),
                snap.dropped_total()
            ),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ecl-run --algo <cc|gc|mis|mst|scc> --input <name> \
         [--scale f] [--seed n] [--block-size n]\n\
         \x20      [--optimized] [--fixed-launch] [--no-shortcuts] [--trim] [--histogram] [--kernels]\n\
         \x20      [--tuned <manifest.json>]  (apply the ecl-tune/1 schedule for this input's family)\n\
         \x20      [--trace <path>]  (record a .etr event capture; see the ecl-trace binary)\n\
         \x20      [--profile <dir>] [--repeats n]  (write manifest.json/metrics.prom/flame.* \n\
         \x20                                        profiling artifacts; see the ecl-prof binary)\n\
         \x20      [--shards n]  (run cc|mis|scc across n modeled GPUs via ecl-shard)\n\
         \x20      ecl-run --list    (show registered inputs)"
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut a = Args {
        algo: String::new(),
        input: String::new(),
        scale: ecl_bench::DEFAULT_SCALE,
        seed: ecl_bench::DEFAULT_SEED,
        optimized: false,
        fixed_launch: false,
        no_shortcuts: false,
        trim: false,
        block_size: None,
        histogram: false,
        kernels: false,
        trace: None,
        check: false,
        profile: None,
        repeats: 3,
        shards: 1,
        tuned: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--list" => {
                for spec in ecl_graphgen::all_inputs() {
                    println!(
                        "{:<18} {:<14} {}directed, paper |V| = {}",
                        spec.name,
                        spec.graph_type,
                        if spec.directed { "" } else { "un" },
                        spec.paper_vertices
                    );
                }
                std::process::exit(0);
            }
            "--algo" if i + 1 < argv.len() => {
                a.algo = argv[i + 1].clone();
                i += 1;
            }
            "--input" if i + 1 < argv.len() => {
                a.input = argv[i + 1].clone();
                i += 1;
            }
            "--scale" if i + 1 < argv.len() => {
                a.scale = ecl_bench::parse_scale(&argv[i + 1])
                    .unwrap_or_else(|e| ecl_bench::usage_error(&e));
                i += 1;
            }
            "--seed" if i + 1 < argv.len() => {
                a.seed = argv[i + 1].parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--block-size" if i + 1 < argv.len() => {
                // Serve's bound on the same knob (`block_size` in a job).
                match argv[i + 1].parse::<usize>() {
                    Ok(bs) if (1..=1024).contains(&bs) => a.block_size = Some(bs),
                    _ => {
                        eprintln!(
                            "--block-size must be an integer in [1, 1024], got {:?}",
                            argv[i + 1]
                        );
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            "--trace" if i + 1 < argv.len() => {
                a.trace = Some(argv[i + 1].clone());
                i += 1;
            }
            "--tuned" if i + 1 < argv.len() => {
                let path = &argv[i + 1];
                let loaded = std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| ecl_tune::TuneManifest::from_json(&t));
                match loaded {
                    Ok(m) => a.tuned = Some(m),
                    Err(e) => {
                        eprintln!("--tuned {path}: {e}");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            "--profile" if i + 1 < argv.len() => {
                a.profile = Some(argv[i + 1].clone());
                i += 1;
            }
            "--repeats" if i + 1 < argv.len() => {
                a.repeats = argv[i + 1].parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--shards" if i + 1 < argv.len() => {
                a.shards = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if a.shards < 1 || a.shards as usize > ecl_shard::MAX_SHARDS as usize {
                    eprintln!("--shards must be in [1, {}]", ecl_shard::MAX_SHARDS);
                    std::process::exit(2);
                }
                i += 1;
            }
            "--optimized" => a.optimized = true,
            "--fixed-launch" => a.fixed_launch = true,
            "--no-shortcuts" => a.no_shortcuts = true,
            "--trim" => a.trim = true,
            "--histogram" => a.histogram = true,
            "--kernels" => a.kernels = true,
            "--check" => a.check = true,
            _ => usage(),
        }
        i += 1;
    }
    if a.algo.is_empty() || a.input.is_empty() {
        usage();
    }
    a
}

fn print_cost(device: &ecl_gpusim::Device) {
    println!("\nmodeled cost: {:.0} units", device.modeled_time());
    for (kind, units) in device.cost().breakdown() {
        if units > 0 {
            println!("  {kind:?}: {units}");
        }
    }
}

fn main() {
    let a = parse();
    let algo = ecl_algos::find(&a.algo).unwrap_or_else(|| {
        eprintln!("unknown algorithm '{}'", a.algo);
        usage();
    });
    let spec = ecl_graphgen::registry::find(&a.input).unwrap_or_else(|| {
        eprintln!("unknown input '{}'; try --list", a.input);
        std::process::exit(2);
    });
    // The input contract every consumer shares (serve answers a job
    // with the same line): checked before anything is generated.
    if let Err(e) = ecl_algos::check_directedness(algo, spec.name, spec.directed) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    if let Some(dir) = &a.profile {
        let pspec = ecl_bench::profile_run::ProfileSpec {
            algo,
            input: &a.input,
            scale: a.scale,
            seed: a.seed,
            repeats: a.repeats,
        };
        match ecl_bench::profile_run::profile(&pspec, std::path::Path::new(dir)) {
            Ok(manifest) => {
                let wall = manifest.metrics.iter().find(|m| m.name == "wall_seconds");
                let median = wall.map(|m| {
                    let mut v = m.samples.clone();
                    v.sort_by(f64::total_cmp);
                    v[v.len() / 2]
                });
                println!(
                    "profiled {} on {} x{}: {} kernels, median wall {:.3}s -> {dir}/",
                    a.algo,
                    a.input,
                    a.repeats,
                    manifest.kernels.len(),
                    median.unwrap_or(0.0)
                );
            }
            Err(e) => {
                eprintln!("profile: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let device = ecl_bench::scaled_device(a.scale);
    let _trace = TraceGuard::start(a.trace.clone());
    println!(
        "input {} at scale {} (seed {}), device: {} SMs / {} threads",
        spec.name,
        a.scale,
        a.seed,
        device.config().num_sms,
        device.resident_threads()
    );

    if a.check {
        let session = ecl_check::CheckSession::begin(&device);
        run_algo(&a, algo, spec, &device);
        let report = session.finish();
        print!("\n{}", report.render(&format!("ecl-check: {} on {}", a.algo, spec.name)));
        if !report.is_clean() {
            eprintln!("ecl-check: unsuppressed findings — failing");
            std::process::exit(1);
        }
        return;
    }
    run_algo(&a, algo, spec, &device);
}

/// `--shards N` execution: partition the input and run through
/// ecl-shard with one modeled GPU per shard. Results are bit-identical
/// to the single-pool kernels; modeled time reflects max-over-shards
/// compute plus the cross-shard exchange cost.
fn run_sharded(a: &Args, algo: &dyn ecl_algos::Algorithm, spec: &ecl_graphgen::InputSpec) {
    let g = spec.generate(a.scale, a.seed);
    let views = ecl_algos::Views { name: spec.name, csr: Some(&g), weighted: None };
    // The job seed selects the MIS tie-break permutation, as in serve.
    let schedule =
        ecl_gpusim::Schedule::new().with("tie_salt", ecl_algos::adapters::mis_tie_salt(a.seed));
    let (run, secs) = ecl_gpusim::run_timed(|| {
        ecl_algos::execute_sharded(algo, a.scale, &views, a.shards, Some(&schedule))
    });
    let (outcome, stats) = run.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("\nECL-{} ({} shards) in {secs:.3}s", algo.name().to_uppercase(), a.shards);
    for (name, value) in &outcome.aggregates {
        println!("  {name}: {value}");
    }
    println!(
        "  partition: {} ({} shards), cut {}/{} arcs ({:.3})",
        stats.strategy.name(),
        stats.shards,
        stats.cut_arcs,
        stats.total_arcs,
        stats.cut_ratio()
    );
    println!("  supersteps: {}, exchange messages: {}", stats.supersteps, stats.exchange_messages);
    println!("\nmodeled cost: {:.0} units (max-over-shards + exchange)", stats.modeled_time);
}

fn run_algo(
    a: &Args,
    algo: &dyn ecl_algos::Algorithm,
    spec: &ecl_graphgen::InputSpec,
    device: &ecl_gpusim::Device,
) {
    if a.shards > 1 {
        run_sharded(a, algo, spec);
        return;
    }
    match a.algo.as_str() {
        "cc" => {
            let g = spec.generate(a.scale, a.seed);
            let mut cfg = if a.optimized {
                ecl_cc::CcConfig::optimized()
            } else {
                ecl_cc::CcConfig::baseline()
            };
            if let Some(s) = tuned_schedule(a, "cc", &g) {
                cfg.apply_schedule(&s);
            }
            if a.kernels {
                let ((r, profile), secs) =
                    ecl_gpusim::run_timed(|| ecl_cc::run_profiled(device, &g, &cfg));
                println!("\nECL-CC: {} components in {secs:.3}s", r.num_components());
                print!("{}", profile.render("per-kernel cost breakdown"));
                print_cost(device);
                return;
            }
            let (r, secs) = ecl_gpusim::run_timed(|| ecl_cc::run(device, &g, &cfg));
            println!(
                "\nECL-CC{}: {} components in {:.3}s",
                if a.optimized { " (optimized init)" } else { "" },
                r.num_components(),
                secs
            );
            let c = &r.counters;
            println!("  vertices initialized: {}", c.vertices_initialized.get());
            println!("  neighbors traversed:  {}", c.vertices_traversed.get());
            println!(
                "  representative(): {} calls ({} made progress)",
                c.find_calls.get(),
                c.find_smaller.get()
            );
            println!(
                "  hook atomicCAS: {} attempted, {} failed",
                c.hook_cas.attempted(),
                c.hook_cas.cas_failed()
            );
            print_cost(device);
        }
        "mis" => {
            let g = spec.generate(a.scale, a.seed);
            let mut cfg = ecl_mis::MisConfig::default();
            if let Some(s) = tuned_schedule(a, "mis", &g) {
                cfg.apply_schedule(&s);
            }
            let (r, secs) = ecl_gpusim::run_timed(|| ecl_mis::run(device, &g, &cfg));
            println!("\nECL-MIS: {} selected in {} rounds ({secs:.3}s)", r.set_size(), r.rounds);
            for (name, counter) in [
                ("iterations", &r.counters.iterations),
                ("assigned", &r.counters.assigned),
                ("finalized", &r.counters.finalized),
            ] {
                let s = counter.summary();
                println!("  {name}: avg {:.2}, max {:.0}", s.avg, s.max);
                if a.histogram {
                    print!(
                        "{}",
                        Histogram::of(&counter.values())
                            .render(&format!("  {name} distribution"), 40)
                    );
                }
            }
            print_cost(device);
        }
        "gc" => {
            let g = spec.generate(a.scale, a.seed);
            let mut cfg = if a.no_shortcuts {
                ecl_gc::GcConfig::no_shortcuts()
            } else {
                ecl_gc::GcConfig::default()
            };
            if let Some(s) = tuned_schedule(a, "gc", &g) {
                cfg.apply_schedule(&s);
            }
            let (r, secs) = ecl_gpusim::run_timed(|| ecl_gc::run(device, &g, &cfg));
            println!(
                "\nECL-GC{}: {} colors in {} rounds ({secs:.3}s)",
                if a.no_shortcuts { " (no shortcuts)" } else { "" },
                r.num_colors(),
                r.rounds
            );
            let (bc, nyp) = r.counters.large_vertex_summaries(&g, ecl_gc::LARGE_DEGREE);
            println!("  runLarge best-color-changed: avg {:.2}, max {:.0}", bc.avg, bc.max);
            println!("  runLarge not-yet-possible:   avg {:.2}, max {:.0}", nyp.avg, nyp.max);
            println!("  shortcut-2 removals: {}", r.counters.shortcut2_removals.get());
            if a.histogram {
                print!(
                    "{}",
                    Histogram::of(&r.counters.not_yet_possible.values())
                        .render("  per-vertex stall distribution", 40)
                );
            }
            print_cost(device);
        }
        "mst" => {
            let g = spec.generate_weighted(a.scale, a.seed, 1 << 20);
            let mut cfg = if a.fixed_launch {
                ecl_mst::MstConfig::fixed()
            } else {
                ecl_mst::MstConfig::baseline()
            };
            if let Some(s) = tuned_schedule(a, "mst", g.csr()) {
                cfg.apply_schedule(&s);
            }
            let (r, secs) = ecl_gpusim::run_timed(|| ecl_mst::run(device, &g, &cfg));
            println!(
                "\nECL-MST{}: {} edges, weight {}, {} trees ({secs:.3}s)",
                if a.fixed_launch { " (fixed launch)" } else { "" },
                r.edges.len(),
                r.total_weight,
                r.num_trees
            );
            print!("{}", r.counters.bars.to_table("  per-iteration metrics").render());
            println!(
                "  atomicMin total: {} attempted, {:.1}% useless",
                r.counters.atomics.attempted(),
                100.0 * r.counters.atomics.useless_fraction()
            );
            print_cost(device);
        }
        "scc" => {
            let g = spec.generate(a.scale, a.seed);
            let mut cfg = ecl_scc::SccConfig::original();
            cfg.trim = a.trim;
            if let Some(s) = tuned_schedule(a, "scc", &g) {
                cfg.apply_schedule(&s);
            }
            // An explicit flag still beats the manifest.
            if let Some(bs) = a.block_size {
                cfg.block_size = bs;
            }
            let (r, secs) = ecl_gpusim::run_timed(|| ecl_scc::run(device, &g, &cfg));
            println!(
                "\nECL-SCC (block {}{}): {} SCCs in {} outer iterations ({secs:.3}s)",
                cfg.block_size,
                if a.trim { ", trimmed" } else { "" },
                r.num_sccs(),
                r.outer_iterations
            );
            println!("  edges pruned: {}", r.counters.edges_removed.get());
            println!(
                "  atomicMax: {} attempted, {} effective",
                r.counters.max_tally.attempted(),
                r.counters.max_tally.updated()
            );
            println!("  modeled parallel time: {:.0}", r.modeled_parallel_time);
            if let Some(row) = r.counters.series.row(1, 1) {
                print!("{}", chart::column_chart("  block updates, m=1 n=1", &row, 60, 6));
            }
            print_cost(device);
        }
        other => unreachable!("'{other}' is registered but has no counter printer here"),
    }
}
