//! `ecl-run` — run any registered algorithm on any registered input and
//! print its aggregates and the application-specific counters the
//! paper's methodology produces.
//!
//! ```text
//! ecl-run --algo cc  --input europe_osm --scale 0.01 [--optimized]
//! ecl-run --algo mis --input as-skitter --histogram
//! ecl-run --algo scc --input star --block-size 256 [--trim]
//! ecl-run --algo mst --input amazon0601 [--fixed-launch] [--kernels]
//! ecl-run --algo gc  --input coPapersDBLP [--no-shortcuts]
//! ecl-run --algo cc  --input coPapersDBLP --trace out.etr
//! ecl-run --list
//! ```
//!
//! Every mode goes through the registry (`ecl_algos`): the algorithm is
//! a `&dyn Algorithm`, the counters come from its `Outcome`, and the
//! variant flags are schedule knobs ([`FLAG_KNOBS`]), so this file names
//! no algorithm. The schedule is the `--tuned` entry for the input's
//! family, then the flags (which win), then the seed's tie-break salt
//! for an algorithm that has one, as serve sets it. `--profile` and
//! `--shards` run that same schedule. `--kernels` adds a per-kernel
//! table in both currencies: an `ecl_prof::Collector` attached to the
//! run's device sums each launch's modeled cost units and wall time,
//! and a final `(host)` row holds the cost charged outside any launch.
//!
//! `--trace <path>` records kernel launches, block lifetimes, atomic
//! outcomes, and per-round phases into a `.etr` capture; inspect it
//! with the `ecl-trace` binary (`ecl-trace export --chrome out.etr`
//! loads in Perfetto).
//!
//! `--check` runs the algorithm under the `ecl-check` data-race
//! sanitizer and launch linter, prints the findings report after the
//! run, and exits with status 1 if any unsuppressed finding remains.
//!
//! A bad argument exits 2 with one line, and so does a flag the mode
//! cannot honour: `--check` and `--kernels` watch the one device a
//! `--shards` run does not use, and `--profile` runs its own repeats,
//! so it takes none of `--shards`, `--trace`, `--check`, `--kernels`
//! and `--histogram`, while `--repeats` requires it.

use std::sync::Arc;

use ecl_algos::Algorithm;
use ecl_bench::{parse_int, usage_error};
use ecl_gpusim::schedule::find_knob;
use ecl_gpusim::{Device, KnobValue, Schedule};
use ecl_prof::{Collector, KernelStats};

/// The variant flags and the schedule knobs each one sets.
/// `--block-size n` sets `block_size` the same way.
const FLAG_KNOBS: [(&str, &[(&str, bool)]); 4] = [
    ("--optimized", &[("optimized_init", true)]),
    ("--fixed-launch", &[("fixed_launch", true)]),
    ("--no-shortcuts", &[("shortcut1", false), ("shortcut2", false)]),
    ("--trim", &[("trim", true)]),
];

#[derive(Default)]
struct Args {
    algo: String,
    input: String,
    scale: f64,
    seed: u64,
    /// `(flag, knob, value)` for every knob a flag set, in flag order.
    knobs: Vec<(&'static str, &'static str, KnobValue)>,
    histogram: bool,
    kernels: bool,
    trace: Option<String>,
    check: bool,
    profile: Option<String>,
    /// `--repeats n` (`--profile` only; 3 when absent).
    repeats: Option<usize>,
    /// `--shards N`: run across N modeled GPUs through ecl-shard
    /// (1 = ordinary single-pool execution).
    shards: u32,
    /// `--tuned <manifest>`: the `ecl-tune/1` manifest whose entry for
    /// (algo, input family) the schedule starts from.
    tuned: Option<ecl_tune::TuneManifest>,
}

/// Writes the `.etr` capture when the run finishes — on drop, so every
/// path out of `main` still produces the file.
struct TraceGuard {
    path: Option<String>,
}

impl TraceGuard {
    fn start(path: Option<String>) -> TraceGuard {
        if path.is_some() {
            ecl_trace::sink::install(Arc::new(ecl_trace::Tracer::with_clock(
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
    let names = |keep: fn(&dyn Algorithm) -> bool| {
        ecl_algos::ALL.iter().filter(|a| keep(**a)).map(|a| a.name()).collect::<Vec<_>>().join("|")
    };
    eprintln!(
        "usage: ecl-run --algo <{}> --input <name> \
         [--scale f] [--seed n] [--block-size n]\n\
         \x20      [--optimized] [--fixed-launch] [--no-shortcuts] [--trim]  (schedule knobs)\n\
         \x20      [--histogram] [--kernels]  (per-kernel modeled and wall time)\n\
         \x20      [--tuned <manifest.json>]  (apply the ecl-tune/1 schedule for this input's family)\n\
         \x20      [--trace <path>]  (record a .etr event capture; see the ecl-trace binary)\n\
         \x20      [--check]  (race sanitizer and launch linter; exit 1 on findings)\n\
         \x20      [--profile <dir>] [--repeats n]  (write manifest.json/metrics.prom/flame.* \n\
         \x20                                        profiling artifacts; see the ecl-prof binary;\n\
         \x20                                        takes no --shards/--trace/--check/--kernels/--histogram)\n\
         \x20      [--shards n]  (run {} across n modeled GPUs via ecl-shard; no --check/--kernels)\n\
         \x20      ecl-run --list    (show registered inputs)",
        names(|_| true),
        names(|a| a.run_sharded().is_some()),
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut a = Args {
        scale: ecl_bench::DEFAULT_SCALE,
        seed: ecl_bench::DEFAULT_SEED,
        shards: 1,
        ..Args::default()
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        if let Some((flag, knobs)) = FLAG_KNOBS.iter().find(|(flag, _)| flag == arg) {
            a.knobs.extend(knobs.iter().map(|&(knob, v)| (*flag, knob, KnobValue::Bool(v))));
            continue;
        }
        match arg.as_str() {
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
            "--histogram" => a.histogram = true,
            "--kernels" => a.kernels = true,
            "--check" => a.check = true,
            flag => {
                let unknown = || -> ! { usage_error(&format!("unknown argument: {arg}")) };
                let value = args.next().unwrap_or_else(|| unknown());
                match flag {
                    "--algo" => a.algo = value.clone(),
                    "--input" => a.input = value.clone(),
                    "--scale" => {
                        a.scale = ecl_bench::parse_scale(value).unwrap_or_else(|e| usage_error(&e))
                    }
                    "--seed" => a.seed = parse_int("seed", value),
                    "--repeats" => a.repeats = Some(parse_int("repeats", value)),
                    "--shards" => {
                        a.shards = parse_int("shards", value);
                        if a.shards < 1 || a.shards > ecl_shard::MAX_SHARDS {
                            usage_error(&format!(
                                "--shards must be in [1, {}]",
                                ecl_shard::MAX_SHARDS
                            ));
                        }
                    }
                    "--block-size" => match value.parse::<i64>() {
                        // Serve's bound on the same knob (`block_size` in a job).
                        Ok(bs) if (1..=1024).contains(&bs) => {
                            a.knobs.push(("--block-size", "block_size", KnobValue::Int(bs)))
                        }
                        _ => usage_error(&format!(
                            "--block-size must be an integer in [1, 1024], got {value:?}"
                        )),
                    },
                    "--trace" => a.trace = Some(value.clone()),
                    "--profile" => a.profile = Some(value.clone()),
                    "--tuned" => {
                        let loaded = std::fs::read_to_string(value)
                            .map_err(|e| e.to_string())
                            .and_then(|t| ecl_tune::TuneManifest::from_json(&t));
                        a.tuned = Some(
                            loaded
                                .unwrap_or_else(|e| usage_error(&format!("--tuned {value}: {e}"))),
                        );
                    }
                    _ => unknown(),
                }
            }
        }
    }
    if a.algo.is_empty() || a.input.is_empty() {
        usage();
    }
    let (sharded, profiled) = (a.shards > 1, a.profile.is_some());
    for (clash, flag, mode) in [
        (sharded && a.check, "--check", "--shards"),
        (sharded && a.kernels, "--kernels", "--shards"),
        (profiled && sharded, "--shards", "--profile"),
        (profiled && a.trace.is_some(), "--trace", "--profile"),
        (profiled && a.check, "--check", "--profile"),
        (profiled && a.kernels, "--kernels", "--profile"),
        (profiled && a.histogram, "--histogram", "--profile"),
    ] {
        if clash {
            usage_error(&format!("{flag} cannot be combined with {mode}"));
        }
    }
    if a.repeats.is_some() && !profiled {
        usage_error("--repeats requires --profile");
    }
    a
}

/// The run's schedule: the `--tuned` entry for the input's family
/// (single-pool runs only, as in serve), then the flags' knobs, then the
/// seed's tie-break salt, which keeps authority over the permutation as
/// it does in serve.
fn schedule(a: &Args, algo: &dyn Algorithm, g: &ecl_graph::Csr) -> Schedule {
    let mut s = Schedule::new();
    if let Some(manifest) = a.tuned.as_ref().filter(|_| a.shards == 1) {
        let name = algo.name();
        let family = ecl_graph::Fingerprint::of(g).family_key();
        match manifest.lookup(name, &family) {
            Some(e) => {
                eprintln!(
                    "tuned: {name} matched family {family} (tuned on {}, {:.2}x): {}",
                    e.input,
                    e.speedup(),
                    e.schedule.to_json()
                );
                s = e.schedule.clone();
            }
            None => eprintln!("tuned: no {name} entry for family {family}; running defaults"),
        }
    }
    for (_, knob, value) in &a.knobs {
        s.set(knob, value.clone());
    }
    if find_knob(algo.knobs(), "tie_salt").is_some() {
        s.set("tie_salt", ecl_algos::adapters::mis_tie_salt(a.seed));
    }
    s
}

/// One row per kernel a collector on `device` recorded, by modeled
/// time (its units under the device's weights), then `(host)`: the
/// device's modeled time no launch charged. The shares therefore sum to
/// the `modeled cost` line; times print to two decimals, exact for the
/// default weights (multiples of 0.25), so the rows add up to it too.
fn print_kernels(device: &Device, mut kernels: Vec<KernelStats>) {
    let time = |k: &KernelStats| device.params().time_of(&k.units);
    kernels.sort_by(|a, b| time(b).total_cmp(&time(a)));
    let total = device.modeled_time();
    let share = |modeled: f64| 100.0 * modeled / total.max(1e-12);
    println!("\nper-kernel cost breakdown");
    println!(
        "  {:<18} {:>6} {:>14} {:>7} {:>10}",
        "kernel", "calls", "modeled", "share", "wall (s)"
    );
    for k in &kernels {
        let (modeled, wall) = (time(k), k.wall_ns.sum as f64 / 1e9);
        let (name, calls, share) = (&k.name, k.launches, share(modeled));
        println!("  {name:<18} {calls:>6} {modeled:>14.2} {share:>6.1}% {wall:>10.4}");
    }
    let host = total - kernels.iter().map(time).sum::<f64>();
    println!("  {:<18} {:>6} {host:>14.2} {:>6.1}% {:>10}", "(host)", "-", share(host), "-");
}

fn print_cost(device: &Device) {
    println!("\nmodeled cost: {:.0} units", device.modeled_time());
    for (kind, units) in device.cost().breakdown() {
        if units > 0 {
            println!("  {kind:?}: {units}");
        }
    }
}

fn main() {
    let a = parse();
    let algo = ecl_algos::find(&a.algo)
        .unwrap_or_else(|| usage_error(&format!("unknown algorithm {:?}", a.algo)));
    let spec = ecl_graphgen::registry::find(&a.input)
        .unwrap_or_else(|| usage_error(&format!("unknown input '{}'; try --list", a.input)));
    // The input contract every consumer shares (serve answers a job
    // with the same line): checked before anything is generated.
    if let Err(e) = ecl_algos::check_directedness(algo, spec.name, spec.directed) {
        usage_error(&e);
    }
    for (flag, knob, _) in &a.knobs {
        if find_knob(algo.knobs(), knob).is_none() {
            usage_error(&format!("{} has no knob {knob:?} ({flag})", algo.name()));
        }
    }
    let inputs = ecl_bench::Inputs::new(a.scale, a.seed);
    let views = inputs.views(algo, spec);
    let schedule = schedule(&a, algo, views.csr);

    if let Some(dir) = &a.profile {
        let repeats = a.repeats.unwrap_or(3);
        let pspec = ecl_bench::profile_run::ProfileSpec {
            algo,
            views,
            scale: a.scale,
            seed: a.seed,
            repeats,
            schedule: &schedule,
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
                    repeats,
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

    // Installed first: the device starts from the observers installed
    // by then.
    let _trace = TraceGuard::start(a.trace.clone());
    let device = Device::new(ecl_algos::device_config(algo, a.scale));
    println!(
        "input {} at scale {} (seed {}), device: {} SMs / {} threads",
        spec.name,
        a.scale,
        a.seed,
        device.config().num_sms,
        device.resident_threads()
    );
    let session = a.check.then(|| ecl_check::CheckSession::begin(&device));
    let title = algo.name().to_uppercase();
    if a.shards > 1 {
        // One modeled GPU per shard: results bit-identical to the
        // single-pool run; modeled time is max-over-shards compute plus
        // the cross-shard exchange cost.
        let (run, secs) = ecl_gpusim::run_timed(|| {
            ecl_algos::execute_sharded(algo, a.scale, &views, a.shards, Some(&schedule))
        });
        let (outcome, stats) = run.unwrap_or_else(|e| usage_error(&e));
        println!("\nECL-{title} ({} shards) in {secs:.3}s", a.shards);
        print!("{}", ecl_bench::render_counters(&outcome, a.histogram));
        println!(
            "  partition: {} ({} shards), cut {}/{} arcs ({:.3})",
            stats.strategy.name(),
            stats.shards,
            stats.cut_arcs,
            stats.total_arcs,
            stats.cut_ratio()
        );
        println!(
            "  supersteps: {}, exchange messages: {}",
            stats.supersteps, stats.exchange_messages
        );
        println!("\nmodeled cost: {:.0} units (max-over-shards + exchange)", stats.modeled_time);
    } else {
        let collector = a.kernels.then(|| Arc::new(Collector::new()));
        let attached = collector.as_ref().map(|c| device.observe(c.clone()));
        let (outcome, secs) = ecl_gpusim::run_timed(|| algo.run(&device, &views, &schedule));
        println!("\nECL-{title} in {secs:.3}s");
        print!("{}", ecl_bench::render_counters(&outcome, a.histogram));
        drop(attached);
        if let Some(collector) = collector {
            print_kernels(&device, collector.snapshot());
        }
        print_cost(&device);
    }

    if let Some(session) = session {
        let report = session.finish();
        print!("\n{}", report.render(&format!("ecl-check: {} on {}", a.algo, spec.name)));
        if !report.is_clean() {
            eprintln!("ecl-check: unsuppressed findings — failing");
            std::process::exit(1);
        }
    }
}
