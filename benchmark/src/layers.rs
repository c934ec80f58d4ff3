//! The traced run (`--trace 1`): the workload's loop with the span
//! recorder on, then one probe per layer, each timing calls into a
//! crate's public functions from outside. Produces every per-layer
//! metric of the manifest, whatever the workload; the workload decides
//! which graphs the kernel probes run on.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecl_gpusim::pool::{effective_workers, with_policy};
use ecl_gpusim::{launch_flat, CostKind, Device, DispatchPolicy, LaunchConfig};
use ecl_serve::exec::{execute, scaled_config};
use ecl_serve::http::{response_bytes, Limits, RequestParser};
use ecl_serve::loadgen::HttpClient;
use ecl_serve::{GraphCatalog, ResultCache, Scheduler, SchedulerConfig};

use crate::batch::{self, Rng};
use crate::jobs::{self, Algo, Done, Inputs, COST_KINDS};
use crate::metrics::{self, ALGOS};
use crate::serve;
use crate::spans;
use crate::stats::{median, Summary};
use crate::window::Outcome;

/// Per-layer metric values by name, plus the run's verdict.
struct Layers {
    values: BTreeMap<String, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("traced run: {what}");
            self.correct = false;
        }
    }
}

/// Wall time of `f` in nanoseconds, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Median wall time of `reps` calls, nanoseconds.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median(&(0..reps).map(|_| timed(|| black_box(f())).1).collect::<Vec<_>>())
}

/// Mean wall time per call over one timed batch, nanoseconds: for
/// calls too short to time one by one.
fn per_call_ns<R>(calls: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let ((), ns) = timed(|| {
        for i in 0..calls {
            black_box(f(i));
        }
    });
    ns / calls as f64
}

fn sequential<R>(f: impl FnOnce() -> R) -> R {
    with_policy(DispatchPolicy::sequential(), f)
}

/// Workers of the pool the `sim.*` pool probes run on: what the default
/// policy (and so every timed run) uses on this host, but at least two,
/// so that the queue / wake-up / ticket-claim path is what is measured
/// even on a one-CPU host.
fn pool_probe_workers() -> usize {
    effective_workers().max(2)
}

fn pooled<R>(f: impl FnOnce() -> R) -> R {
    with_policy(DispatchPolicy::pooled(pool_probe_workers()), f)
}

/// `gen.*` and `graph.*`: what set-up spends per graph.
fn graph_probes(inputs: &Inputs, m: &mut Layers) {
    let spec = ecl_graphgen::registry::find(inputs.undirected_name).expect("registry input");
    let generate_ns = median_ns(3, || {
        spans::span("gen.generate", 0, || spec.generate(inputs.scale, batch::GRAPH_SEED))
    });
    let g = &inputs.undirected;
    m.set("gen.generate_ms", generate_ns / 1e6);
    m.set("gen.arcs_per_s", g.num_arcs() as f64 / (generate_ns / 1e9));
    m.set("graph.csr_mb", inputs.csr_bytes() as f64 / (1 << 20) as f64);
    let roundtrip_ns = median_ns(3, || {
        spans::span("graph.io_roundtrip", 0, || {
            let mut bytes = Vec::new();
            ecl_graph::io::write_csr(&mut bytes, g).expect("write to memory");
            ecl_graph::io::read_csr(&mut bytes.as_slice()).expect("read back")
        })
    });
    m.set("graph.io_roundtrip_ms", roundtrip_ns / 1e6);
    let family_ns =
        median_ns(3, || spans::span("graph.family", 0, || ecl_graph::Fingerprint::of(g)));
    m.set("graph.family_ms", family_ns / 1e6);
}

/// `sim.*` and `<algo>.*`: the five kernels under the sequential
/// policy (exact) and under the pool, plus the launch path alone.
fn kernel_probes(inputs: &Inputs, m: &mut Layers) {
    let config = scaled_config(inputs.scale, 1);
    m.set("sim.device_new_us", median_ns(200, || Device::new(config)) / 1e3);
    let device = Device::new(config);
    let empty_launches = |n: usize| {
        per_call_ns(n, |_| {
            launch_flat(&device, LaunchConfig::new(8, 256), |t| {
                black_box(t);
            })
        })
    };
    m.set(
        "sim.launch_ns_pool",
        spans::span("sim.launch_flat", 0, || pooled(|| empty_launches(2000))),
    );
    m.set("sim.launch_ns_seq", sequential(|| empty_launches(2000)));

    let mut verify_ns = 0.0;
    for (a, algo) in ALGOS.iter().zip(Algo::ALL) {
        let seq: Vec<Done> =
            (0..3).map(|_| sequential(|| jobs::run_single(inputs, algo, 0))).collect();
        let pool: Vec<Done> =
            (0..3).map(|_| pooled(|| jobs::run_single(inputs, algo, 0))).collect();
        let wall =
            |runs: &[Done]| median(&runs.iter().map(|d| d.latency_ns as f64).collect::<Vec<_>>());
        let cost = seq[0].cost.expect("single-pool tally");
        m.require(
            seq.iter().all(|d| d.cost == seq[0].cost && d.units == seq[0].units),
            &format!("{a}: sequential-policy units differ between runs"),
        );
        let (ok, ns) = timed(|| spans::span("ref.verify", 0, || seq[0].verify(inputs)));
        verify_ns += ns;
        m.require(ok, &format!("{a}: sequential run failed its reference check"));

        m.set(format!("{a}.seq_wall_ms"), wall(&seq) / 1e6);
        for ((kind, name), units) in COST_KINDS.iter().zip(cost) {
            m.set(format!("{a}.units.{name}"), units as f64);
            if *kind == CostKind::KernelLaunch {
                m.set(format!("sim.launches.{a}"), units as f64);
            }
        }
        m.set(format!("sim.pool_speedup_x.{a}"), wall(&seq) / wall(&pool));
        m.set(
            format!("sim.ns_per_unit.{a}"),
            wall(&pool) / median(&pool.iter().map(|d| d.units).collect::<Vec<_>>()),
        );
        for (name, value) in &seq[0].counters {
            m.set(format!("{a}.{name}"), *value);
        }
        if algo == Algo::Gc {
            m.set("gc.colors", seq[0].headline() as f64);
        }
    }
    m.set("ref.verify_ms", verify_ns / 1e6);

    // Pool behaviour as `ecl-prof` sees it: one pass over the five
    // kernels with its sink installed.
    let collector = Arc::new(ecl_prof::Collector::new());
    ecl_prof::sink::install(Arc::clone(&collector));
    for algo in Algo::ALL {
        pooled(|| jobs::run_single(inputs, algo, 0));
    }
    ecl_prof::sink::uninstall();
    let stats = collector.snapshot();
    let launches: f64 = stats.iter().map(|k| k.launches as f64).sum::<f64>().max(1.0);
    let by_launch = |f: &dyn Fn(&ecl_prof::KernelStats) -> f64| {
        stats.iter().map(|k| f(k) * k.launches as f64).sum::<f64>() / launches
    };
    let attached_ns: f64 =
        stats.iter().map(|k| k.wall_ns.sum as f64).sum::<f64>() * pool_probe_workers() as f64;
    m.set(
        "sim.claim_wait_share",
        stats.iter().map(|k| k.claim_wait_ns as f64).sum::<f64>() / attached_ns.max(1.0),
    );
    m.set("sim.utilization", by_launch(&|k| k.utilization));
    m.set("sim.imbalance_p50_milli", by_launch(&|k| k.imbalance_milli.p50 as f64));
}

/// `prof.*`, `trace.*`, `check.*`: ECL-CC on the workload's graph with
/// each instrumentation sink installed, against none.
fn overhead_probes(inputs: &Inputs, m: &mut Layers) {
    let cc_ns = || median_ns(5, || jobs::run_single(inputs, Algo::Cc, 0));
    let plain = cc_ns();
    ecl_prof::sink::install(Arc::new(ecl_prof::Collector::new()));
    let with_prof = cc_ns();
    ecl_prof::sink::uninstall();
    ecl_trace::sink::install(Arc::new(ecl_trace::Tracer::with_clock(ecl_trace::ClockMode::Wall)));
    let with_trace = cc_ns();
    ecl_trace::sink::uninstall();
    let checked = median_ns(3, || {
        let device = Device::new(scaled_config(inputs.scale, 1));
        ecl_check::run_checked(&device, || {
            ecl_cc::run(&device, &inputs.undirected, &ecl_cc::CcConfig::baseline()).labels
        })
    });
    m.set("prof.overhead_share", with_prof / plain - 1.0);
    m.set("trace.overhead_share", with_trace / plain - 1.0);
    m.set("check.overhead_x", checked / plain);
}

/// `shard.*`: cc/mis/scc through `ecl-shard` against the single-pool
/// kernel on the same graph (always the `batch-shard4` inputs).
fn shard_probes(inputs: &Inputs, m: &mut Layers) {
    let partition_ns = median_ns(3, || {
        spans::span("shard.partition", 0, || {
            ecl_shard::Partition::auto(&inputs.undirected, jobs::SHARDS)
        })
    });
    m.set("shard.partition_ms", partition_ns / 1e6);
    for (a, algo) in ALGOS.iter().zip(Algo::ALL).filter(|(a, _)| metrics::SHARDED_ALGOS.contains(a))
    {
        let sharded: Vec<Done> = (0..3).map(|_| jobs::run_job(inputs, algo, 0)).collect();
        let single: Vec<Done> = (0..3).map(|_| jobs::run_single(inputs, algo, 0)).collect();
        m.require(
            sharded[0].checksum() == single[0].checksum(),
            &format!("{a}: sharded and single-pool solutions differ"),
        );
        let mid = |runs: &[Done], f: &dyn Fn(&Done) -> f64| {
            median(&runs.iter().map(f).collect::<Vec<_>>())
        };
        m.set(
            format!("shard.units_vs_single_x.{a}"),
            mid(&sharded, &|d| d.units) / mid(&single, &|d| d.units),
        );
        m.set(
            format!("shard.wall_vs_single_x.{a}"),
            mid(&sharded, &|d| d.latency_ns as f64) / mid(&single, &|d| d.latency_ns as f64),
        );
        for (name, value) in &sharded[0].counters {
            match *name {
                "cut_ratio" if algo == Algo::Cc => m.set("shard.cut_ratio", *value),
                "cut_ratio" => {}
                _ => m.set(format!("shard.{name}.{a}"), *value),
            }
        }
    }
}

/// `http.parse_ns`, `cache.*`, `catalog.*`, `exec.*`, `scheduler.overhead_us`: the
/// serving layers called as a library, without a server.
fn serve_library_probes(m: &mut Layers) {
    let body = serve::request_body(Algo::Cc, 7);
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let mut parser = RequestParser::new(Limits::default());
    m.set(
        "http.parse_ns",
        per_call_ns(20_000, |_| {
            parser.feed(raw.as_bytes());
            parser.try_next().expect("well-formed request").expect("complete request")
        }),
    );

    let config = serve::serve_config();
    let catalog = Arc::new(GraphCatalog::new(config.catalog));
    let cold = |seed: u64| {
        timed(|| {
            spans::span("catalog.resolve", 0, || {
                catalog
                    .resolve(serve::UNDIRECTED, serve::SCALE, seed, false)
                    .expect("registry graph")
            })
        })
        .1
    };
    m.set("catalog.resolve_cold_ms", median(&(101..106).map(cold).collect::<Vec<_>>()) / 1e6);
    m.set(
        "catalog.resolve_warm_us",
        per_call_ns(2000, |_| {
            catalog.resolve(serve::UNDIRECTED, serve::SCALE, 101, false).expect("resident")
        }) / 1e3,
    );

    let mut outputs = Vec::new();
    for (a, algo) in ALGOS.iter().zip(Algo::ALL) {
        let spec = serve::job_spec(algo, 1);
        execute(&spec, &catalog).expect("warm the catalog");
        let ns = median_ns(5, || {
            spans::span("exec.execute", 0, || execute(&spec, &catalog).expect("execute"))
        });
        m.set(format!("exec.execute_ms.{a}"), ns / 1e6);
        outputs.push(Arc::new(execute(&spec, &catalog).expect("execute")));
    }

    // A full cache: every get is a hit on a resident key, every put
    // inserts a new key and evicts the least recently used one.
    let entries = config.result_entries;
    let results = ResultCache::new(entries);
    let key = |i: usize| format!("{i:016x};probe");
    for i in 0..entries {
        results.put(key(i), Arc::clone(&outputs[i % outputs.len()]));
    }
    m.set("cache.get_ns", per_call_ns(20_000, |i| results.get(&key(i % entries))));
    m.set(
        "cache.put_ns",
        per_call_ns(2000, |i| results.put(key(entries + i), Arc::clone(&outputs[0]))),
    );

    // Scheduler alone: submit → terminal for a job the result cache
    // answers, so queue push, worker wake, probe and finish are all
    // that runs.
    let scheduler = Scheduler::start(
        SchedulerConfig::default(),
        Arc::clone(&catalog),
        Arc::new(ResultCache::new(16)),
        ecl_serve::metrics::ServeMetrics::new(),
    );
    let submit = || {
        let job = scheduler.submit(serve::job_spec(Algo::Cc, 1)).expect("admitted");
        job.wait_terminal(Duration::from_secs(30))
    };
    submit();
    m.set(
        "scheduler.overhead_us",
        median_ns(300, || spans::span("scheduler.submit", 0, submit)) / 1e3,
    );
    scheduler.shutdown();
}

/// `reactor.*`, `serve.*`, `loadgen.*` and the counters only a live
/// server exposes: a primed server, closed-loop bursts, then a short
/// open loop at the workload's rate.
fn serve_live_probes(seed: u64, seconds: f64, host_cpus: usize, m: &mut Layers) {
    let mut served = serve::set_up();
    let mut client = HttpClient::new(&served.addr, true);
    let rtt = median_ns(500, || client.call("GET", "/healthz", None).expect("healthz"));
    m.set("reactor.rtt_us", rtt / 1e3);
    let hit_body = serve::request_body(Algo::Cc, 1);
    let hit = median_ns(500, || client.call("POST", "/v1/jobs", Some(&hit_body)).expect("hit"));
    m.set("serve.hit_p50_us", hit / 1e3);
    let (_, job_document) = client.call("POST", "/v1/jobs", Some(&hit_body)).expect("hit");
    m.set(
        "http.write_ns",
        per_call_ns(20_000, |_| {
            response_bytes(200, "application/json", job_document.as_bytes(), true)
        }),
    );

    // Closed-loop capacity of the hit path: every connection sends its
    // next request the moment the last one is answered.
    let burst = Duration::from_secs_f64((seconds / 10.0).min(5.0));
    let clients = serve::clients(host_cpus);
    let (answered, burst_ns) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = &served.addr;
                    scope.spawn(move || {
                        let mut client = HttpClient::new(addr, true);
                        let mut rng = Rng(seed ^ c as u64);
                        let start = Instant::now();
                        let mut answered = 0u64;
                        while start.elapsed() < burst {
                            let algo = Algo::ALL[(rng.next() % 5) as usize];
                            let body = serve::request_body(algo, 1 + rng.next() % serve::PRIMED);
                            answered += matches!(
                                client.call("POST", "/v1/jobs", Some(&body)),
                                Ok((200, _))
                            ) as u64;
                        }
                        answered
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("burst client")).sum::<u64>()
        })
    });
    m.set("serve.hit_capacity_per_s", answered as f64 / (burst_ns / 1e9));
    // The same closed loop on the workload's mix of hits and misses:
    // what `serve::RATE` must stay under half of.
    let mix = serve::plan(seed ^ 0xCA9, (serve::RATE * seconds / 10.0).ceil() as usize);
    let mix_per_s = serve::closed_loop_per_s(&served.addr, mix, clients);
    println!(
        "mix capacity {mix_per_s:.1} req/s: the open loop offers {:.0} % of it",
        100.0 * serve::RATE / mix_per_s
    );
    m.set("serve.mix_capacity_per_s", mix_per_s);

    let requests = (serve::RATE * seconds / 6.0).ceil() as usize;
    let (samples, wall_s) = serve::open_loop(&served.addr, &serve::plan(seed, requests), clients);
    serve::print_open_loop(&samples, clients);
    let w = serve::to_window(&samples, &mut served.expected, wall_s);
    m.attempted += w.attempted;
    m.failed += w.failed;
    let latencies = |hit: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.req.hit == hit).map(|s| s.latency_ms).collect()
    };
    let refused = samples.iter().filter(|s| matches!(s.response, Ok((429 | 503, _)))).count();
    m.set("serve.miss_p50_ms", median(&latencies(false)));
    m.set(
        "serve.lat_p99_ms",
        Summary::of(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>()).p99,
    );
    m.set("serve.rejected_share", refused as f64 / samples.len().max(1) as f64);
    m.set(
        "loadgen.late_p99_ms",
        Summary::of(&samples.iter().map(|s| s.late_ms).collect::<Vec<_>>()).p99,
    );
    m.set("loadgen.sent", samples.len() as f64);

    // Queue wait as the server's flight recorder saw it, for the
    // misses still in its ring.
    let queue_ms: Vec<f64> = samples
        .iter()
        .filter(|s| !s.req.hit)
        .filter_map(|s| serve::parse_job(&s.response.as_ref().ok()?.1))
        .filter_map(|doc| {
            let (status, body) =
                client.call("GET", &format!("/v1/jobs/{}/trace", doc.id), None).ok()?;
            let trace = (status == 200).then(|| ecl_prof::json::parse(&body).ok())??;
            Some(trace.get("summary")?.get("queue_ns")?.as_f64()? / 1e6)
        })
        .collect();
    m.require(!queue_ms.is_empty(), "no miss had a retained request trace");
    let queue = Summary::of(&queue_ms);
    m.set("scheduler.queue_ms_p50", queue.median);
    m.set("scheduler.queue_ms_p90", queue.p90);

    let (_, exposition) = client.call("GET", "/metrics", None).expect("metrics");
    let counter = |name: &str| serve::prometheus_value(&exposition, name).unwrap_or(f64::NAN);
    m.set("cache.hit_share", counter("ecl_serve_result_cache_hit_ratio"));
    m.set("catalog.evictions", counter("ecl_serve_graph_cache_evictions_total"));
    served.server.shutdown();
}

/// The workload's own loop, half with the span recorder off and half
/// with it on: the recorder's cost in jobs per second.
fn workload_halves(
    workload: &str,
    seed: u64,
    seconds: f64,
    host_cpus: usize,
    m: &mut Layers,
) -> Inputs {
    let half = seconds / 6.0;
    let (untraced, traced, inputs) = match batch::spec(workload) {
        Some(spec) => {
            let inputs = spans::span("bench.setup", 0, || spec.build());
            batch::print_inputs(&inputs);
            let (expected, ok) = batch::warm_up(&inputs);
            m.require(ok, "warm-up failed a reference check");
            let mut rng = Rng(seed);
            spans::set_enabled(false);
            let untraced = batch::run_window(&inputs, &expected, half, &mut rng);
            spans::set_enabled(true);
            let traced = batch::run_window(&inputs, &expected, half, &mut rng);
            (untraced, traced, inputs)
        }
        None => {
            let mut served = spans::span("bench.setup", 0, serve::set_up);
            let requests = (serve::RATE * half).ceil() as usize;
            let clients = serve::clients(host_cpus);
            let mut window = |run_seed: u64| {
                let (samples, wall_s) =
                    serve::open_loop(&served.addr, &serve::plan(run_seed, requests), clients);
                serve::to_window(&samples, &mut served.expected, wall_s)
            };
            spans::set_enabled(false);
            let untraced = window(seed);
            spans::set_enabled(true);
            let traced = window(seed + 1);
            served.server.shutdown();
            let scales = [serve::SCALE, serve::MST_SCALE, serve::SCC_SCALE];
            let inputs = Inputs::build(serve::UNDIRECTED, serve::DIRECTED, scales, 1, 1, false);
            (untraced, traced, inputs)
        }
    };
    for w in [&untraced, &traced] {
        m.attempted += w.attempted;
        m.failed += w.failed;
    }
    m.set("bench.trace_overhead_share", 1.0 - traced.jobs_per_s() / untraced.jobs_per_s());
    inputs
}

pub fn traced_run(workload: &str, seed: u64, seconds: f64, host_cpus: usize) -> Outcome {
    spans::set_enabled(true);
    let mut m = Layers { values: BTreeMap::new(), correct: true, attempted: 0, failed: 0 };
    let inputs = workload_halves(workload, seed, seconds, host_cpus, &mut m);
    graph_probes(&inputs, &mut m);
    kernel_probes(&inputs, &mut m);
    overhead_probes(&inputs, &mut m);
    match batch::spec(workload) {
        Some(spec) if spec.sharded => shard_probes(&inputs, &mut m),
        _ => shard_probes(&batch::spec("batch-shard4").expect("defined").build(), &mut m),
    }
    serve_library_probes(&mut m);
    serve_live_probes(seed, seconds, host_cpus, &mut m);

    println!("span totals (count, total ms, self ms):");
    for (name, t) in spans::totals_by_name(&spans::snapshot()) {
        println!(
            "  {name:<34} {:>7} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|def| {
            let value = m
                .values
                .get(&def.name)
                .copied()
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            (def.name, value, def.unit)
        })
        .collect();
    Outcome {
        correct: m.correct && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    }
}
