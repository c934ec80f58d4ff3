//! The `serve-mix` workload: an in-process `ecl_serve::Server` under
//! the benchmark's own open-loop load generator.
//!
//! The generator is not `ecl_serve::loadgen::run` (whose open loop
//! spawns a thread per arrival): a fixed set of client threads, one
//! persistent `HttpClient` connection each, take the next request off
//! a shared schedule, wait until it is due, and time it **from its due
//! time**, so a stall is charged to every request it delays.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ecl_prof::json::{self, Value};
use ecl_serve::loadgen::HttpClient;
use ecl_serve::{CatalogConfig, JobSpec, ServeConfig, Server};

use crate::batch::{repeated_setup, Rng};
use crate::jobs::{self, Algo, Inputs};
use crate::spans;
use crate::stats::Summary;
use crate::window::{algo_index, Outcome, Window};

/// Graph served to cc, gc, mis and mst requests.
pub const UNDIRECTED: &str = "internet";
/// Mesh served to scc requests: the one whose `modeled_time` depends
/// least on the pool's schedule (one job differs from the next by 1 %;
/// on the other meshes by 3–20 %).
pub const DIRECTED: &str = "star";
/// Request scales, chosen so that a miss (catalog generate, fingerprint,
/// kernels under the default pool policy, cache put) is served in
/// 5–20 ms on the reference host.
pub const SCALE: f64 = 0.06;
pub const MST_SCALE: f64 = 0.03;
pub const SCC_SCALE: f64 = 0.0003;

/// Seeds 1..=PRIMED are submitted during set-up, for every algorithm:
/// requests on them are result-cache hits. Fixed, so that the hit
/// path's `modeled_time` does not move with `--seed`; odd, and every
/// seed is requested equally often, so that the median of an
/// algorithm's `modeled_time` is the middle seed's.
pub const PRIMED: u64 = 29;

/// Arrival rate of the open loop, requests per second, evenly spaced:
/// a quarter to a third of what the server completes of this mix in a
/// closed loop on the reference host (1030–1360 req/s; the traced run
/// measures it as `serve.mix_capacity_per_s` and prints the share).
/// A constant, not a share of a capacity probed in the run: two probes
/// of the same build differ by 30 %, and the latencies would follow
/// the offered load.
pub const RATE: f64 = 300.0;

/// Requests per schedule block: five per algorithm, four on primed
/// seeds (hits) and one on a never-seen seed (a miss).
pub const BLOCK: usize = 25;

/// An scc request is a miss in one block of this many (the other
/// algorithms: in every block). An scc miss cannot be served in under
/// ~14 ms (its device never has fewer than `SCC_MIN_SMS` SMs and the
/// kernel relaunches ~80 times), twice the others: as 4 % of the
/// requests the scc misses alone decide where the p90 falls; as 1 %
/// they are the tail, and `lat_p90_ms` sits inside the cc/gc/mis/mst
/// misses, which the scales above put at 5.5–9 ms.
const SCC_MISS_EVERY: usize = 4;

/// Catalog byte budget: the 3 × PRIMED primed graphs plus room for a
/// few hundred never-seen ones, so misses insert *and* evict while the
/// hot set stays resident.
const CATALOG_BYTES: usize = 16 << 20;

/// How long a request may wait for its job, server-side.
const WAIT_MS: u64 = 30_000;

pub fn scale_of(algo: Algo) -> f64 {
    match algo {
        Algo::Cc | Algo::Gc | Algo::Mis => SCALE,
        Algo::Mst => MST_SCALE,
        Algo::Scc => SCC_SCALE,
    }
}

pub fn graph_of(algo: Algo) -> &'static str {
    if algo == Algo::Scc {
        DIRECTED
    } else {
        UNDIRECTED
    }
}

/// The job a request asks for, as the library sees it.
pub fn job_spec(algo: Algo, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(algo, graph_of(algo));
    spec.scale = scale_of(algo);
    spec.seed = seed;
    spec
}

pub fn request_body(algo: Algo, seed: u64) -> String {
    format!(
        "{{\"algo\": \"{}\", \"graph\": \"{}\", \"scale\": {}, \"seed\": {seed}, \"wait_ms\": {WAIT_MS}}}",
        algo.name(),
        graph_of(algo),
        scale_of(algo)
    )
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        catalog: CatalogConfig { cache_bytes: CATALOG_BYTES, ..CatalogConfig::default() },
        scheduler: ecl_serve::SchedulerConfig {
            max_concurrency: 2,
            ..ecl_serve::SchedulerConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One planned request.
#[derive(Clone, Copy)]
pub struct Req {
    pub algo: Algo,
    pub seed: u64,
    pub hit: bool,
    /// When the request is due, seconds after the window opens.
    pub due_s: f64,
}

/// The request schedule of one window, evenly spaced at [`RATE`]: blocks
/// of 25, five requests per algorithm, of which four are on primed
/// seeds taken in turn (hits) and one is on a never-seen seed (a miss),
/// shuffled by the run's seed.
pub fn plan(run_seed: u64, requests: usize) -> Vec<Req> {
    let mut rng = Rng(run_seed);
    let mut fresh = 1_000_000 * (run_seed % 1_000_000 + 1);
    let mut next_primed = [0u64; 5];
    let mut out = Vec::with_capacity(requests + BLOCK);
    for block_index in 0.. {
        if out.len() >= requests {
            break;
        }
        let mut block = Vec::with_capacity(BLOCK);
        for algo in Algo::ALL {
            let misses = usize::from(algo != Algo::Scc || block_index % SCC_MISS_EVERY == 0);
            for i in 0..BLOCK / Algo::ALL.len() {
                let hit = i >= misses;
                let seed = if hit {
                    let turn = &mut next_primed[algo_index(algo)];
                    *turn += 1;
                    1 + (*turn + run_seed) % PRIMED
                } else {
                    fresh += 1;
                    fresh
                };
                block.push(Req { algo, seed, hit, due_s: 0.0 });
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(requests);
    for (i, req) in out.iter_mut().enumerate() {
        req.due_s = i as f64 / RATE;
    }
    out
}

/// What one request observed.
pub struct Sample {
    pub req: Req,
    /// Completion minus due time.
    pub latency_ms: f64,
    /// Send minus due time: how late the generator ran.
    pub late_ms: f64,
    /// `Err` for a transport error, else `(status, body)`.
    pub response: Result<(u16, String), String>,
}

/// The fields of a job document the benchmark checks.
pub struct JobDoc {
    pub id: u64,
    pub done: bool,
    pub cached: bool,
    pub units: f64,
    /// Aggregates without the schedule-dependent round count.
    pub aggregates: Vec<(String, u64)>,
}

pub fn parse_job(body: &str) -> Option<JobDoc> {
    let doc = json::parse(body).ok()?;
    let result = doc.get("result")?;
    let aggregates = match result.get("aggregates")? {
        Value::Obj(entries) => entries
            .iter()
            .filter(|(k, _)| k != "rounds")
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
            .collect(),
        _ => return None,
    };
    Some(JobDoc {
        id: doc.get("id")?.as_f64()? as u64,
        done: doc.get("state")?.as_str()? == "done",
        cached: matches!(doc.get("cached")?, Value::Bool(true)),
        units: result.get("modeled_time")?.as_f64()?,
        aggregates,
    })
}

type Key = (usize, u64);

/// A started, primed server and the answers its keys must repeat.
pub struct Served {
    pub server: Server,
    pub addr: String,
    pub expected: HashMap<Key, Vec<(String, u64)>>,
}

/// One complete cold set-up: start the server, then submit every
/// primed (algorithm, seed) once — which generates the hot graphs into
/// the catalog, runs the kernels and fills the result cache.
pub fn set_up() -> Served {
    let server =
        spans::span("serve.start", 0, || Server::start(serve_config()).expect("bind 127.0.0.1:0"));
    let addr = server.addr().to_string();
    let mut client = HttpClient::new(&addr, true);
    let mut expected = HashMap::new();
    spans::span("serve.prime", 0, || {
        for seed in 1..=PRIMED {
            for algo in Algo::ALL {
                let (status, body) = client
                    .call("POST", "/v1/jobs", Some(&request_body(algo, seed)))
                    .expect("priming request");
                let doc = parse_job(&body).filter(|d| status == 200 && d.done);
                let doc = doc.unwrap_or_else(|| {
                    panic!("priming {} seed {seed}: {status} {body}", algo.name())
                });
                expected.insert((algo_index(algo), seed), doc.aggregates);
            }
        }
    });
    Served { server, addr, expected }
}

/// Sends `plan`, each request when it is due, from `clients` threads.
/// Returns the samples in schedule order and the wall time from the
/// first due time to the last completion.
pub fn open_loop(addr: &str, plan: &[Req], clients: usize) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::new(addr, true);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&req) = plan.get(i) else { return mine };
                        let due = start + Duration::from_secs_f64(req.due_s);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let sent = Instant::now();
                        let response = spans::span("serve.request", i as u64 + 1, || {
                            client.call("POST", "/v1/jobs", Some(&request_body(req.algo, req.seed)))
                        });
                        let done = Instant::now();
                        mine.push((
                            i,
                            Sample {
                                req,
                                latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                                late_ms: sent.duration_since(due).as_secs_f64() * 1e3,
                                response,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|(i, _)| *i);
    (samples.into_iter().map(|(_, s)| s).collect(), wall_s)
}

/// Checks every response (status 200, `state=done`, hit or miss as
/// planned, aggregates equal to the first answer for that key) and
/// files the verified ones. Runs after the window, off its clock.
pub fn to_window(
    samples: &[Sample],
    expected: &mut HashMap<Key, Vec<(String, u64)>>,
    wall_s: f64,
) -> Window {
    let mut w = Window { wall_s, ..Window::default() };
    for s in samples {
        w.attempted += 1;
        let doc = match &s.response {
            Ok((200, body)) => parse_job(body).filter(|d| d.done && d.cached == s.req.hit),
            _ => None,
        };
        let key = (algo_index(s.req.algo), s.req.seed);
        match doc {
            Some(d)
                if *expected.entry(key).or_insert_with(|| d.aggregates.clone()) == d.aggregates =>
            {
                w.record(s.req.algo, s.latency_ms, d.units);
            }
            _ => w.failed += 1,
        }
    }
    w
}

fn headline_name(algo: Algo) -> &'static str {
    match algo {
        Algo::Cc => "num_components",
        Algo::Gc => "num_colors",
        Algo::Mis => "set_size",
        Algo::Mst => "total_weight",
        Algo::Scc => "num_sccs",
    }
}

/// Ties the served answers to `ecl-ref`: for every primed seed, runs
/// the five algorithms directly on the same generated graphs, checks
/// each solution in full against the reference, and requires the
/// server's headline aggregate to equal the checked solution's.
pub fn verify_primed(expected: &HashMap<Key, Vec<(String, u64)>>) -> bool {
    let mut ok = true;
    for seed in 1..=PRIMED {
        let inputs =
            Inputs::build(UNDIRECTED, DIRECTED, [SCALE, MST_SCALE, SCC_SCALE], seed, seed, false);
        for algo in Algo::ALL {
            let done = jobs::run_single(&inputs, algo, 0);
            let served = expected
                .get(&(algo_index(algo), seed))
                .and_then(|aggs| aggs.iter().find(|(k, _)| k == headline_name(algo)))
                .map(|&(_, v)| v);
            if !done.verify(&inputs) || served != Some(done.headline()) {
                eprintln!(
                    "serve-mix: {} seed {seed}: served {served:?}, reference-checked run {}",
                    algo.name(),
                    done.headline()
                );
                ok = false;
            }
        }
    }
    ok
}

/// Prints what the per-algorithm table folds together: the hit path,
/// the miss path, and how late the generator ran.
pub fn print_open_loop(samples: &[Sample], clients: usize) {
    let of = |pick: &dyn Fn(&Sample) -> Option<f64>| {
        Summary::of(&samples.iter().filter_map(pick).collect::<Vec<_>>())
    };
    let hits = of(&|s| s.req.hit.then_some(s.latency_ms));
    let misses = of(&|s| (!s.req.hit).then_some(s.latency_ms));
    let late = of(&|s| Some(s.late_ms));
    println!("open loop: {RATE} req/s from {clients} connections");
    let mut rows = vec![("hits".to_string(), hits), ("misses".to_string(), misses)];
    for algo in Algo::ALL {
        let of_algo = of(&|s| (!s.req.hit && s.req.algo == algo).then_some(s.latency_ms));
        rows.push((format!("  {} misses", algo.name()), of_algo));
    }
    rows.push(("generator lateness".to_string(), late));
    for (name, s) in rows {
        println!(
            "  {name:<20} n {:>5}  q1 {:.3}  median {:.3}  q3 {:.3}  p90 {:.3}  p99 {:.3} ms",
            s.n, s.q1, s.median, s.q3, s.p90, s.p99
        );
    }
}

/// Value of an unlabelled sample line in a Prometheus exposition.
pub fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Prints how full the graph catalog is and how often it has evicted.
fn print_catalog(addr: &str, when: &str) {
    let mut client = HttpClient::new(addr, true);
    if let Ok((200, exposition)) = client.call("GET", "/metrics", None) {
        let value = |name: &str| prometheus_value(&exposition, name).unwrap_or(f64::NAN);
        println!(
            "catalog {when}: {:.1} MiB resident of {} MiB, {} evictions",
            value("ecl_serve_graph_cache_resident_bytes") / (1 << 20) as f64,
            CATALOG_BYTES >> 20,
            value("ecl_serve_graph_cache_evictions_total")
        );
    }
}

/// Client threads: one connection each, at most the host's CPUs.
pub fn clients(host_cpus: usize) -> usize {
    host_cpus.clamp(1, 4)
}

/// The mix sent as fast as `clients` connections take it (every request
/// already due): the closed loop the capacity figures come from.
/// Returns requests answered per second.
pub fn closed_loop_per_s(addr: &str, mut plan: Vec<Req>, clients: usize) -> f64 {
    for req in &mut plan {
        req.due_s = 0.0;
    }
    let (samples, wall_s) = open_loop(addr, &plan, clients);
    samples.iter().filter(|s| matches!(s.response, Ok((200, _)))).count() as f64 / wall_s
}

/// Cold set-ups per run (each is about a second of work).
const SETUP_REPS: usize = 3;

/// An untraced run: repeated cold set-up, warm-up block, one open-loop
/// window, then verification.
pub fn timed_run(seed: u64, seconds: f64, host_cpus: usize) -> Outcome {
    // A replaced `Served` drains its server on drop, off the clock.
    let (setup_s, mut served) = repeated_setup(SETUP_REPS, set_up);
    let references_ok = verify_primed(&served.expected);
    print_catalog(&served.addr, "after priming");
    // Warm-up: one untimed block through the same generator.
    open_loop(&served.addr, &plan(seed ^ 0x5EED, BLOCK), clients(host_cpus));
    let requests = (RATE * seconds).ceil() as usize;
    let (samples, wall_s) = open_loop(&served.addr, &plan(seed, requests), clients(host_cpus));
    let w = to_window(&samples, &mut served.expected, wall_s);
    print_open_loop(&samples, clients(host_cpus));
    print_catalog(&served.addr, "after the window");
    served.server.shutdown();
    Outcome::end_to_end(references_ok, setup_s, &w)
}
