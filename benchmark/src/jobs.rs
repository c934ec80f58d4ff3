//! One "job": one algorithm run through the crates' public `run`
//! functions on a fresh scaled [`Device`], the way `ecl-run` and
//! `ecl_serve::exec::execute` call them — plus the reference checks.

use std::time::Instant;

use ecl_gpusim::{CostKind, Device};
use ecl_graph::{Csr, WeightedCsr};
use ecl_serve::exec::{scaled_config, SCC_MIN_SMS};
pub use ecl_serve::Algo;
use ecl_shard::Partition;

use crate::spans;

/// Shards of the `batch-shard4` workload.
pub const SHARDS: u32 = 4;

/// Weight range of generated MST inputs (the catalog's default).
const MAX_WEIGHT: u32 = ecl_serve::catalog::DEFAULT_MAX_WEIGHT;

/// The graphs one workload runs on, with the reference answers the
/// first completion of each algorithm is checked against.
pub struct Inputs {
    /// Registry name of the undirected input (cc, gc, mis, mst).
    pub undirected_name: &'static str,
    /// Registry name of the directed mesh (scc).
    pub directed_name: &'static str,
    /// Generation scale of the undirected input (cc, gc, mis).
    pub scale: f64,
    /// Generation scale of the weighted input (mst).
    pub mst_scale: f64,
    /// Generation scale of the directed mesh.
    pub scc_scale: f64,
    pub undirected: Csr,
    pub weighted: WeightedCsr,
    pub directed: Csr,
    /// `ecl_ref::connected_components` labels of `undirected`.
    pub ref_cc: Vec<u32>,
    /// `ecl_ref::strongly_connected_components` labels of `directed`.
    pub ref_scc: Vec<u32>,
    /// `ecl_ref::kruskal` weight of `weighted`.
    pub ref_mst_weight: u64,
    /// Seed of the MIS tie-break permutation (`MisConfig::seeded`):
    /// 0 in the batch workloads, the job seed when mirroring a served
    /// request.
    pub mis_seed: u64,
    /// Present when cc/mis/scc run through `ecl_shard`.
    pub sharding: Option<Sharding>,
}

/// Partitions of the two graphs for the sharded workload.
pub struct Sharding {
    pub undirected: Partition,
    pub directed: Partition,
}

impl Inputs {
    /// Generates both graphs from `seed` and computes the reference
    /// answers: the whole cold set-up of a batch workload.
    pub fn build(
        undirected_name: &'static str,
        directed_name: &'static str,
        [scale, mst_scale, scc_scale]: [f64; 3],
        seed: u64,
        mis_seed: u64,
        sharded: bool,
    ) -> Inputs {
        let uspec = ecl_graphgen::registry::find(undirected_name).expect("registry input");
        let dspec = ecl_graphgen::registry::find(directed_name).expect("registry input");
        let weighted = spans::span("gen.generate_weighted", 0, || {
            uspec.generate_weighted(mst_scale, seed, MAX_WEIGHT)
        });
        // At equal scales the weighted input's structure is the
        // unweighted input.
        let undirected = if mst_scale == scale {
            weighted.csr().clone()
        } else {
            spans::span("gen.generate", 0, || uspec.generate(scale, seed))
        };
        let directed = spans::span("gen.generate", 0, || dspec.generate(scc_scale, seed));
        let ref_cc = spans::span("ref.connected_components", 0, || {
            ecl_ref::connected_components(&undirected)
        });
        let ref_scc = spans::span("ref.strongly_connected_components", 0, || {
            ecl_ref::strongly_connected_components(&directed)
        });
        let ref_mst_weight =
            spans::span("ref.kruskal", 0, || ecl_ref::kruskal(&weighted).total_weight);
        let sharding = sharded.then(|| {
            spans::span("shard.partition", 0, || Sharding {
                undirected: Partition::auto(&undirected, SHARDS),
                directed: Partition::auto(&directed, SHARDS),
            })
        });
        Inputs {
            undirected_name,
            directed_name,
            scale,
            mst_scale,
            scc_scale,
            undirected,
            weighted,
            directed,
            ref_cc,
            ref_scc,
            ref_mst_weight,
            mis_seed,
            sharding,
        }
    }

    /// The scale `algo`'s input was generated at, which also sizes its
    /// device.
    pub fn scale_of(&self, algo: Algo) -> f64 {
        match algo {
            Algo::Cc | Algo::Gc | Algo::Mis => self.scale,
            Algo::Mst => self.mst_scale,
            Algo::Scc => self.scc_scale,
        }
    }

    /// CSR bytes of all three graphs (offsets + neighbours + weights).
    pub fn csr_bytes(&self) -> usize {
        let csr = |g: &Csr| {
            std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.neighbor_array())
        };
        csr(&self.undirected)
            + csr(self.weighted.csr())
            + self.weighted.weights().len() * 4
            + csr(&self.directed)
    }
}

/// The solution a job produced, kept until it has been verified.
pub enum Solution {
    Cc(Vec<u32>),
    Gc(Vec<u32>),
    Mis(Vec<bool>),
    Mst {
        total_weight: u64,
        edges: usize,
        trees: usize,
    },
    /// Max-id labels as the kernels produce them.
    Scc(Vec<u32>),
}

/// One finished job: what the caller saw.
pub struct Done {
    /// Caller-observed latency: device construction + `run`.
    pub latency_ns: u64,
    /// `Device::modeled_time()` (sharded: `ShardStats::modeled_time`).
    pub units: f64,
    /// Raw cost tally by kind (single-pool jobs only).
    pub cost: Option<[u64; 5]>,
    /// The algorithm's own counters (the paper's application-specific
    /// ones; for sharded jobs the exchange statistics), by name.
    pub counters: Vec<(&'static str, f64)>,
    pub solution: Solution,
}

/// Cost kinds reported per layer, in `*.units.*` metric order.
pub const COST_KINDS: [(CostKind, &str); 5] = [
    (CostKind::ThreadWork, "thread_work"),
    (CostKind::Atomic, "atomic"),
    (CostKind::IdleCheck, "idle_check"),
    (CostKind::BlockSync, "block_sync"),
    (CostKind::KernelLaunch, "kernel_launch"),
];

fn min_sms(algo: Algo) -> usize {
    if algo == Algo::Scc {
        SCC_MIN_SMS
    } else {
        1
    }
}

fn tally(device: &Device) -> [u64; 5] {
    COST_KINDS.map(|(kind, _)| device.cost().units(kind))
}

/// Runs `algo` once on `inputs`, through `ecl_shard` when the workload
/// is sharded and the algorithm has a sharded runner.
pub fn run_job(inputs: &Inputs, algo: Algo, job: u64) -> Done {
    match (&inputs.sharding, algo) {
        (Some(s), Algo::Cc | Algo::Mis | Algo::Scc) => run_sharded(inputs, s, algo, job),
        _ => run_single(inputs, algo, job),
    }
}

/// Single-pool job: fresh scaled device, default configuration.
pub fn run_single(inputs: &Inputs, algo: Algo, job: u64) -> Done {
    let scale = inputs.scale_of(algo);
    let start = Instant::now();
    let device =
        spans::span("sim.device_new", job, || Device::new(scaled_config(scale, min_sms(algo))));
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let (solution, counters) = match algo {
        Algo::Cc => spans::span("cc.run", job, || {
            let r = ecl_cc::run(&device, &inputs.undirected, &ecl_cc::CcConfig::baseline());
            let c = &r.counters;
            let counters = vec![
                ("cas_fail_share", share(c.hook_cas.cas_failed(), c.hook_cas.attempted())),
                ("find_progress_share", share(c.find_smaller.get(), c.find_calls.get())),
            ];
            (Solution::Cc(r.labels), counters)
        }),
        Algo::Gc => spans::span("gc.run", job, || {
            let r = ecl_gc::run(&device, &inputs.undirected, &ecl_gc::GcConfig::default());
            (Solution::Gc(r.colors), vec![("rounds", r.rounds as f64)])
        }),
        Algo::Mis => spans::span("mis.run", job, || {
            let config = ecl_mis::MisConfig::seeded(inputs.mis_seed);
            let r = ecl_mis::run(&device, &inputs.undirected, &config);
            (Solution::Mis(r.in_set), vec![("rounds", r.rounds as f64)])
        }),
        Algo::Mst => spans::span("mst.run", job, || {
            let r = ecl_mst::run(&device, &inputs.weighted, &ecl_mst::MstConfig::baseline());
            let counters = vec![
                ("rounds", r.counters.worklist_per_iteration.len() as f64),
                ("atomic_useless_share", r.counters.atomics.useless_fraction()),
            ];
            let solution = Solution::Mst {
                total_weight: r.total_weight,
                edges: r.edges.len(),
                trees: r.num_trees,
            };
            (solution, counters)
        }),
        Algo::Scc => spans::span("scc.run", job, || {
            let r = ecl_scc::run(&device, &inputs.directed, &ecl_scc::SccConfig::default());
            let counters = vec![
                ("outer_iterations", r.outer_iterations as f64),
                ("propagate_launches", r.counters.grid_relaunches.get() as f64),
            ];
            (Solution::Scc(r.labels), counters)
        }),
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    Done {
        latency_ns,
        units: device.modeled_time(),
        cost: Some(tally(&device)),
        counters,
        solution,
    }
}

fn run_sharded(inputs: &Inputs, sharding: &Sharding, algo: Algo, job: u64) -> Done {
    let scale = inputs.scale_of(algo);
    let start = Instant::now();
    let devices = spans::span("shard.devices_for", job, || {
        ecl_shard::devices_for(scaled_config(scale, min_sms(algo)), SHARDS)
    });
    let (solution, stats) = match algo {
        Algo::Cc => spans::span("shard.run_cc", job, || {
            let r = ecl_shard::run_cc(&devices, &inputs.undirected, &sharding.undirected);
            (Solution::Cc(r.labels), r.stats)
        }),
        Algo::Mis => spans::span("shard.run_mis", job, || {
            let salt = ecl_mis::MisConfig::seeded(inputs.mis_seed).tie_salt;
            let r = ecl_shard::run_mis(&devices, &inputs.undirected, &sharding.undirected, salt);
            (Solution::Mis(r.in_set), r.stats)
        }),
        Algo::Scc => spans::span("shard.run_scc", job, || {
            let r = ecl_shard::run_scc(&devices, &inputs.directed, &sharding.directed);
            (Solution::Scc(r.labels), r.stats)
        }),
        Algo::Gc | Algo::Mst => unreachable!("gc and mst have no sharded runner"),
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    let counters = vec![
        ("supersteps", stats.supersteps as f64),
        ("messages", stats.exchange_messages as f64),
        ("cut_ratio", stats.cut_ratio()),
    ];
    Done { latency_ns, units: stats.modeled_time, cost: None, counters, solution }
}

/// Word-wise FNV-1a: the per-job fingerprint later jobs are compared by.
fn checksum(values: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h = (h ^ v as u64).wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// True when `a` and `b` induce the same partition of the vertices.
fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a_to_b = std::collections::HashMap::new();
    let mut b_to_a = std::collections::HashMap::new();
    a.iter()
        .zip(b)
        .all(|(&x, &y)| *a_to_b.entry(x).or_insert(y) == y && *b_to_a.entry(y).or_insert(x) == x)
}

impl Done {
    /// Fingerprint of the solution (not of timing-dependent counters).
    pub fn checksum(&self) -> u64 {
        match &self.solution {
            Solution::Cc(l) | Solution::Gc(l) | Solution::Scc(l) => checksum(l.iter().copied()),
            Solution::Mis(s) => checksum(s.iter().map(|&b| b as u32)),
            Solution::Mst { total_weight, edges, trees } => checksum(
                [*total_weight as u32, (*total_weight >> 32) as u32, *edges as u32, *trees as u32]
                    .into_iter(),
            ),
        }
    }

    /// The solution's headline count, as `ecl_serve::exec` reports it
    /// (`num_components`, `num_colors`, `set_size`, `total_weight`,
    /// `num_sccs`).
    pub fn headline(&self) -> u64 {
        let roots =
            |labels: &[u32]| labels.iter().enumerate().filter(|&(v, &l)| v as u32 == l).count();
        match &self.solution {
            Solution::Cc(labels) | Solution::Scc(labels) => roots(labels) as u64,
            Solution::Gc(colors) => ecl_ref::num_colors(colors) as u64,
            Solution::Mis(in_set) => in_set.iter().filter(|&&b| b).count() as u64,
            Solution::Mst { total_weight, .. } => *total_weight,
        }
    }

    /// Full check against `ecl-ref`: partition equality for cc/scc,
    /// validity for gc/mis, Kruskal weight for mst.
    pub fn verify(&self, inputs: &Inputs) -> bool {
        match &self.solution {
            Solution::Cc(labels) => same_partition(labels, &inputs.ref_cc),
            Solution::Gc(colors) => ecl_ref::is_proper_coloring(&inputs.undirected, colors),
            Solution::Mis(in_set) => {
                ecl_ref::is_maximal_independent_set(&inputs.undirected, in_set)
            }
            Solution::Mst { total_weight, edges, trees } => {
                *total_weight == inputs.ref_mst_weight
                    && edges + trees == inputs.weighted.num_vertices()
            }
            // The kernels label an SCC by its largest id, the reference
            // by its smallest: the partitions are what must agree.
            Solution::Scc(labels) => same_partition(labels, &inputs.ref_scc),
        }
    }
}
