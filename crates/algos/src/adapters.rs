//! The five adapters: each is the algorithm's default configuration,
//! its `apply_schedule`, its `run`, and the aggregates it reports. The
//! counters are the kernel crate's own (`<Result>::counters`), so no
//! counter is named here.
//! Per-request overrides (serve's `block_size`, the seed-derived MIS
//! `tie_salt`) arrive as schedule entries set by the caller, so no
//! adapter knows its callers.

use ecl_gpusim::schedule::KnobSpec;
use ecl_gpusim::{Device, KnobValue, Schedule};
use ecl_shard::ShardStats;

use crate::{checksum_u32, Algorithm, Outcome, ShardedRun, Views};

/// SM floor for SCC runs: the forward/backward sweeps (and the
/// block-size trade-off of Table 6) need a multi-block grid even at
/// tiny scales — 8 SMs = 24 blocks of 512.
pub const SCC_MIN_SMS: usize = 8;

/// ECL-CC connected components.
pub struct Cc;
/// ECL-GC graph coloring.
pub struct Gc;
/// ECL-MIS maximal independent set.
pub struct Mis;
/// ECL-MST minimum spanning tree.
pub struct Mst;
/// ECL-SCC strongly connected components.
pub struct Scc;

type Aggregates = Vec<(&'static str, u64)>;

fn sharded(aggregates: Aggregates, stats: ShardStats) -> (Outcome, ShardStats) {
    (Outcome { aggregates, counters: Vec::new() }, stats)
}

fn cc_aggregates(components: usize, labels: &[u32]) -> Aggregates {
    let checksum = checksum_u32(labels.iter().copied());
    vec![("num_components", components as u64), ("labels_checksum", checksum)]
}

fn scc_aggregates(sccs: usize, outer_iterations: u32, labels: &[u32]) -> Aggregates {
    vec![
        ("num_sccs", sccs as u64),
        ("outer_iterations", u64::from(outer_iterations)),
        ("labels_checksum", checksum_u32(labels.iter().copied())),
    ]
}

impl Algorithm for Cc {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn knobs(&self) -> &'static [KnobSpec] {
        &ecl_cc::KNOBS
    }

    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome {
        let mut cfg = ecl_cc::CcConfig::default();
        cfg.apply_schedule(schedule);
        let r = ecl_cc::run(device, views.csr, &cfg);
        Outcome { aggregates: cc_aggregates(r.num_components(), &r.labels), counters: r.counters() }
    }

    fn run_sharded(&self) -> Option<ShardedRun> {
        Some(|devices, g, part, _| {
            let r = ecl_shard::run_cc(devices, g, part);
            sharded(cc_aggregates(r.num_components(), &r.labels), r.stats)
        })
    }
}

impl Algorithm for Gc {
    fn name(&self) -> &'static str {
        "gc"
    }

    fn knobs(&self) -> &'static [KnobSpec] {
        &ecl_gc::KNOBS
    }

    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome {
        let mut cfg = ecl_gc::GcConfig::default();
        cfg.apply_schedule(schedule);
        let g = views.csr;
        let r = ecl_gc::run(device, g, &cfg);
        Outcome {
            aggregates: vec![
                ("num_colors", r.num_colors() as u64),
                ("rounds", u64::from(r.rounds)),
                ("colors_checksum", checksum_u32(r.colors.iter().copied())),
            ],
            counters: r.counters(g),
        }
    }
}

/// The `tie_salt` schedule entry a 64-bit job seed maps to
/// ([`ecl_mis::MisConfig::seeded`]): callers whose jobs carry a seed
/// set it after any manifest schedule, so the seed keeps result-cache
/// authority over the tie-break permutation.
pub fn mis_tie_salt(seed: u64) -> KnobValue {
    KnobValue::Int(i64::from(ecl_mis::MisConfig::seeded(seed).tie_salt))
}

fn mis_config(schedule: &Schedule) -> ecl_mis::MisConfig {
    let mut cfg = ecl_mis::MisConfig::default();
    cfg.apply_schedule(schedule);
    cfg
}

fn set_checksum(in_set: &[bool]) -> u64 {
    checksum_u32(in_set.iter().map(|&b| u32::from(b)))
}

impl Algorithm for Mis {
    fn name(&self) -> &'static str {
        "mis"
    }

    fn knobs(&self) -> &'static [KnobSpec] {
        &ecl_mis::KNOBS
    }

    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome {
        let r = ecl_mis::run(device, views.csr, &mis_config(schedule));
        Outcome {
            aggregates: vec![
                ("set_size", r.set_size() as u64),
                ("rounds", u64::from(r.rounds)),
                ("set_checksum", set_checksum(&r.in_set)),
            ],
            counters: r.counters(),
        }
    }

    fn run_sharded(&self) -> Option<ShardedRun> {
        Some(|devices, g, part, schedule| {
            let r = ecl_shard::run_mis(devices, g, part, mis_config(schedule).tie_salt);
            let set = ("set_checksum", set_checksum(&r.in_set));
            sharded(vec![("set_size", r.set_size() as u64), set], r.stats)
        })
    }
}

impl Algorithm for Mst {
    fn name(&self) -> &'static str {
        "mst"
    }

    fn weighted(&self) -> bool {
        true
    }

    fn knobs(&self) -> &'static [KnobSpec] {
        &ecl_mst::KNOBS
    }

    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome {
        let mut cfg = ecl_mst::MstConfig::default();
        cfg.apply_schedule(schedule);
        let r = ecl_mst::run(device, views.expect_weighted(), &cfg);
        let mut edges: Vec<u32> = r.edges.iter().map(|&e| e as u32).collect();
        edges.sort_unstable();
        Outcome {
            aggregates: vec![
                ("total_weight", r.total_weight),
                ("num_trees", r.num_trees as u64),
                ("num_mst_edges", r.edges.len() as u64),
                ("edges_checksum", checksum_u32(edges)),
            ],
            counters: r.counters(),
        }
    }
}

impl Algorithm for Scc {
    fn name(&self) -> &'static str {
        "scc"
    }

    fn directed(&self) -> bool {
        true
    }

    fn min_sms(&self) -> usize {
        SCC_MIN_SMS
    }

    fn knobs(&self) -> &'static [KnobSpec] {
        &ecl_scc::KNOBS
    }

    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome {
        let mut cfg = ecl_scc::SccConfig::default();
        cfg.apply_schedule(schedule);
        let r = ecl_scc::run(device, views.csr, &cfg);
        Outcome {
            aggregates: scc_aggregates(r.num_sccs(), r.outer_iterations, &r.labels),
            counters: r.counters(),
        }
    }

    fn run_sharded(&self) -> Option<ShardedRun> {
        Some(|devices, g, part, _| {
            let r = ecl_shard::run_scc(devices, g, part);
            sharded(scc_aggregates(r.num_sccs(), r.outer_iterations, &r.labels), r.stats)
        })
    }
}
