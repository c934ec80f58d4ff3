//! The paper's headline findings as executable assertions.
//!
//! Each test encodes one "shape" claim from §6 — who wins, in which
//! direction a metric moves — rather than absolute numbers, which
//! belong to the authors' RTX 4090 and full-size inputs (see
//! EXPERIMENTS.md for the full paper-vs-measured record).

#![allow(clippy::unwrap_used)]

use ecl_suite::{cc, gc, gen, mis, mst, scc, sim};

const SEED: u64 = 99;

fn device() -> sim::Device {
    sim::Device::new(sim::DeviceConfig { num_sms: 2, ..sim::DeviceConfig::rtx4090() })
}

/// §6.1.3 / Table 4: the init traversal count is bounded by the arc
/// count and at least the vertex count (each vertex touches >= 1
/// neighbor unless isolated); inputs whose ids are uncorrelated with
/// topology show a real gap.
#[test]
fn cc_init_gap_exists_on_id_shuffled_inputs() {
    let spec = gen::registry::find("2d-2e20.sym").unwrap();
    let g = spec.generate(0.002, SEED);
    let r = cc::run(&device(), &g, &cc::CcConfig::baseline());
    let gap =
        r.counters.vertices_traversed.get() as f64 / r.counters.vertices_initialized.get() as f64;
    // A 4-regular graph with random ids: ~1/5 of vertices are local
    // minima and scan all 4 neighbors -> gap ~1.6 (the paper's
    // 1.68e6 / 1.05e6).
    assert!((1.3..2.0).contains(&gap), "grid init gap {gap} outside the expected band");
}

/// §6.2.2 / Table 7: the optimized init never loses and wins on
/// gap-heavy inputs (modeled cost).
#[test]
fn cc_optimization_helps_where_table4_predicts() {
    let spec = gen::registry::find("cit-Patents").unwrap();
    let g = spec.generate(0.002, SEED);
    let d_base = device();
    let d_opt = device();
    cc::run(&d_base, &g, &cc::CcConfig::baseline());
    cc::run(&d_opt, &g, &cc::CcConfig::optimized());
    let speedup = d_base.modeled_time() / d_opt.modeled_time();
    assert!(speedup >= 1.0, "optimized init should not lose: {speedup}");
}

/// §6.1.1 / Table 2: MIS finalized counts track |V| (load balance),
/// and power-law inputs iterate more on average than roadmaps.
#[test]
fn mis_iteration_contrast_between_families() {
    let skitter = gen::registry::find("as-skitter").unwrap().generate(0.002, SEED);
    let europe = gen::registry::find("europe_osm").unwrap().generate(0.002, SEED);
    let r_skitter = mis::run(&device(), &skitter, &mis::MisConfig::default());
    let r_europe = mis::run(&device(), &europe, &mis::MisConfig::default());
    let a = r_skitter.counters.iterations.summary().avg;
    let b = r_europe.counters.iterations.summary().avg;
    assert!(
        a > b,
        "power-law input should average more iterations: as-skitter {a:.2} vs europe {b:.2}"
    );
}

/// §3 / Table 3: the MIS result is deterministic even though the code
/// races internally.
#[test]
fn mis_result_deterministic_across_many_runs() {
    let g = gen::registry::find("amazon0601").unwrap().generate(0.002, SEED);
    let first = mis::run(&device(), &g, &mis::MisConfig::default()).in_set;
    for _ in 0..5 {
        assert_eq!(first, mis::run(&device(), &g, &mis::MisConfig::default()).in_set);
    }
}

/// §6.1.5 / Table 5: denser inputs suffer more color invalidations.
#[test]
fn gc_density_drives_invalidation_counts() {
    let dense = gen::registry::find("coPapersDBLP").unwrap().generate(0.004, SEED);
    let sparse = gen::registry::find("internet").unwrap().generate(0.004, SEED);
    let r_dense = gc::run(&device(), &dense, &gc::GcConfig::default());
    let r_sparse = gc::run(&device(), &sparse, &gc::GcConfig::default());
    let (bc_dense, nyp_dense) = r_dense.counters.large_vertex_summaries(&dense, gc::LARGE_DEGREE);
    let (bc_sparse, nyp_sparse) =
        r_sparse.counters.large_vertex_summaries(&sparse, gc::LARGE_DEGREE);
    assert!(
        bc_dense.avg + nyp_dense.avg > bc_sparse.avg + nyp_sparse.avg,
        "dense {:.2}+{:.2} should exceed sparse {:.2}+{:.2}",
        bc_dense.avg,
        nyp_dense.avg,
        bc_sparse.avg,
        nyp_sparse.avg
    );
}

/// §6.1.4 / Figure 2: MST useful-work fraction collapses after the
/// first Regular iteration.
#[test]
fn mst_useful_work_collapses() {
    let g = gen::registry::find("amazon0601").unwrap().generate_weighted(0.004, SEED, 1 << 20);
    let r = mst::run(&device(), &g, &mst::MstConfig::baseline());
    let regs: Vec<_> = r
        .counters
        .bars
        .bars()
        .into_iter()
        .filter(|b| b.kind == ecl_suite::profiling::series::IterationKind::Regular)
        .collect();
    assert!(regs.len() >= 2, "need multiple Regular iterations");
    assert!(
        regs.last().unwrap().threads_with_work_pct < regs[0].threads_with_work_pct / 2.0,
        "work fraction should collapse: first {:.1}%, last {:.1}%",
        regs[0].threads_with_work_pct,
        regs.last().unwrap().threads_with_work_pct
    );
}

/// §6.2.3 / Table 8: the launch-config fix changes the result never
/// and the modeled runtime only modestly.
#[test]
fn mst_launch_fix_near_neutral() {
    let g = gen::registry::find("rmat16.sym").unwrap().generate_weighted(0.01, SEED, 1 << 20);
    let d_base = device();
    let d_fix = device();
    let a = mst::run(&d_base, &g, &mst::MstConfig::baseline());
    let b = mst::run(&d_fix, &g, &mst::MstConfig::fixed());
    assert_eq!(a.total_weight, b.total_weight);
    let change = (d_base.modeled_time() - d_fix.modeled_time()).abs() / d_base.modeled_time();
    assert!(change < 0.6, "launch fix should be modest, changed {:.0}%", 100.0 * change);
}

/// §6.1.2 / Figure 1: SCC propagation updates localize — late
/// iterations have no more active blocks than early ones — and the
/// star mesh peels ~one layer per outer iteration.
#[test]
fn scc_updates_localize_and_star_peels() {
    let spec = gen::registry::find("star").unwrap();
    let g = spec.generate(0.002, SEED);
    let d = sim::Device::new(sim::DeviceConfig { num_sms: 8, ..sim::DeviceConfig::rtx4090() });
    let r = scc::run(&d, &g, &scc::SccConfig::original());
    assert!(r.outer_iterations >= 8, "star should need many rounds, got {}", r.outer_iterations);
    assert_eq!(r.num_sccs(), 10);
    let s = &r.counters.series;
    let last = s.inner_iterations(1);
    assert!(s.active_blocks(1, last) <= s.active_blocks(1, 1));
    assert!(s.total_updates(1, last) <= s.total_updates(1, 1));
}

/// Cross-device prediction: the 4090's 1024-thread occupancy cliff is
/// an SM-shape artifact. On an A100-shaped device (2048-thread SMs)
/// the same sweep keeps 1024-thread blocks at full occupancy, so the
/// occupancy-corrected penalty shrinks — the kind of what-if a
/// simulator answers that a hardware study cannot. Like the Table 6
/// claim below, it is about the in-order modeled time: under a
/// multi-worker pool the two penalties' spread overlaps.
#[test]
fn scc_1024_penalty_is_device_shape_dependent() {
    let spec = gen::registry::find("toroid-wedge").unwrap();
    let g = spec.generate(0.002, SEED);
    let ratio = |config: sim::DeviceConfig| {
        let cost = |bs: usize| {
            sim::pool::with_policy(sim::DispatchPolicy::sequential(), || {
                let d = sim::Device::new(sim::DeviceConfig { num_sms: 8, ..config });
                let r = scc::run(&d, &g, &scc::SccConfig::with_block_size(bs));
                r.modeled_parallel_time / d.config().occupancy(bs)
            })
        };
        cost(1024) / cost(512)
    };
    let penalty_4090 = ratio(sim::DeviceConfig::rtx4090());
    let penalty_a100 = ratio(sim::DeviceConfig::a100());
    assert!(
        penalty_a100 < penalty_4090,
        "A100-shaped SMs should shrink the 1024-block penalty: \
         a100 {penalty_a100:.2} vs 4090 {penalty_4090:.2}"
    );
}

/// §6.2.1 / Table 6: oversized blocks lose; the occupancy model gives
/// 1024-thread blocks a hard 2/3 ceiling on the 1536-thread SM. The
/// claim is about the canonical (in-order) modeled time: the 512-vs-1024
/// margin is inside a multi-worker pool's interleaving spread.
#[test]
fn scc_block_size_extremes_lose() {
    let spec = gen::registry::find("toroid-hex").unwrap();
    let g = spec.generate(0.002, SEED);
    let cost = |bs: usize| {
        sim::pool::with_policy(sim::DispatchPolicy::sequential(), || {
            let d =
                sim::Device::new(sim::DeviceConfig { num_sms: 8, ..sim::DeviceConfig::rtx4090() });
            let r = scc::run(&d, &g, &scc::SccConfig::with_block_size(bs));
            r.modeled_parallel_time / d.config().occupancy(bs)
        })
    };
    let interior = cost(256).min(cost(512));
    assert!(interior < cost(1024), "interior block sizes should beat 1024");
    assert!(interior < cost(32), "interior block sizes should beat tiny blocks");
}
