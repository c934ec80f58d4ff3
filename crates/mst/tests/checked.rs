//! ECL-MST under the checker — the linter's flagship reproduction.
//!
//! The paper's §6.2.3 finding: the published ECL-MST sizes its grids
//! by the *initial* worklist capacity and never updates them, so late
//! Borůvka iterations launch mostly-idle blocks. The `over-launch`
//! rule must rediscover that defect on the baseline configuration and
//! fall silent on the corrected `MstConfig::fixed()` launches — while
//! both variants stay race-clean modulo the declared benign regions
//! (union-find pointer jumping, idempotent best-key resets).

#![allow(clippy::unwrap_used)]

use ecl_check::{run_checked, Rule};
use ecl_gpusim::Device;
use ecl_mst::{run, MstConfig};

fn input() -> ecl_graph::WeightedCsr {
    let base = ecl_graphgen::random::erdos_renyi(2500, 5.0, 21);
    ecl_graphgen::with_hashed_weights(base, 1 << 16, 21)
}

#[test]
fn linter_rediscovers_the_stale_launch_finding() {
    let device = Device::test_small();
    let g = input();
    let config = MstConfig { block_size: 64, ..MstConfig::baseline() };
    let (result, report) = run_checked(&device, || run(&device, &g, &config));
    let expect = ecl_ref::kruskal(&g);
    assert_eq!(result.total_weight, expect.total_weight);

    // The defect: late iterations launch grids covering the stale
    // initial worklist while only a shrinking prefix has work.
    let over = report.of_rule(Rule::OverLaunch);
    assert!(
        !over.is_empty(),
        "baseline stale launches must trip over-launch:\n{}",
        report.render("mst baseline")
    );
    assert!(
        over.iter().all(|f| f.kernel.starts_with("mst.")),
        "findings must attribute to the MST kernels: {over:?}"
    );

    // Race-clean regardless: all conflicts live on declared regions.
    assert!(report.races_clean(), "{}", report.render("mst baseline"));
    for f in &report.suppressed {
        let r = f.region.as_deref();
        assert!(
            r == Some("mst.uf-parent") || r == Some("mst.best"),
            "unexpected suppressed region: {f:?}"
        );
    }
}

#[test]
fn fixed_launch_config_passes_the_linter() {
    let device = Device::test_small();
    let g = input();
    let config = MstConfig { block_size: 64, ..MstConfig::fixed() };
    let (result, report) = run_checked(&device, || run(&device, &g, &config));
    let expect = ecl_ref::kruskal(&g);
    assert_eq!(result.total_weight, expect.total_weight);
    assert!(
        !report.has(Rule::OverLaunch),
        "recomputed grids must not over-launch:\n{}",
        report.render("mst fixed")
    );
    assert!(report.races_clean(), "{}", report.render("mst fixed"));
}
