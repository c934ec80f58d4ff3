//! The `ecl-check` suite: every algorithm run under the sanitizer and
//! launch linter on generated inputs, plus the seeded-defect canaries.
//!
//! Each entry declares the rules it *requires* (a seeded defect or a
//! paper finding the linter must rediscover — if the finding
//! disappears, the checker lost sensitivity) and the rules it
//! *allows* (expected lint signals that are the measurement, not a
//! defect, e.g. block-sync waste on deliberately oversized SCC
//! blocks). Anything else — above all any unsuppressed data race — is
//! unexpected and fails the entry, which is what the CI job gates on.

use ecl_check::{fixtures, CheckSession, Report, Rule};
use ecl_gpusim::Device;

use crate::experiments::run_cells;

/// One suite entry: a checked run plus its expected rule profile.
pub struct SuiteEntry {
    /// Display name, e.g. `"mst/baseline"`.
    pub name: &'static str,
    /// Rules that MUST appear (unsuppressed) for the entry to pass.
    pub required: &'static [Rule],
    /// Rules tolerated beyond `required`; any other unsuppressed
    /// finding fails the entry.
    pub allowed: &'static [Rule],
    /// The workload, run under an installed [`CheckSession`].
    pub run: fn(&Device),
}

/// Outcome of one entry.
pub struct EntryOutcome {
    /// Entry name.
    pub name: &'static str,
    /// The full findings report.
    pub report: Report,
    /// Required rules that never fired.
    pub missing: Vec<Rule>,
    /// Unsuppressed findings outside `required` + `allowed`.
    pub unexpected: usize,
}

impl EntryOutcome {
    /// Whether the entry met its declared profile.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.unexpected == 0
    }

    /// One status word for the summary table.
    pub fn status(&self) -> &'static str {
        if self.passed() {
            "ok"
        } else if !self.missing.is_empty() {
            "MISSING"
        } else {
            "FINDINGS"
        }
    }
}

/// Runs one entry in its own check session.
fn run_entry(device: &Device, entry: &SuiteEntry) -> EntryOutcome {
    let session = CheckSession::begin(device);
    (entry.run)(device);
    let report = session.finish();
    let missing: Vec<Rule> = entry.required.iter().copied().filter(|&r| !report.has(r)).collect();
    let unexpected = report
        .findings
        .iter()
        .filter(|f| !entry.required.contains(&f.rule) && !entry.allowed.contains(&f.rule))
        .count();
    EntryOutcome { name: entry.name, report, missing, unexpected }
}

/// Runs the whole suite at `scale`: the entries are cells
/// ([`run_cells`]), each in order on its own scaled device, and the
/// outcomes come back in suite order.
pub fn run_suite(scale: f64) -> Vec<EntryOutcome> {
    run_cells(suite(), |e| run_entry(&crate::scaled_device(scale), &e))
}

fn cc_random(device: &Device) {
    let g = ecl_graphgen::random::erdos_renyi(2000, 8.0, crate::DEFAULT_SEED);
    let cfg = ecl_cc::CcConfig { block_size: 256, ..ecl_cc::CcConfig::baseline() };
    ecl_cc::run(device, &g, &cfg);
}

fn mis_random(device: &Device) {
    let g = ecl_graphgen::random::erdos_renyi(2000, 6.0, crate::DEFAULT_SEED);
    ecl_mis::run(device, &g, &ecl_mis::MisConfig::default());
}

fn gc_random(device: &Device) {
    let g = ecl_graphgen::random::erdos_renyi(1500, 8.0, crate::DEFAULT_SEED);
    let cfg = ecl_gc::GcConfig { block_size: 256, ..ecl_gc::GcConfig::default() };
    ecl_gc::run(device, &g, &cfg);
}

fn scc_mesh(device: &Device) {
    let g = ecl_graphgen::mesh::toroid_wedge(16, 16, 2);
    let mut cfg = ecl_scc::SccConfig::original();
    cfg.block_size = 256;
    ecl_scc::run(device, &g, &cfg);
}

fn scc_oversized_blocks(device: &Device) {
    let g = ecl_graphgen::mesh::toroid_wedge(16, 16, 2);
    let mut cfg = ecl_scc::SccConfig::original();
    cfg.block_size = 1024;
    ecl_scc::run(device, &g, &cfg);
}

fn mst_weighted(device: &Device, fixed: bool) {
    let base = ecl_graphgen::random::erdos_renyi(2500, 5.0, crate::DEFAULT_SEED);
    let g = ecl_graphgen::with_hashed_weights(base, 1 << 16, crate::DEFAULT_SEED);
    let mut cfg = if fixed { ecl_mst::MstConfig::fixed() } else { ecl_mst::MstConfig::baseline() };
    cfg.block_size = 256;
    ecl_mst::run(device, &g, &cfg);
}

/// The suite definition. Ordering is stable; CI output diffs cleanly.
pub fn suite() -> Vec<SuiteEntry> {
    vec![
        // Seeded-defect canaries: the detector must keep detecting.
        SuiteEntry {
            name: "canary/ww-race",
            required: &[Rule::WriteWriteRace],
            allowed: &[],
            run: |d| fixtures::racy_write_write(d),
        },
        SuiteEntry {
            name: "canary/over-launch",
            required: &[Rule::OverLaunch],
            allowed: &[],
            run: |d| fixtures::over_launched(d),
        },
        // The five algorithms on generated inputs: race-clean, with
        // only the declared benign idioms suppressed.
        SuiteEntry { name: "cc/erdos-renyi", required: &[], allowed: &[], run: cc_random },
        SuiteEntry { name: "mis/erdos-renyi", required: &[], allowed: &[], run: mis_random },
        SuiteEntry { name: "gc/erdos-renyi", required: &[], allowed: &[], run: gc_random },
        // SCC's persistent grid re-syncs wide blocks over small edge
        // slices: barrier waste is the measured signal (§6.2.1), not a
        // defect of the run, so it is allowed here and *required* on
        // the deliberately oversized configuration.
        SuiteEntry {
            name: "scc/toroid",
            required: &[],
            allowed: &[Rule::BlockSyncWaste],
            run: scc_mesh,
        },
        SuiteEntry {
            name: "scc/oversized-blocks",
            required: &[Rule::BlockSyncWaste],
            allowed: &[Rule::Occupancy],
            run: scc_oversized_blocks,
        },
        // The §6.2.3 reproduction: stale grids flagged, fix passes.
        SuiteEntry {
            name: "mst/baseline",
            required: &[Rule::OverLaunch],
            allowed: &[],
            run: |d| mst_weighted(d, false),
        },
        SuiteEntry {
            name: "mst/fixed-launch",
            required: &[],
            allowed: &[],
            run: |d| mst_weighted(d, true),
        },
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn whole_suite_passes_on_the_scaled_device() {
        for outcome in run_suite(0.01) {
            assert!(
                outcome.passed(),
                "suite entry '{}' failed (missing {:?}, {} unexpected):\n{}",
                outcome.name,
                outcome.missing,
                outcome.unexpected,
                outcome.report.render(outcome.name)
            );
        }
    }
}
