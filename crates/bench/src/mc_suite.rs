//! The `ecl-mc` suite: every host-side concurrency harness explored
//! by the model checker, plus the seeded-defect fixtures it must
//! find.
//!
//! Mirrors [`crate::check_suite`]: each entry declares its expected
//! verdict and the run compares against it. Clean harnesses must
//! verify with zero findings (the tentpole harnesses — ticket-claim,
//! the block-local tally fold, the counted min/max test-first path,
//! finish-path, the serve reactor's event-ring / wake / handoff
//! protocols, the sharded superstep's barrier and flush, and the observer
//! slot's publish-and-retire — additionally *exhaustively*, or the
//! entry fails — a budget cut
//! there means the CI budget no longer covers the protocol); fixtures
//! must be found and classified under their declared rule, so the
//! detector itself is regression-tested.

use std::fmt::Write as _;

use ecl_check::{Report, Rule};
use ecl_mc::{fixtures, harnesses, report, Checker, Config, Outcome};
use ecl_profiling::json;

/// Schema identifier of the JSON document `ecl-mc --json` writes.
pub const MC_SCHEMA: &str = "ecl-mc/1";

/// What an entry must produce to pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// No finding of any rule; `exhaustive` additionally requires the
    /// bounded DFS to have enumerated every schedule within budget.
    Clean {
        /// Fail the entry if the DFS was budget-truncated.
        exhaustive: bool,
    },
    /// The checker must report exactly this rule.
    Finds(Rule),
}

/// One suite entry.
pub struct McSuiteEntry {
    /// Display name, e.g. `"harness/pool-ticket-claim"`.
    pub name: String,
    /// One-line description (from the harness/fixture registry).
    pub about: &'static str,
    /// The harness body.
    pub run: fn(),
    /// Declared verdict.
    pub expect: Expectation,
}

/// Outcome of one entry.
pub struct McEntryOutcome {
    /// Entry name.
    pub name: String,
    /// Declared verdict.
    pub expect: Expectation,
    /// The exploration verdict.
    pub outcome: Outcome,
    /// The findings report (bridged onto the `ecl-check` surface).
    pub report: Report,
}

impl McEntryOutcome {
    /// Whether the entry met its declared expectation.
    pub fn passed(&self) -> bool {
        match self.expect {
            Expectation::Clean { exhaustive } => {
                self.outcome.is_clean() && (!exhaustive || self.outcome.exhaustive)
            }
            Expectation::Finds(rule) => {
                self.outcome.failure.as_ref().is_some_and(|f| report::rule_of(f.kind) == rule)
            }
        }
    }

    /// One status word for the summary table.
    pub fn status(&self) -> &'static str {
        if self.passed() {
            "ok"
        } else {
            match (&self.expect, &self.outcome.failure) {
                (Expectation::Clean { .. }, Some(_)) => "FINDINGS",
                (Expectation::Clean { .. }, None) => "TRUNCATED",
                (Expectation::Finds(_), None) => "MISSED",
                (Expectation::Finds(_), Some(_)) => "MISCLASSIFIED",
            }
        }
    }
}

/// The protocol-bearing harnesses that must be explored exhaustively
/// at the CI bound, not merely come out clean.
const EXHAUSTIVE: [&str; 8] = [
    "pool-ticket-claim",
    "tally-fold",
    "counted-minmax",
    "scheduler-finish",
    "serve-conn-ring",
    "serve-reactor-wakeup",
    "serve-reactor-handoff",
    "shard-superstep",
];

/// The suite definition: all clean harnesses, then all fixtures.
/// Ordering is stable; CI output diffs cleanly.
pub fn mc_suite() -> Vec<McSuiteEntry> {
    let mut entries: Vec<McSuiteEntry> = harnesses::ALL
        .iter()
        .map(|h| McSuiteEntry {
            name: format!("harness/{}", h.name),
            about: h.about,
            run: h.run,
            expect: Expectation::Clean { exhaustive: EXHAUSTIVE.contains(&h.name) },
        })
        .collect();
    entries.extend(fixtures::ALL.iter().map(|f| McSuiteEntry {
        name: format!("fixture/{}", f.name),
        about: f.about,
        run: f.run,
        expect: Expectation::Finds(f.expect),
    }));
    entries
}

/// Explores one entry under `config`.
pub fn run_mc_entry(config: &Config, entry: &McSuiteEntry) -> McEntryOutcome {
    let outcome = Checker::with_config(*config).check(&entry.name, entry.run);
    let rep = report::to_report(&outcome);
    McEntryOutcome { name: entry.name.clone(), expect: entry.expect, outcome, report: rep }
}

/// Runs the whole suite sequentially (runs are process-global because
/// of the schedule baton, so never parallelize entries).
pub fn run_mc_suite(config: &Config) -> Vec<McEntryOutcome> {
    mc_suite().iter().map(|e| run_mc_entry(config, e)).collect()
}

/// Serializes suite outcomes as a versioned `ecl-mc/1` document
/// (schema + git SHA envelope per the `ecl-prof/1` conventions, one
/// entry per explored harness with its exploration counters and
/// bridged report).
pub fn mc_json(config: &Config, outcomes: &[McEntryOutcome]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{MC_SCHEMA}\",");
    let _ = writeln!(out, "  \"git_sha\": \"{}\",", json::escape(&ecl_prof::git_sha()));
    let _ = writeln!(
        out,
        "  \"config\": {{\"preemption_bound\": {}, \"max_schedules\": {}, \
         \"random_samples\": {}, \"seed\": {}, \"max_steps\": {}}},",
        config.preemption_bound,
        config.max_schedules,
        config.random_samples,
        config.seed,
        config.max_steps
    );
    out.push_str("  \"entries\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\", \"status\": \"{}\", \"passed\": {},\n      \
             \"schedules\": {}, \"dfs_schedules\": {}, \"random_schedules\": {}, \
             \"exhaustive\": {}, \"bound\": {},\n",
            json::escape(&o.name),
            o.status(),
            o.passed(),
            o.outcome.schedules,
            o.outcome.dfs_schedules,
            o.outcome.random_schedules,
            o.outcome.exhaustive,
            o.outcome.bound,
        );
        if let Some(f) = &o.outcome.failure {
            let sched: Vec<String> = f.schedule.iter().map(usize::to_string).collect();
            let _ = writeln!(
                out,
                "      \"failure\": {{\"kind\": \"{}\", \"rule\": \"{}\", \"detail\": \"{}\", \
                 \"preemptions\": {}, \"schedule\": [{}]}},",
                f.kind.name(),
                report::rule_of(f.kind).name(),
                json::escape(&f.detail),
                f.preemptions,
                sched.join(", ")
            );
        }
        let _ = write!(out, "      \"report\": {}", o.report.to_json("      "));
        let _ = write!(out, "\n    }}{}\n", if i + 1 == outcomes.len() { "" } else { "," });
    }
    out.push_str("  ],\n");
    let failed = outcomes.iter().filter(|o| !o.passed()).count();
    let schedules: u64 = outcomes.iter().map(|o| o.outcome.schedules).sum();
    let _ = writeln!(out, "  \"total_schedules\": {schedules},");
    let _ = writeln!(out, "  \"failed\": {failed}");
    out.push_str("}\n");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { max_schedules: 2_000, random_samples: 8, ..Config::default() }
    }

    #[test]
    fn whole_mc_suite_passes() {
        for o in run_mc_suite(&quick()) {
            assert!(
                o.passed(),
                "mc suite entry '{}' failed ({}): {}",
                o.name,
                o.status(),
                o.outcome.summary()
            );
        }
    }

    #[test]
    fn tentpole_harnesses_are_exhaustive_and_explored() {
        let cfg = quick();
        for name in EXHAUSTIVE {
            let entry =
                mc_suite().into_iter().find(|e| e.name == format!("harness/{name}")).unwrap();
            let o = run_mc_entry(&cfg, &entry);
            assert!(o.outcome.exhaustive, "{name}: {}", o.outcome.summary());
            assert!(o.outcome.schedules > 10, "{name} explores a real tree");
        }
    }

    #[test]
    fn json_document_parses_and_carries_the_schema() {
        let cfg = quick();
        let entry = mc_suite().into_iter().find(|e| e.name.starts_with("fixture/")).unwrap();
        let outcomes = vec![run_mc_entry(&cfg, &entry)];
        let doc = mc_json(&cfg, &outcomes);
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(MC_SCHEMA));
        let entries = v.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert!(e.get("passed").is_some());
        assert!(e.get("failure").is_some(), "fixture entry embeds its failure");
        assert!(e.get("report").and_then(|r| r.get("findings")).is_some());
        assert_eq!(v.get("failed").and_then(|f| f.as_f64()), Some(0.0));
    }
}
