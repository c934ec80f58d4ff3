//! Findings and the rendered report.

use std::fmt::Write as _;

use ecl_profiling::json;
use ecl_profiling::Table;

/// The rule a finding violates. `raw()` values are the payload of
/// `EventKind::CheckFinding` trace events — append, never renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Two distinct agents wrote the same cell non-atomically in the
    /// same launch epoch.
    WriteWriteRace,
    /// One agent read a cell another agent wrote non-atomically in the
    /// same launch epoch.
    ReadWriteRace,
    /// The grid launched far more blocks than touched any work — the
    /// paper's ECL-MST stale-worklist launch (§6.3).
    OverLaunch,
    /// Block-wide barriers charged many thread-slots with few
    /// effective updates between them — the ECL-SCC oversized-block
    /// signal (§6.2).
    BlockSyncWaste,
    /// The block size leaves SM occupancy below threshold
    /// (`DeviceConfig::occupancy`, the Table 6 block-size cliff).
    Occupancy,
    /// A per-lane barrier (`BlockCtx::lane_sync`) was not reached by
    /// every lane of the block the same number of times —
    /// `__syncthreads()` under divergence.
    DivergentSync,
    /// A `Schedule` knob (block size, …) falls outside its registry
    /// domain or the modeled device limits (`ecl-check`'s static
    /// launch-config lint, wired into `ecl-tune validate`).
    ScheduleDomain,
    /// `ecl-mc`: unsynchronized conflicting host-side accesses — no
    /// happens-before edge between the two epochs under the declared
    /// orderings.
    McRace,
    /// `ecl-mc`: a schedule where no thread can make progress.
    McDeadlock,
    /// `ecl-mc`: a deadlocked condvar waiter whose notify fired
    /// before it parked (the PR 6 finish-path bug class).
    McLostWakeup,
    /// `ecl-mc`: a harness assertion failed (or a run blew its step
    /// budget) under some explored schedule.
    McAssertion,
}

impl Rule {
    /// All rules, report ordered.
    pub const ALL: [Rule; 11] = [
        Rule::WriteWriteRace,
        Rule::ReadWriteRace,
        Rule::OverLaunch,
        Rule::BlockSyncWaste,
        Rule::Occupancy,
        Rule::DivergentSync,
        Rule::ScheduleDomain,
        Rule::McRace,
        Rule::McDeadlock,
        Rule::McLostWakeup,
        Rule::McAssertion,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WriteWriteRace => "write-write-race",
            Rule::ReadWriteRace => "read-write-race",
            Rule::OverLaunch => "over-launch",
            Rule::BlockSyncWaste => "block-sync-waste",
            Rule::Occupancy => "occupancy",
            Rule::DivergentSync => "divergent-sync",
            Rule::ScheduleDomain => "schedule-domain",
            Rule::McRace => "mc-race",
            Rule::McDeadlock => "mc-deadlock",
            Rule::McLostWakeup => "mc-lost-wakeup",
            Rule::McAssertion => "mc-assertion",
        }
    }

    /// Wire value used as the `CheckFinding` trace-event payload.
    pub fn raw(self) -> u32 {
        match self {
            Rule::WriteWriteRace => 1,
            Rule::ReadWriteRace => 2,
            Rule::OverLaunch => 3,
            Rule::BlockSyncWaste => 4,
            Rule::Occupancy => 5,
            Rule::DivergentSync => 6,
            Rule::ScheduleDomain => 7,
            Rule::McRace => 8,
            Rule::McDeadlock => 9,
            Rule::McLostWakeup => 10,
            Rule::McAssertion => 11,
        }
    }

    /// Whether this is a race rule — device-side shadow-memory races
    /// or host-side model-checked races (as opposed to a
    /// launch-configuration lint).
    pub fn is_race(self) -> bool {
        matches!(self, Rule::WriteWriteRace | Rule::ReadWriteRace | Rule::McRace)
    }
}

/// One folded finding: all conflicts with the same (rule, kernel,
/// region) collapse into a single entry whose `count` tallies the
/// occurrences and whose `detail` describes the first one.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Kernel name (from the `launch_*_named` call site).
    pub kernel: String,
    /// Registered region the cell belongs to, if any.
    pub region: Option<String>,
    /// 1-based launch index (within the session) of the first
    /// occurrence.
    pub launch_index: u64,
    /// Number of occurrences folded into this finding.
    pub count: u64,
    /// Human-readable description of the first occurrence.
    pub detail: String,
    /// `Some(reason)` when the finding hit a benign-allowlisted region
    /// and was suppressed.
    pub suppressed: Option<String>,
}

/// The result of a check session.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (rule, kernel).
    pub findings: Vec<Finding>,
    /// Findings on benign-allowlisted regions (still counted, never
    /// fatal).
    pub suppressed: Vec<Finding>,
    /// Tracked kernel launches observed.
    pub launches: u64,
    /// Counted-atomic cell accesses observed.
    pub accesses: u64,
}

impl Report {
    /// No unsuppressed findings of any rule.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// No unsuppressed *race* findings (lint findings ignored).
    pub fn races_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.rule.is_race())
    }

    /// Unsuppressed findings of `rule`.
    pub fn of_rule(&self, rule: Rule) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Whether any unsuppressed finding of `rule` exists.
    pub fn has(&self, rule: Rule) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }

    /// Serializes the report as a JSON object (no schema envelope:
    /// the binaries wrap reports into versioned `ecl-check/1` /
    /// `ecl-mc/1` documents following the `ecl-prof/1` conventions).
    /// `indent` is the leading whitespace of the opening brace's line.
    pub fn to_json(&self, indent: &str) -> String {
        fn findings_json(out: &mut String, key: &str, fs: &[Finding], indent: &str) {
            if fs.is_empty() {
                let _ = write!(out, "{indent}  \"{key}\": [],");
                return;
            }
            let _ = write!(out, "{indent}  \"{key}\": [");
            for (i, f) in fs.iter().enumerate() {
                let sep = if i + 1 == fs.len() { "" } else { "," };
                let _ = write!(
                    out,
                    "\n{indent}    {{\"rule\": \"{}\", \"kernel\": \"{}\", \"region\": {}, \
                     \"launch_index\": {}, \"count\": {}, \"detail\": \"{}\"{}}}{sep}",
                    f.rule.name(),
                    json::escape(&f.kernel),
                    match &f.region {
                        Some(r) => format!("\"{}\"", json::escape(r)),
                        None => "null".to_string(),
                    },
                    f.launch_index,
                    f.count,
                    json::escape(&f.detail),
                    match &f.suppressed {
                        Some(why) => format!(", \"suppressed\": \"{}\"", json::escape(why)),
                        None => String::new(),
                    },
                );
            }
            let _ = write!(out, "\n{indent}  ],");
        }
        let mut out = String::from("{\n");
        findings_json(&mut out, "findings", &self.findings, indent);
        out.push('\n');
        findings_json(&mut out, "suppressed", &self.suppressed, indent);
        let _ = write!(
            out,
            "\n{indent}  \"launches\": {}, \"accesses\": {}\n{indent}}}",
            self.launches, self.accesses
        );
        out
    }

    /// Renders the findings as a table plus a summary footer, in the
    /// same visual style as the harness binaries.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(title, &["kernel", "rule", "region", "count", "detail"]);
        for f in self.findings.iter().chain(self.suppressed.iter()) {
            let rule = if f.suppressed.is_some() {
                format!("{} (suppressed)", f.rule.name())
            } else {
                f.rule.name().to_string()
            };
            t.row_owned(vec![
                f.kernel.clone(),
                rule,
                f.region.clone().unwrap_or_else(|| "-".to_string()),
                f.count.to_string(),
                f.detail.clone(),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "{} finding(s), {} suppressed (benign allowlist) · {} launches, {} accesses checked\n",
            self.findings.len(),
            self.suppressed.len(),
            self.launches,
            self.accesses,
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn finding(rule: Rule, kernel: &str, suppressed: bool) -> Finding {
        Finding {
            rule,
            kernel: kernel.to_string(),
            region: Some("r".to_string()),
            launch_index: 1,
            count: 3,
            detail: "cell r[0]".to_string(),
            suppressed: suppressed.then(|| "why".to_string()),
        }
    }

    #[test]
    fn rule_raw_values_are_distinct_and_stable() {
        let mut raws: Vec<u32> = Rule::ALL.iter().map(|r| r.raw()).collect();
        raws.sort_unstable();
        raws.dedup();
        assert_eq!(raws.len(), Rule::ALL.len());
        assert_eq!(Rule::WriteWriteRace.raw(), 1);
        assert_eq!(Rule::DivergentSync.raw(), 6);
        assert_eq!(Rule::ScheduleDomain.raw(), 7);
        assert_eq!(Rule::McAssertion.raw(), 11);
    }

    #[test]
    fn clean_predicates() {
        let mut r = Report::default();
        assert!(r.is_clean() && r.races_clean());
        r.suppressed.push(finding(Rule::WriteWriteRace, "k", true));
        assert!(r.is_clean(), "suppressed findings never dirty a report");
        r.findings.push(finding(Rule::OverLaunch, "k", false));
        assert!(!r.is_clean());
        assert!(r.races_clean(), "lint findings are not races");
        r.findings.push(finding(Rule::ReadWriteRace, "k", false));
        assert!(!r.races_clean());
        assert_eq!(r.of_rule(Rule::OverLaunch).len(), 1);
        assert!(r.has(Rule::ReadWriteRace));
        assert!(!r.has(Rule::Occupancy));
    }

    #[test]
    fn json_round_trips_through_the_prof_parser() {
        let mut r = Report::default();
        r.findings.push(finding(Rule::McRace, "mc \"quoted\"", false));
        r.suppressed.push(finding(Rule::WriteWriteRace, "mst.reset", true));
        r.launches = 9;
        let v = json::parse(&r.to_json("")).unwrap();
        let fs = v.get("findings").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].get("rule").and_then(|r| r.as_str()), Some("mc-race"));
        assert_eq!(fs[0].get("kernel").and_then(|k| k.as_str()), Some("mc \"quoted\""));
        assert_eq!(v.get("launches").and_then(|l| l.as_f64()), Some(9.0));
        assert_eq!(v.get("suppressed").and_then(|s| s.as_arr()).map(<[_]>::len), Some(1));
        let empty = json::parse(&Report::default().to_json("  ")).unwrap();
        assert_eq!(empty.get("findings").and_then(|f| f.as_arr()).map(<[_]>::len), Some(0));
    }

    #[test]
    fn render_includes_suppressed_and_footer() {
        let mut r = Report::default();
        r.findings.push(finding(Rule::OverLaunch, "mst.k1", false));
        r.suppressed.push(finding(Rule::WriteWriteRace, "mst.reset", true));
        r.launches = 7;
        r.accesses = 1234;
        let text = r.render("findings");
        assert!(text.contains("over-launch"));
        assert!(text.contains("write-write-race (suppressed)"));
        assert!(text.contains("1 finding(s), 1 suppressed"));
        assert!(text.contains("7 launches, 1234 accesses"));
    }
}
