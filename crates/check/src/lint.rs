//! Static launch-configuration lint: validates a [`Schedule`]
//! against an algorithm's knob table and the modeled device limits,
//! without running anything. (This crate sits below the algorithm
//! crates, so the caller supplies the table — `ecl_cc::KNOBS`, … —
//! together with the algorithm's name.)
//!
//! The runtime rules ([`crate::checker`]) catch a bad configuration
//! only on the launches it actually distorts; this lint catches it at
//! manifest-validation time — `ecl-tune validate` runs it over every
//! manifest entry, so a hand-edited or stale schedule fails CI before
//! any sweep consumes it.

use ecl_gpusim::schedule::{find_knob, KnobSpec};
use ecl_gpusim::{DeviceConfig, KnobValue, Schedule};

use crate::report::{Finding, Report, Rule};

/// CUDA's architectural ceiling on threads per block; constant across
/// every modeled device generation.
pub const MAX_BLOCK_THREADS: i64 = 1024;

fn finding(algo: &str, knob: &str, detail: String) -> Finding {
    Finding {
        rule: Rule::ScheduleDomain,
        kernel: algo.to_string(),
        region: Some(knob.to_string()),
        launch_index: 0,
        count: 1,
        detail,
        suppressed: None,
    }
}

fn render(v: &KnobValue) -> String {
    match v {
        KnobValue::Bool(b) => b.to_string(),
        KnobValue::Int(i) => i.to_string(),
        KnobValue::Float(f) => f.to_string(),
        KnobValue::Str(s) => format!("{s:?}"),
    }
}

fn domain_summary(spec: &KnobSpec) -> String {
    let vals: Vec<String> = spec.domain.values().iter().map(render).collect();
    format!("{{{}}}", vals.join(", "))
}

/// Lints one schedule for `algo`, whose knob table is `knobs` (its
/// whole schedule space), against `device`. Returns one
/// [`Rule::ScheduleDomain`] finding per violation:
///
/// - a knob the registry does not declare for this algorithm,
/// - a declared knob assigned a value outside its domain,
/// - a `block_size` the modeled device cannot launch — above the
///   architectural per-block thread ceiling, above the SM's resident
///   thread capacity, or not warp-aligned — even when the registry
///   domain admits it (domains are shared across devices; limits are
///   not).
pub fn lint_schedule(
    algo: &str,
    knobs: &[KnobSpec],
    schedule: &Schedule,
    device: &DeviceConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, value) in schedule.knobs() {
        let Some(spec) = find_knob(knobs, name) else {
            findings.push(finding(
                algo,
                name,
                format!("knob {name:?} is not in the {algo:?} registry"),
            ));
            continue;
        };
        if !spec.domain.admits(value) {
            findings.push(finding(
                algo,
                name,
                format!(
                    "value {} outside the registry domain {}",
                    render(value),
                    domain_summary(spec)
                ),
            ));
            continue;
        }
        if name == "block_size" {
            if let KnobValue::Int(bs) = value {
                if *bs > MAX_BLOCK_THREADS {
                    findings.push(finding(
                        algo,
                        name,
                        format!("block_size {bs} exceeds the {MAX_BLOCK_THREADS}-thread per-block ceiling"),
                    ));
                } else if *bs > device.threads_per_sm as i64 {
                    findings.push(finding(
                        algo,
                        name,
                        format!(
                            "block_size {bs} exceeds the device's {} resident threads per SM",
                            device.threads_per_sm
                        ),
                    ));
                } else if *bs % device.warp_size as i64 != 0 {
                    findings.push(finding(
                        algo,
                        name,
                        format!(
                            "block_size {bs} is not a multiple of the {}-wide warp",
                            device.warp_size
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Runs [`lint_schedule`] over a batch of `(algo, knobs, schedule)`
/// triples and folds the findings into a [`Report`] (one "launch" per
/// schedule checked, so the footer counts coverage).
pub fn lint_schedules<'a, I>(pairs: I, device: &DeviceConfig) -> Report
where
    I: IntoIterator<Item = (&'a str, &'a [KnobSpec], &'a Schedule)>,
{
    let mut report = Report::default();
    for (algo, knobs, schedule) in pairs {
        report.launches += 1;
        report.findings.extend(lint_schedule(algo, knobs, schedule, device));
    }
    report
        .findings
        .sort_by(|a, b| (a.rule, &a.kernel, &a.region).cmp(&(b.rule, &b.kernel, &b.region)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_gpusim::default_schedule;
    use ecl_gpusim::schedule::{KnobDomain, BLOCK_SIZES};

    /// A stand-in algorithm table (the real ones live above this
    /// crate; `tests/algo_registry.rs` lints every registered default).
    const KNOBS: [KnobSpec; 2] = [
        KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 3 },
        KnobSpec { name: "trim", domain: KnobDomain::Bool, default_ix: 0 },
    ];

    fn rtx4090() -> DeviceConfig {
        DeviceConfig::rtx4090()
    }

    #[test]
    fn default_schedule_lints_clean() {
        let f = lint_schedule("scc", &KNOBS, &default_schedule(&KNOBS), &rtx4090());
        assert!(f.is_empty(), "{:?}", f.iter().map(|f| &f.detail).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_knob_flagged() {
        let s = Schedule::new().with("warp_shuffle", KnobValue::Bool(true));
        let f = lint_schedule("scc", &KNOBS, &s, &rtx4090());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ScheduleDomain);
        assert!(f[0].detail.contains("not in the"), "{}", f[0].detail);
    }

    #[test]
    fn out_of_domain_value_flagged() {
        let s = default_schedule(&KNOBS).with("block_size", KnobValue::Int(333));
        let f = lint_schedule("scc", &KNOBS, &s, &rtx4090());
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("outside the registry domain"), "{}", f[0].detail);
        assert_eq!(f[0].region.as_deref(), Some("block_size"));
    }

    #[test]
    fn device_limit_flagged_even_when_in_domain() {
        // 1024 is in the registry domain but test_small's SM holds
        // only 64 resident threads.
        let s = default_schedule(&KNOBS).with("block_size", KnobValue::Int(1024));
        let f = lint_schedule("scc", &KNOBS, &s, &DeviceConfig::test_small());
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("resident threads"), "{}", f[0].detail);
        assert!(lint_schedule("scc", &KNOBS, &s, &rtx4090()).is_empty(), "4090 launches 1024 fine");
    }

    #[test]
    fn batch_report_counts_schedules_as_launches() {
        let good = default_schedule(&KNOBS);
        let bad = Schedule::new().with("bogus", KnobValue::Int(1));
        let rep = lint_schedules([("scc", &KNOBS[..], &good), ("gc", &[][..], &bad)], &rtx4090());
        assert_eq!(rep.launches, 2);
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.has(Rule::ScheduleDomain));
        assert!(rep.races_clean(), "lint findings are not races");
    }
}
