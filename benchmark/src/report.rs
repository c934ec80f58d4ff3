//! What a run prints and writes, and the two ledger tools built on it:
//! `--collect` (many run files → median/q1/q3 per metric) and
//! `--compare` (two collected ledgers → pass/fail against the bounds).

use std::collections::BTreeMap;
use std::path::Path;

use ecl_prof::json::{self, Value};

use crate::metrics::{end_to_end_def, Better};
use crate::stats::{quantile, quartiles_exclusive, sorted};

/// One run's outcome: the contract's four keys plus what `--collect`
/// needs to file it.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Shortest decimal that round-trips the measured value.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run file `--collect` reads: the contract object wrapped with
    /// the run's identity.
    pub fn run_file(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}\n",
            self.workload,
            self.seed,
            self.trace as u8,
            self.contract_line()
        )
    }
}

/// Median and quartiles of one metric across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub unit: String,
}

/// One workload's row of a collected ledger.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerRow {
    pub attempted: u64,
    pub failed: u64,
    pub incorrect_runs: u64,
    pub metrics: BTreeMap<String, Cell>,
}

/// workload → row. Timed (`trace 0`) runs only: the gate is on the
/// end-to-end metrics.
pub type Ledger = BTreeMap<String, LedgerRow>;

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn number_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
}

fn object_entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(entries) => entries,
        _ => &[],
    }
}

/// Builds a ledger from the text of run files.
pub fn collect(run_files: &[String]) -> Result<Ledger, String> {
    let mut samples: BTreeMap<String, BTreeMap<String, (Vec<f64>, String)>> = BTreeMap::new();
    let mut ledger = Ledger::new();
    for text in run_files {
        let doc = json::parse(text)?;
        if number_field(&doc, "trace")? != 0.0 {
            continue;
        }
        let workload = field(&doc, "workload")?.as_str().ok_or("workload is not a string")?;
        let result = field(&doc, "result")?;
        let row = ledger.entry(workload.to_string()).or_default();
        row.attempted += number_field(result, "attempted")? as u64;
        row.failed += number_field(result, "failed")? as u64;
        if !matches!(field(result, "correct")?, Value::Bool(true)) {
            row.incorrect_runs += 1;
        }
        for (name, m) in object_entries(field(result, "metrics")?) {
            let unit = field(m, "unit")?.as_str().unwrap_or("").to_string();
            let entry = samples
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), unit));
            entry.0.push(number_field(m, "value")?);
        }
    }
    for (workload, by_metric) in samples {
        let row = ledger.entry(workload).or_default();
        for (name, (values, unit)) in by_metric {
            let s = sorted(&values);
            let (q1, q3) = quartiles_exclusive(&s);
            row.metrics.insert(name, Cell { median: quantile(&s, 0.5), q1, q3, n: s.len(), unit });
        }
    }
    Ok(ledger)
}

/// Reads every `*.json` run file under `dir`.
pub fn read_run_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.file_name().is_some_and(|n| n != "trace.json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

pub fn ledger_to_json(ledger: &Ledger) -> String {
    let rows: Vec<String> = ledger
        .iter()
        .map(|(workload, row)| {
            let cells: Vec<String> = row
                .metrics
                .iter()
                .map(|(name, c)| {
                    format!(
                        "      \"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\"}}",
                        number(c.median),
                        number(c.q1),
                        number(c.q3),
                        c.n,
                        c.unit
                    )
                })
                .collect();
            format!(
                "  \"{workload}\": {{\n    \"attempted\": {}, \"failed\": {}, \"incorrect_runs\": {},\n    \
                 \"metrics\": {{\n{}\n    }}\n  }}",
                row.attempted,
                row.failed,
                row.incorrect_runs,
                cells.join(",\n")
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

pub fn ledger_from_json(text: &str) -> Result<Ledger, String> {
    let doc = json::parse(text)?;
    let mut ledger = Ledger::new();
    for (workload, row) in object_entries(&doc) {
        let mut out = LedgerRow {
            attempted: number_field(row, "attempted")? as u64,
            failed: number_field(row, "failed")? as u64,
            incorrect_runs: number_field(row, "incorrect_runs")? as u64,
            metrics: BTreeMap::new(),
        };
        for (name, c) in object_entries(field(row, "metrics")?) {
            out.metrics.insert(
                name.clone(),
                Cell {
                    median: number_field(c, "median")?,
                    q1: number_field(c, "q1")?,
                    q3: number_field(c, "q3")?,
                    n: number_field(c, "n")? as usize,
                    unit: field(c, "unit")?.as_str().unwrap_or("").to_string(),
                },
            );
        }
        ledger.insert(workload.clone(), out);
    }
    Ok(ledger)
}

/// By what share of the baseline `candidate` is worse than `baseline`
/// (negative: better).
pub fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    match better {
        Better::Lower => (candidate - baseline) / baseline,
        Better::Higher => (baseline - candidate) / baseline,
    }
}

/// One line of the comparison table.
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub baseline: f64,
    pub candidate: f64,
    /// Interquartile range of the baseline's runs over its median.
    pub spread: f64,
    pub worsening: f64,
    pub bound: f64,
    pub pass: bool,
}

/// Compares every workload × end-to-end metric of `b` against `a`.
/// Fails a cell that is worse than the bound allows, and a workload
/// whose failure share rose or that has an incorrect run.
pub fn compare(a: &Ledger, b: &Ledger) -> (Vec<Verdict>, Vec<String>) {
    let mut verdicts = Vec::new();
    let mut problems = Vec::new();
    for (workload, row_a) in a {
        let Some(row_b) = b.get(workload) else {
            problems.push(format!("{workload}: missing from the second ledger"));
            continue;
        };
        let share = |r: &LedgerRow| r.failed as f64 / r.attempted.max(1) as f64;
        if share(row_b) > share(row_a) {
            problems.push(format!(
                "{workload}: failed/attempted rose from {}/{} to {}/{}",
                row_a.failed, row_a.attempted, row_b.failed, row_b.attempted
            ));
        }
        if row_b.incorrect_runs > 0 {
            problems.push(format!(
                "{workload}: {} run(s) reported correct=false",
                row_b.incorrect_runs
            ));
        }
        for (name, cell_a) in &row_a.metrics {
            let Some(def) = end_to_end_def(name) else { continue };
            let Some(cell_b) = row_b.metrics.get(name) else {
                problems.push(format!("{workload}/{name}: missing from the second ledger"));
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let w = worsening(def.better, cell_a.median, cell_b.median);
            verdicts.push(Verdict {
                workload: workload.clone(),
                metric: name.clone(),
                baseline: cell_a.median,
                candidate: cell_b.median,
                spread: (cell_a.q3 - cell_a.q1) / cell_a.median,
                worsening: w,
                bound,
                pass: w <= bound,
            });
        }
    }
    (verdicts, problems)
}

/// Markdown table of a comparison (what `aa.sh` commits as `AA.md`).
pub fn verdict_table(verdicts: &[Verdict]) -> String {
    let mut out = String::from(
        "| workload | metric | A median | B median | A spread (IQR/median) | B worse by | bound | |\n\
         |---|---|---:|---:|---:|---:|---:|---|\n",
    );
    for v in verdicts {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.4} | {:.2}% | {:+.2}% | {:.0}% | {} |\n",
            v.workload,
            v.metric,
            v.baseline,
            v.candidate,
            v.spread * 100.0,
            v.worsening * 100.0,
            v.bound * 100.0,
            if v.pass { "ok" } else { "FAIL" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, cc_ms: f64, jobs: f64, failed: u64) -> String {
        RunResult {
            workload: workload.into(),
            seed,
            trace: false,
            correct: true,
            attempted: 100,
            failed,
            metrics: vec![("cc_ms".into(), cc_ms, "ms"), ("jobs_per_s".into(), jobs, "1/s")],
        }
        .run_file()
    }

    fn ledger(cc_ms: f64, jobs: f64, failed: u64) -> Ledger {
        let runs: Vec<String> =
            (0..3).map(|i| run("batch-road", i, cc_ms + i as f64 * 0.01, jobs, failed)).collect();
        collect(&runs).expect("collect")
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let text = run("w", 1, 1.25, 10.0, 0);
        let doc = json::parse(&text).expect("json");
        let result = doc.get("result").expect("result");
        let keys: Vec<&str> = object_entries(result).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let cc = result.get("metrics").and_then(|m| m.get("cc_ms")).expect("cc_ms");
        assert_eq!(cc.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(cc.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn collect_takes_medians_and_round_trips() {
        let l = ledger(10.0, 50.0, 0);
        let cell = &l["batch-road"].metrics["cc_ms"];
        assert_eq!((cell.n, cell.median), (3, 10.01));
        assert_eq!(l["batch-road"].attempted, 300);
        assert_eq!(ledger_from_json(&ledger_to_json(&l)).expect("round trip"), l);
    }

    fn bound(metric: &str) -> f64 {
        end_to_end_def(metric).and_then(|m| m.bound).expect("an end-to-end metric")
    }

    #[test]
    fn lower_is_better_fails_only_when_higher_beyond_the_bound() {
        let base = ledger(10.0, 50.0, 0);
        let b = bound("cc_ms");
        let within = compare(&base, &ledger(10.0 * (1.0 + b - 0.01), 50.0, 0)).0;
        assert!(within.iter().all(|v| v.pass));
        let slower = compare(&base, &ledger(10.0 * (1.0 + b + 0.02), 50.0, 0)).0;
        assert!(slower.iter().any(|v| v.metric == "cc_ms" && !v.pass));
        let faster = compare(&base, &ledger(5.0, 50.0, 0)).0;
        assert!(faster.iter().all(|v| v.pass), "an improvement never fails");
    }

    #[test]
    fn higher_is_better_fails_only_when_lower_beyond_the_bound() {
        let base = ledger(10.0, 50.0, 0);
        let b = bound("jobs_per_s");
        let lower = compare(&base, &ledger(10.0, 50.0 * (1.0 - b - 0.02), 0)).0;
        assert!(lower.iter().any(|v| v.metric == "jobs_per_s" && !v.pass));
        assert!(compare(&base, &ledger(10.0, 50.0 * (1.0 - b + 0.02), 0)).0.iter().all(|v| v.pass));
        assert!(compare(&base, &ledger(10.0, 90.0, 0)).0.iter().all(|v| v.pass));
        assert!(worsening(Better::Higher, 50.0, 45.0) > 0.0);
        assert!(worsening(Better::Lower, 50.0, 45.0) < 0.0);
    }

    #[test]
    fn a_rise_in_failures_is_a_problem() {
        let base = ledger(10.0, 50.0, 0);
        assert!(compare(&base, &ledger(10.0, 50.0, 0)).1.is_empty());
        assert_eq!(compare(&base, &ledger(10.0, 50.0, 2)).1.len(), 1);
    }
}
