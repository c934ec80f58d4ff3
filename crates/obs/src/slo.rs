//! Declarative per-algorithm service-level objectives with
//! multi-window burn rates and exemplar-bearing latency histograms.
//!
//! An objective is parsed from the CLI spec grammar
//!
//! ```text
//! --slo cc:p99=5ms,err=0.1%;gc:p50=2ms
//! ```
//!
//! i.e. `;`-separated per-algo clauses, each `algo:` followed by
//! `,`-separated objectives: `pNN=<duration>` (a latency quantile
//! target) and `err=<percent>` (an error-rate budget).
//!
//! **Burn rate** is the standard SRE quantity: the fraction of
//! requests that violated the objective over a trailing window,
//! divided by the objective's error budget. A burn rate of 1.0 means
//! the budget is being consumed exactly as fast as it accrues; 10×
//! means an incident. The budget of a latency objective `p99=5ms` is
//! `1 − 0.99 = 1%` of requests allowed over 5 ms; the budget of
//! `err=0.1%` is 0.1% of requests allowed to fail. Rates are computed
//! over four trailing windows (1m/5m/30m/1h) from a ring of 5-second
//! slots, so the engine is O(1) per observation and O(ring) per
//! scrape, with no unbounded growth.
//!
//! The latency histogram (`ecl_slo_latency_seconds`) uses power-of-two
//! microsecond buckets and attaches an OpenMetrics-style **exemplar**
//! — `# {req_id="N"} <seconds>` — to each bucket: the last request
//! that landed there. Scraping the histogram therefore yields concrete
//! `ReqId`s to look up in the flight recorder.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use ecl_profiling::expo::Exposition;

/// Histogram bucket count: bucket `i` covers latencies ≤ 2^i µs
/// (2^26 µs ≈ 67 s); one more for +Inf.
const BUCKETS: usize = 27;

/// Trailing-window slot width in seconds.
const SLOT_SECS: u64 = 5;

/// Slots retained: 720 × 5 s = 1 h, the widest window.
const SLOTS: usize = 720;

/// The exported windows: label and width in seconds.
pub const WINDOWS: [(&str, u64); 4] = [("1m", 60), ("5m", 300), ("30m", 1800), ("1h", 3600)];

/// One parsed objective clause.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjectiveKind {
    /// `pNN=<duration>`: `quantile` of requests must finish within
    /// `target_ns`.
    Latency {
        /// The quantile (0.5 for `p50`, 0.99 for `p99`, …).
        quantile: f64,
        /// The latency target.
        target_ns: u64,
    },
    /// `err=<percent>`: at most `budget` (a fraction) of requests may
    /// fail.
    ErrorRate {
        /// Allowed failing fraction (0.001 for `0.1%`).
        budget: f64,
    },
}

impl ObjectiveKind {
    /// Stable label value for the `objective` metric label.
    pub fn label(&self) -> String {
        match self {
            ObjectiveKind::Latency { quantile, .. } => {
                // 0.99 -> "p99", 0.999 -> "p999", 0.5 -> "p50". Fixed
                // rounding first: 0.99 × 100 is not exactly 99 in f64.
                let pct = format!("{:.6}", quantile * 100.0);
                let pct = pct.trim_end_matches('0').trim_end_matches('.');
                format!("p{}", pct.replace('.', ""))
            }
            ObjectiveKind::ErrorRate { .. } => "err".to_string(),
        }
    }

    /// The objective's error budget: the fraction of requests allowed
    /// to violate it.
    pub fn budget(&self) -> f64 {
        match self {
            ObjectiveKind::Latency { quantile, .. } => (1.0 - quantile).max(1e-9),
            ObjectiveKind::ErrorRate { budget } => budget.max(1e-9),
        }
    }
}

/// One objective bound to an algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct Objective {
    /// Algorithm wire name the objective applies to.
    pub algo: String,
    /// The clause.
    pub kind: ObjectiveKind,
}

/// Parses a duration literal: `5ms`, `250us`, `1.5s`, `700ns`.
fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let (num, unit) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => return Err(format!("duration '{s}' is missing a unit (ns/us/ms/s)")),
    };
    let v: f64 = num.parse().map_err(|_| format!("bad duration number '{num}'"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("bad duration '{s}'"));
    }
    let scale = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return Err(format!("unknown duration unit '{unit}' (use ns/us/ms/s)")),
    };
    Ok((v * scale) as u64)
}

/// Parses a fraction literal: `0.1%` or `0.001`.
fn parse_fraction(s: &str) -> Result<f64, String> {
    let (num, pct) = match s.strip_suffix('%') {
        Some(n) => (n, true),
        None => (s, false),
    };
    let v: f64 = num.parse().map_err(|_| format!("bad fraction '{s}'"))?;
    let v = if pct { v / 100.0 } else { v };
    if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
        return Err(format!("fraction '{s}' must be within [0, 100%]"));
    }
    Ok(v)
}

/// Parses the full `--slo` spec grammar. Algorithm names are not
/// validated here (the serving layer knows its algo set); empty
/// clauses are rejected.
pub fn parse_slo_spec(spec: &str) -> Result<Vec<Objective>, String> {
    let mut out = Vec::new();
    for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
        let (algo, body) = clause
            .split_once(':')
            .ok_or_else(|| format!("clause '{clause}' is missing 'algo:'"))?;
        let algo = algo.trim();
        if algo.is_empty() {
            return Err(format!("clause '{clause}' has an empty algo name"));
        }
        let mut any = false;
        for item in body.split(',').filter(|i| !i.trim().is_empty()) {
            let (key, value) =
                item.split_once('=').ok_or_else(|| format!("objective '{item}' is missing '='"))?;
            let (key, value) = (key.trim(), value.trim());
            let kind = if let Some(q) = key.strip_prefix('p') {
                let digits: f64 =
                    q.parse().map_err(|_| format!("bad quantile '{key}' (use p50/p99/p999)"))?;
                // p99 -> 0.99, p999 -> 0.999, p50 -> 0.5.
                let quantile = digits / 10f64.powi(q.len() as i32);
                if !(0.0..1.0).contains(&quantile) {
                    return Err(format!("quantile '{key}' out of range"));
                }
                ObjectiveKind::Latency { quantile, target_ns: parse_duration_ns(value)? }
            } else if key == "err" {
                ObjectiveKind::ErrorRate { budget: parse_fraction(value)? }
            } else {
                return Err(format!("unknown objective '{key}' (use pNN= or err=)"));
            };
            out.push(Objective { algo: algo.to_string(), kind });
            any = true;
        }
        if !any {
            return Err(format!("clause '{clause}' declares no objectives"));
        }
    }
    if out.is_empty() {
        return Err("empty --slo spec".to_string());
    }
    Ok(out)
}

/// One 5-second accounting slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Which 5-second epoch this slot last recorded (guards staleness
    /// when the ring wraps past an idle hour).
    epoch: u64,
    total: u64,
    over_latency: u64,
    errors: u64,
}

/// Per-algorithm tracking state.
struct AlgoState {
    /// The latency target violations are counted against (the
    /// tightest latency objective for the algo, if any).
    latency_target_ns: Option<u64>,
    hist: [u64; BUCKETS + 1],
    exemplars: [Option<(u64, f64)>; BUCKETS + 1],
    sum_seconds: f64,
    ok: u64,
    errors: u64,
    slots: Vec<Slot>,
}

impl AlgoState {
    fn new(latency_target_ns: Option<u64>) -> AlgoState {
        AlgoState {
            latency_target_ns,
            hist: [0; BUCKETS + 1],
            exemplars: [None; BUCKETS + 1],
            sum_seconds: 0.0,
            ok: 0,
            errors: 0,
            slots: vec![Slot::default(); SLOTS],
        }
    }

    fn observe(&mut self, req: u64, latency_ns: u64, ok: bool, epoch: u64) {
        let seconds = latency_ns as f64 / 1e9;
        let us = latency_ns / 1_000;
        let bucket = (0..BUCKETS).find(|i| us <= 1u64 << i).unwrap_or(BUCKETS);
        self.hist[bucket] += 1;
        self.exemplars[bucket] = Some((req, seconds));
        self.sum_seconds += seconds;
        if ok {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
        let slot = &mut self.slots[(epoch % SLOTS as u64) as usize];
        if slot.epoch != epoch {
            *slot = Slot { epoch, ..Slot::default() };
        }
        slot.total += 1;
        if self.latency_target_ns.is_some_and(|t| latency_ns > t) {
            slot.over_latency += 1;
        }
        if !ok {
            slot.errors += 1;
        }
    }

    /// (total, over-latency, errors) across the trailing `window_secs`.
    fn window_counts(&self, now_epoch: u64, window_secs: u64) -> (u64, u64, u64) {
        let span = (window_secs / SLOT_SECS).max(1);
        let oldest = now_epoch.saturating_sub(span - 1);
        let mut acc = (0u64, 0u64, 0u64);
        for s in &self.slots {
            if s.epoch >= oldest && s.epoch <= now_epoch {
                acc.0 += s.total;
                acc.1 += s.over_latency;
                acc.2 += s.errors;
            }
        }
        acc
    }
}

/// The SLO engine: holds the parsed objectives and the per-algo
/// tracking state. Observations for algorithms without objectives are
/// ignored (no cost, no series).
pub struct SloEngine {
    objectives: Vec<Objective>,
    start: Instant,
    state: Mutex<HashMap<String, AlgoState>>,
}

impl SloEngine {
    /// An engine tracking `objectives`.
    pub fn new(objectives: Vec<Objective>) -> SloEngine {
        let mut state = HashMap::new();
        for o in &objectives {
            let target = match o.kind {
                ObjectiveKind::Latency { target_ns, .. } => Some(target_ns),
                ObjectiveKind::ErrorRate { .. } => None,
            };
            let entry = state.entry(o.algo.clone()).or_insert_with(|| AlgoState::new(None));
            if let Some(t) = target {
                entry.latency_target_ns = Some(entry.latency_target_ns.map_or(t, |cur| cur.min(t)));
            }
        }
        SloEngine { objectives, start: Instant::now(), state: Mutex::new(state) }
    }

    /// Parses `spec` and builds the engine.
    pub fn from_spec(spec: &str) -> Result<SloEngine, String> {
        Ok(SloEngine::new(parse_slo_spec(spec)?))
    }

    /// The parsed objectives.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, AlgoState>> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn epoch_now(&self) -> u64 {
        self.start.elapsed().as_secs() / SLOT_SECS
    }

    /// Records one finished request. `ok` is "reached `done`";
    /// latency is end-to-end (queue + run). No-op for algorithms
    /// without objectives.
    pub fn observe(&self, algo: &str, req: u64, latency_ns: u64, ok: bool) {
        let epoch = self.epoch_now();
        let mut g = self.lock();
        if let Some(st) = g.get_mut(algo) {
            st.observe(req, latency_ns, ok, epoch);
        }
    }

    /// The burn rate of `objective` over the trailing `window_secs`:
    /// observed violation fraction divided by the error budget. 0 with
    /// no traffic in the window.
    pub fn burn_rate(&self, objective: &Objective, window_secs: u64) -> f64 {
        let epoch = self.epoch_now();
        let g = self.lock();
        let Some(st) = g.get(&objective.algo) else {
            return 0.0;
        };
        let (total, over, errors) = st.window_counts(epoch, window_secs);
        if total == 0 {
            return 0.0;
        }
        let bad = match objective.kind {
            ObjectiveKind::Latency { .. } => over,
            ObjectiveKind::ErrorRate { .. } => errors,
        };
        (bad as f64 / total as f64) / objective.kind.budget()
    }

    /// Renders the `ecl_slo_*` Prometheus families (text exposition,
    /// exemplars in OpenMetrics syntax on the histogram buckets).
    pub fn render(&self, out: &mut String) {
        let mut algos: Vec<&str> = self.objectives.iter().map(|o| o.algo.as_str()).collect();
        algos.sort_unstable();
        algos.dedup();
        let mut exp = Exposition::new(out);

        {
            let mut requests = exp.counter(
                "ecl_slo_requests_total",
                "Requests observed by the SLO engine per outcome.",
            );
            let g = self.lock();
            for algo in &algos {
                let (ok, errors) = g.get(*algo).map_or((0, 0), |s| (s.ok, s.errors));
                requests.sample(&[("algo", algo), ("outcome", "ok")], ok);
                requests.sample(&[("algo", algo), ("outcome", "error")], errors);
            }
        }

        let mut budget =
            exp.gauge("ecl_slo_error_budget", "The violation fraction each objective allows.");
        for o in &self.objectives {
            budget.sample(&[("algo", &o.algo), ("objective", &o.kind.label())], o.kind.budget());
        }

        let mut burn = exp.gauge(
            "ecl_slo_burn_rate",
            "Budget burn rate per objective and trailing window (1.0 = consuming budget exactly at the sustainable rate).",
        );
        for o in &self.objectives {
            for (window, secs) in WINDOWS {
                burn.sample(
                    &[("algo", &o.algo), ("objective", &o.kind.label()), ("window", window)],
                    self.burn_rate(o, secs),
                );
            }
        }

        let mut latency = exp.histogram(
            "ecl_slo_latency_seconds",
            "End-to-end request latency for algorithms under an SLO; bucket exemplars carry the last req_id observed in each bucket.",
        );
        let g = self.lock();
        for algo in &algos {
            let Some(st) = g.get(*algo) else { continue };
            let labels = [("algo", *algo)];
            let mut cumulative = 0u64;
            for i in 0..=BUCKETS {
                cumulative += st.hist[i];
                let le = if i < BUCKETS {
                    format!("{}", (1u64 << i) as f64 * 1e-6)
                } else {
                    "+Inf".to_string()
                };
                let exemplar = st.exemplars[i].map(|(req, seconds)| (req.to_string(), seconds));
                let exemplar = exemplar.as_ref().map(|(req, s)| (("req_id", req.as_str()), *s));
                latency.bucket(&labels, &le, cumulative, exemplar);
            }
            latency.totals(&labels, st.sum_seconds, st.ok + st.errors);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readme_spec() {
        let objs = parse_slo_spec("cc:p99=5ms,err=0.1%;gc:p50=2ms").unwrap();
        assert_eq!(objs.len(), 3);
        assert_eq!(objs[0].algo, "cc");
        assert_eq!(objs[0].kind, ObjectiveKind::Latency { quantile: 0.99, target_ns: 5_000_000 });
        assert_eq!(objs[0].kind.label(), "p99");
        assert!((objs[0].kind.budget() - 0.01).abs() < 1e-12);
        assert_eq!(objs[1].kind, ObjectiveKind::ErrorRate { budget: 0.001 });
        assert_eq!(objs[2].algo, "gc");
        assert_eq!(objs[2].kind.label(), "p50");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "cc",
            "cc:",
            "cc:p99",
            "cc:p99=5",       // missing unit
            "cc:p99=5parsec", // unknown unit
            "cc:q99=5ms",     // unknown objective
            "cc:err=150%",    // out of range
            ":p99=5ms",       // empty algo
        ] {
            assert!(parse_slo_spec(bad).is_err(), "accepted {bad:?}");
        }
        // p999 parses as 0.999.
        let objs = parse_slo_spec("scc:p999=1s").unwrap();
        assert_eq!(
            objs[0].kind,
            ObjectiveKind::Latency { quantile: 0.999, target_ns: 1_000_000_000 }
        );
        assert_eq!(objs[0].kind.label(), "p999");
    }

    #[test]
    fn burn_rate_reflects_violations() {
        let eng = SloEngine::from_spec("cc:p99=1ms,err=10%").unwrap();
        // 100 requests: 2 over the 1ms target, 1 error.
        for i in 0..100u64 {
            let latency = if i < 2 { 2_000_000 } else { 500_000 };
            eng.observe("cc", i + 1, latency, i != 5);
        }
        let latency_obj = &eng.objectives()[0];
        let err_obj = &eng.objectives()[1];
        // 2% violations against a 1% budget → burn 2.0.
        assert!((eng.burn_rate(latency_obj, 60) - 2.0).abs() < 1e-9);
        // 1% errors against a 10% budget → burn 0.1.
        assert!((eng.burn_rate(err_obj, 60) - 0.1).abs() < 1e-9);
        // Untracked algos observe to nowhere.
        eng.observe("mst", 999, 1, true);
        assert!((eng.burn_rate(latency_obj, 60) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_emits_exemplars_and_finite_rates() {
        let eng = SloEngine::from_spec("cc:p99=5ms").unwrap();
        eng.observe("cc", 41, 100_000, true);
        eng.observe("cc", 42, 200_000, true);
        let mut text = String::new();
        eng.render(&mut text);
        assert!(text.contains("ecl_slo_burn_rate{algo=\"cc\",objective=\"p99\",window=\"1m\"}"));
        assert!(text.contains("# TYPE ecl_slo_latency_seconds histogram"));
        // The 100–200 µs exemplar carries the latest req id in that bucket.
        assert!(text.contains("# {req_id=\"42\"}"), "{text}");
        assert!(text.contains("ecl_slo_requests_total{algo=\"cc\",outcome=\"ok\"} 2"));
        for line in text.lines().filter(|l| l.starts_with("ecl_slo_burn_rate")) {
            let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert!(v.is_finite(), "{line}");
        }
    }

    #[test]
    fn two_observations_match_the_golden() {
        let eng = SloEngine::from_spec("cc:p99=5ms,err=1%").unwrap();
        eng.observe("cc", 7, 4_500_000, true);
        eng.observe("cc", 8, 9_000_000, false);
        let mut text = String::new();
        eng.render(&mut text);
        assert_eq!(text, include_str!("../tests/golden/slo_render.prom"));
    }

    #[test]
    fn no_traffic_means_zero_burn() {
        let eng = SloEngine::from_spec("cc:p99=5ms").unwrap();
        assert_eq!(eng.burn_rate(&eng.objectives()[0], 3600), 0.0);
    }
}
