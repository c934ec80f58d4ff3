//! The versioned `ecl-tune/1` schedule manifest.
//!
//! A manifest is the autotuner's durable output: one entry per
//! (algorithm, tuned input), keyed by the input's *family fingerprint*
//! so consumers (`ecl-run --tuned`, the serve catalog) can match
//! graphs the sweep never saw. Each entry carries full search
//! provenance — method, evaluation count, space size, an evaluation
//! -time sketch — plus the default and tuned modeled times, so a
//! reader can audit exactly how much a schedule is worth and
//! regenerate the comparison.

use std::fmt::Write as _;

use ecl_gpusim::schedule::KnobSpec;
use ecl_gpusim::Schedule;
use ecl_graph::Fingerprint;
use ecl_prof::manifest::git_sha;
use ecl_profiling::json::{self, Value};
use ecl_profiling::SketchSnapshot;

/// Manifest schema identifier. Bump on breaking layout changes;
/// consumers refuse mismatched schemas.
pub const SCHEMA: &str = "ecl-tune/1";

/// One tuned (algorithm, input) record.
#[derive(Clone, Debug)]
pub struct TuneEntry {
    /// Algorithm wire name (`cc`, `gc`, `mis`, `mst`, `scc`).
    pub algo: String,
    /// Registry input the schedule was tuned on.
    pub input: String,
    /// Family bucket key (`Fingerprint::family_key`).
    pub family: String,
    /// Full fingerprint of the tuning input.
    pub fingerprint: Fingerprint,
    /// Generation scale.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Search method (`exhaustive` / `coordinate_descent`).
    pub method: String,
    /// Distinct candidates evaluated.
    pub evaluations: u64,
    /// Searchable-space size (domain product).
    pub space: u64,
    /// Modeled time of the default schedule.
    pub default_time: f64,
    /// Modeled time of the winning schedule.
    pub tuned_time: f64,
    /// Sketch over all candidate evaluation times (cost units).
    pub eval_sketch: SketchSnapshot,
    /// The winning schedule.
    pub schedule: Schedule,
}

impl TuneEntry {
    /// Tuned-over-default improvement ratio (1.0 = no gain).
    pub fn speedup(&self) -> f64 {
        if self.tuned_time > 0.0 {
            self.default_time / self.tuned_time
        } else {
            1.0
        }
    }
}

/// A complete schedule manifest.
#[derive(Clone, Debug)]
pub struct TuneManifest {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Git SHA of the producing tree.
    pub git_sha: String,
    /// Tuned entries, sweep order.
    pub entries: Vec<TuneEntry>,
}

/// The knob table of the algorithm called `algo`; an algorithm outside
/// the registry has none, so any knob it names is unknown.
pub fn knobs_of(algo: &str) -> &'static [KnobSpec] {
    ecl_algos::find(algo).map_or(&[], |a| a.knobs())
}

/// Checks an entry's identity and schedule: a registered algorithm, a
/// named input, and a schedule inside its algorithm's knob table (no
/// unknown knob, no value — a string included — outside its domain).
fn check_entry(algo: &str, input: &str, schedule: &Schedule) -> Result<(), String> {
    let Some(registered) = ecl_algos::find(algo) else {
        return Err(format!("unknown algorithm {algo:?}"));
    };
    if input.is_empty() {
        return Err(format!("{algo}: input missing or empty"));
    }
    schedule
        .check_against_registry(registered.knobs())
        .map_err(|err| format!("{algo}/{input}: {err}"))
}

fn sketch_json(s: &SketchSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
        s.count, s.min, s.max, s.p50, s.p90, s.p99
    )
}

fn sketch_from_value(v: &Value) -> SketchSnapshot {
    let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    SketchSnapshot {
        count: field("count"),
        sum: 0,
        min: field("min"),
        max: field("max"),
        p50: field("p50"),
        p90: field("p90"),
        p99: field("p99"),
        buckets: Vec::new(),
    }
}

impl TuneManifest {
    /// A fresh manifest stamped with the current git SHA.
    pub fn new(entries: Vec<TuneEntry>) -> TuneManifest {
        TuneManifest { schema: SCHEMA.to_string(), git_sha: git_sha(), entries }
    }

    /// The best entry for `(algo, family)`: exact family-key match,
    /// highest speedup wins among several tuning representatives.
    pub fn lookup(&self, algo: &str, family: &str) -> Option<&TuneEntry> {
        self.entries.iter().filter(|e| e.algo == algo && e.family == family).max_by(|a, b| {
            a.speedup().partial_cmp(&b.speedup()).unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Structural and semantic validation: schema string, registered
    /// algorithms, named inputs, schedules inside their registry
    /// domains, and tuned time never worse than default (the search
    /// always evaluates the default, so a violating entry is corrupt or
    /// hand-edited).
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema {:?}, expected {SCHEMA:?}", self.schema));
        }
        for e in &self.entries {
            let tag = format!("{}/{}", e.algo, e.input);
            check_entry(&e.algo, &e.input, &e.schedule)?;
            // NaN on either side also fails: partial_cmp yields None.
            let ok = matches!(
                e.tuned_time.partial_cmp(&e.default_time),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            if !ok {
                return Err(format!(
                    "{tag}: tuned_time {} worse than default_time {}",
                    e.tuned_time, e.default_time
                ));
            }
            if e.evaluations == 0 {
                return Err(format!("{tag}: zero evaluations recorded"));
            }
        }
        Ok(())
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{}\",", json::escape(&self.schema));
        let _ = writeln!(s, "  \"git_sha\": \"{}\",", json::escape(&self.git_sha));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let f = &e.fingerprint;
            let _ = writeln!(
                s,
                "    {{\n      \"algo\": \"{}\", \"input\": \"{}\",\n      \
                 \"family\": \"{}\",\n      \
                 \"fingerprint\": {{\"vertices\": {}, \"arcs\": {}, \"directed\": {}, \
                 \"d_avg\": {}, \"d_max\": {}, \"degree_cv\": {}, \"skew\": {}, \
                 \"pseudo_diameter\": {}}},\n      \
                 \"scale\": {}, \"seed\": {},\n      \
                 \"search\": {{\"method\": \"{}\", \"evaluations\": {}, \"space\": {}, \
                 \"eval_units\": {}}},\n      \
                 \"default_time\": {}, \"tuned_time\": {},\n      \
                 \"schedule\": {}\n    }}{}",
                json::escape(&e.algo),
                json::escape(&e.input),
                json::escape(&e.family),
                f.vertices,
                f.arcs,
                f.directed,
                json::num(f.d_avg),
                f.d_max,
                json::num(f.degree_cv),
                json::num(f.skew),
                f.pseudo_diameter,
                json::num(e.scale),
                e.seed,
                json::escape(&e.method),
                e.evaluations,
                e.space,
                sketch_json(&e.eval_sketch),
                json::num(e.default_time),
                json::num(e.tuned_time),
                e.schedule.to_json(),
                if i + 1 < self.entries.len() { "," } else { "" }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<TuneManifest, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// [`TuneManifest::from_json`] over an already-parsed [`Value`].
    /// An unregistered algorithm, an empty input, a missing or
    /// non-finite time and a schedule outside its algorithm's knob
    /// domains are rejected here, on load, so no consumer ever
    /// applies such an entry.
    pub fn from_value(v: &Value) -> Result<TuneManifest, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("not an ecl-tune manifest: no \"schema\" field")?
            .to_string();
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let git_sha = v.get("git_sha").and_then(Value::as_str).unwrap_or("unknown").to_string();
        let mut entries = Vec::new();
        for e in v.get("entries").and_then(Value::as_arr).unwrap_or(&[]) {
            let text = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            let num = |k: &str| e.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let (algo, input) = (text("algo"), text("input"));
            let fp = e.get("fingerprint").cloned().unwrap_or(Value::Null);
            let fnum = |k: &str| fp.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let search = e.get("search").cloned().unwrap_or(Value::Null);
            let schedule = e
                .get("schedule")
                .map(Schedule::from_value)
                .transpose()?
                .ok_or("entry missing \"schedule\"")?;
            check_entry(&algo, &input, &schedule)?;
            let time = |k: &str| {
                e.get(k)
                    .and_then(Value::as_f64)
                    .filter(|t| t.is_finite())
                    .ok_or_else(|| format!("{algo}/{input}: {k} missing or not a finite number"))
            };
            let (default_time, tuned_time) = (time("default_time")?, time("tuned_time")?);
            entries.push(TuneEntry {
                algo,
                input,
                family: text("family"),
                fingerprint: Fingerprint {
                    vertices: fnum("vertices") as usize,
                    arcs: fnum("arcs") as usize,
                    directed: matches!(fp.get("directed"), Some(Value::Bool(true))),
                    d_avg: fnum("d_avg"),
                    d_max: fnum("d_max") as usize,
                    degree_cv: fnum("degree_cv"),
                    skew: fnum("skew"),
                    pseudo_diameter: fnum("pseudo_diameter") as usize,
                },
                scale: num("scale"),
                seed: num("seed") as u64,
                method: search.get("method").and_then(Value::as_str).unwrap_or("").to_string(),
                evaluations: search.get("evaluations").and_then(Value::as_f64).unwrap_or(0.0)
                    as u64,
                space: search.get("space").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                default_time,
                tuned_time,
                eval_sketch: search.get("eval_units").map(sketch_from_value).unwrap_or_else(|| {
                    SketchSnapshot {
                        count: 0,
                        sum: 0,
                        min: 0,
                        max: 0,
                        p50: 0,
                        p90: 0,
                        p99: 0,
                        buckets: Vec::new(),
                    }
                }),
                schedule,
            });
        }
        Ok(TuneManifest { schema, git_sha, entries })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::schedule::KnobValue;

    fn scc_defaults() -> Schedule {
        ecl_algos::find("scc").unwrap().default_schedule()
    }

    fn entry() -> TuneEntry {
        let sketch = ecl_profiling::LogSketch::new();
        sketch.record_values(&[100, 120, 90]);
        TuneEntry {
            algo: "scc".into(),
            input: "klein-bottle".into(),
            family: "skew=uniform;diam=mid;directed=true".into(),
            fingerprint: Fingerprint {
                vertices: 1000,
                arcs: 4000,
                directed: true,
                d_avg: 4.0,
                d_max: 4,
                degree_cv: 0.01,
                skew: 1.0,
                pseudo_diameter: 60,
            },
            scale: 0.002,
            seed: 7,
            method: "exhaustive".into(),
            evaluations: 10,
            space: 10,
            default_time: 250.0,
            tuned_time: 200.0,
            eval_sketch: sketch.snapshot(),
            schedule: scc_defaults().with("block_size", KnobValue::Int(128)),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = TuneManifest::new(vec![entry()]);
        let back = TuneManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.entries.len(), 1);
        let (a, b) = (&m.entries[0], &back.entries[0]);
        assert_eq!(a.algo, b.algo);
        assert_eq!(a.family, b.family);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.default_time.to_bits(), b.default_time.to_bits());
        assert_eq!(a.tuned_time.to_bits(), b.tuned_time.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.eval_sketch.p50, b.eval_sketch.p50);
        assert_eq!(a.method, b.method);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let good = TuneManifest::new(vec![entry()]);
        good.validate().unwrap();

        let mut worse = good.clone();
        worse.entries[0].tuned_time = 300.0;
        assert!(worse.validate().unwrap_err().contains("worse"));

        let mut out_of_domain = good.clone();
        out_of_domain.entries[0].schedule.set("block_size", KnobValue::Int(333));
        assert!(out_of_domain.validate().is_err());

        let mut bad_schema = good.clone();
        bad_schema.schema = "ecl-tune/99".into();
        assert!(bad_schema.validate().is_err());

        // A missing or non-numeric time would load as 0.0 and make
        // "tuned <= default" hold trivially; each such document fails
        // to load with one line naming the entry and the field.
        let text = good.to_json();
        let times = "\"default_time\": 250, \"tuned_time\": 200";
        let named = "\"algo\": \"scc\", \"input\": \"klein-bottle\"";
        assert!(text.contains(times) && text.contains(named), "{text}");
        for (from, to, want) in [
            (
                times,
                "\"default_time\": 250, \"tuned_time\": \"fast\"",
                "scc/klein-bottle: tuned_time missing or not a finite number",
            ),
            (
                times,
                "\"default_time\": 250",
                "scc/klein-bottle: tuned_time missing or not a finite number",
            ),
            (named, "\"algo\": \"zz\", \"input\": \"\"", "unknown algorithm \"zz\""),
            (named, "\"algo\": \"scc\", \"input\": \"\"", "scc: input missing or empty"),
        ] {
            assert_eq!(TuneManifest::from_json(&text.replace(from, to)).unwrap_err(), want);
        }
        let mut unregistered = good;
        unregistered.entries[0].algo = "zz".into();
        assert_eq!(unregistered.validate().unwrap_err(), "unknown algorithm \"zz\"");
    }

    #[test]
    fn out_of_domain_schedule_refused_at_parse() {
        let good = TuneManifest::new(vec![entry()]).to_json();
        assert!(TuneManifest::from_json(&good).is_ok());
        // An undeclared knob is a load error — host dispatch included:
        // manifests written while `dispatch` was a knob do not load.
        let dispatch = good.replace("{\"block_size\"", "{\"dispatch\": \"pool\", \"block_size\"");
        assert_ne!(dispatch, good);
        let err = TuneManifest::from_json(&dispatch).unwrap_err();
        assert_eq!(err, "scc/klein-bottle: unknown knob \"dispatch\"");
        let unknown = good.replace("\"trim\"", "\"warp_width\"");
        assert!(TuneManifest::from_json(&unknown).unwrap_err().contains("warp_width"));
    }

    #[test]
    fn wrong_schema_refused_at_parse() {
        let text = TuneManifest::new(vec![]).to_json().replace(SCHEMA, "ecl-prof/1");
        assert!(TuneManifest::from_json(&text).is_err());
    }

    #[test]
    fn lookup_picks_best_speedup_in_family() {
        let mut a = entry();
        let mut b = entry();
        a.input = "slow-rep".into();
        a.tuned_time = 240.0;
        b.input = "fast-rep".into();
        b.tuned_time = 125.0;
        let m = TuneManifest::new(vec![a, b]);
        let hit = m.lookup("scc", "skew=uniform;diam=mid;directed=true").unwrap();
        assert_eq!(hit.input, "fast-rep");
        assert!(m.lookup("cc", "skew=uniform;diam=mid;directed=true").is_none());
        assert!(m.lookup("scc", "skew=powerlaw;diam=low;directed=false").is_none());
    }

    #[test]
    fn speedup_is_default_over_tuned() {
        assert!((entry().speedup() - 1.25).abs() < 1e-12);
    }
}
