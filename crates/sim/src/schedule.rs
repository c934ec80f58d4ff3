//! Unified, serializable scheduling knobs.
//!
//! The paper derives its three optimizations (ECL-CC first-neighbor
//! init §6.2.2, ECL-SCC block size §6.2.1, ECL-MST launch config
//! §6.2.3) by hand from profiles. Each of those decisions is a point
//! in a small discrete space: `LaunchConfig` block sizes inside
//! algorithm configs and per-algorithm toggles. A [`Schedule`] collects
//! one assignment of them into a single serializable value. Which knobs
//! exist and which values each may take is declared as a [`KnobSpec`]
//! table, one per algorithm, next to the `apply_schedule` that consumes
//! it (`ecl_cc::KNOBS`, …). A table is the search space `ecl-tune`
//! sweeps and the schema its manifests are validated against; this
//! crate never names an algorithm.
//!
//! A schedule holds only choices that change the modeled kernels. How
//! blocks map onto host threads is not one of them: that is the
//! caller's [`crate::pool::DispatchPolicy`]. It is not cost-neutral —
//! CAS failures and block-local iteration counts depend on the
//! interleaving — which is why the tuner's objective, and every
//! bit-for-bit modeled-time comparison, is taken under one worker.
//!
//! Serialization is canonical: knobs are kept sorted by name and
//! rendered deterministically, so `to_json` → [`Schedule::from_json`] →
//! `to_json` is a fixpoint and schedules can be compared as strings.

use ecl_profiling::json::{self, Value};

/// One knob's value. Integers and floats are kept distinct so
/// serialization is exact, but the typed accessors coerce (an `Int` is
/// a valid `f64` knob), matching how JSON readers see the file.
#[derive(Clone, Debug, PartialEq)]
pub enum KnobValue {
    /// Boolean toggle.
    Bool(bool),
    /// Integer-valued knob (block sizes, bins, salts, counts).
    Int(i64),
    /// Real-valued knob (fractions).
    Float(f64),
    /// Enumerated string knob (priority policy).
    Str(String),
}

impl KnobValue {
    fn to_json(&self) -> String {
        match self {
            KnobValue::Bool(b) => b.to_string(),
            KnobValue::Int(i) => i.to_string(),
            KnobValue::Float(f) => json::num(*f),
            KnobValue::Str(s) => format!("\"{}\"", json::escape(s)),
        }
    }
}

/// The set of values a knob may take. Domains are small and discrete
/// by design: every value is something a person could plausibly write
/// in a config, and exhaustive search over a whole algorithm's space
/// stays tractable.
#[derive(Clone, Copy, Debug)]
pub enum KnobDomain {
    /// `false` / `true`.
    Bool,
    /// An explicit list of integers.
    Ints(&'static [i64]),
    /// An explicit list of reals.
    Floats(&'static [f64]),
    /// An explicit list of strings.
    Choice(&'static [&'static str]),
}

impl KnobDomain {
    /// Number of admissible values.
    pub fn len(&self) -> usize {
        match self {
            KnobDomain::Bool => 2,
            KnobDomain::Ints(v) => v.len(),
            KnobDomain::Floats(v) => v.len(),
            KnobDomain::Choice(v) => v.len(),
        }
    }

    /// Whether the domain is empty (never, for registry entries).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th admissible value.
    pub fn value(&self, i: usize) -> KnobValue {
        match self {
            KnobDomain::Bool => KnobValue::Bool(i != 0),
            KnobDomain::Ints(v) => KnobValue::Int(v[i]),
            KnobDomain::Floats(v) => KnobValue::Float(v[i]),
            KnobDomain::Choice(v) => KnobValue::Str(v[i].to_string()),
        }
    }

    /// All admissible values, index-ordered.
    pub fn values(&self) -> Vec<KnobValue> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Whether `v` is one of the admissible values (with `Int`/`Float`
    /// coercion, mirroring what a JSON reader can distinguish).
    pub fn admits(&self, v: &KnobValue) -> bool {
        match (self, v) {
            (KnobDomain::Bool, KnobValue::Bool(_)) => true,
            (KnobDomain::Ints(d), KnobValue::Int(x)) => d.contains(x),
            (KnobDomain::Floats(d), KnobValue::Float(x)) => {
                d.iter().any(|f| f.to_bits() == x.to_bits())
            }
            (KnobDomain::Floats(d), KnobValue::Int(x)) => d.contains(&(*x as f64)),
            (KnobDomain::Choice(d), KnobValue::Str(s)) => d.contains(&s.as_str()),
            _ => false,
        }
    }
}

/// One knob's declaration: its name, admissible values, and default.
#[derive(Clone, Copy, Debug)]
pub struct KnobSpec {
    /// Stable knob name (the JSON key).
    pub name: &'static str,
    /// Admissible values.
    pub domain: KnobDomain,
    /// Index of the default value in the domain.
    pub default_ix: usize,
}

impl KnobSpec {
    /// The default value.
    pub fn default_value(&self) -> KnobValue {
        self.domain.value(self.default_ix)
    }
}

/// The block sizes a `block_size` knob may take (the Table 6 sweep).
pub const BLOCK_SIZES: &[i64] = &[64, 128, 256, 512, 1024];

/// The declaration of knob `name` in an algorithm's knob table `knobs`.
pub fn find_knob<'a>(knobs: &'a [KnobSpec], name: &str) -> Option<&'a KnobSpec> {
    knobs.iter().find(|spec| spec.name == name)
}

/// The default schedule of an algorithm whose knob table is `knobs`:
/// every declared knob at its default value. Applying it reproduces
/// the untuned configuration.
pub fn default_schedule(knobs: &[KnobSpec]) -> Schedule {
    let mut s = Schedule::new();
    for spec in knobs {
        s.set(spec.name, spec.default_value());
    }
    s
}

/// One complete assignment of scheduling knobs: a sorted
/// name → value map with canonical JSON round-tripping.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Schedule {
    /// Sorted by name; unique names.
    knobs: Vec<(String, KnobValue)>,
}

impl Schedule {
    /// An empty schedule (applies nothing).
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Sets `name` to `value`, replacing an existing assignment.
    pub fn set(&mut self, name: &str, value: KnobValue) {
        match self.knobs.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.knobs[i].1 = value,
            Err(i) => self.knobs.insert(i, (name.to_string(), value)),
        }
    }

    /// Builder form of [`Schedule::set`].
    pub fn with(mut self, name: &str, value: KnobValue) -> Schedule {
        self.set(name, value);
        self
    }

    /// The raw value of `name`.
    pub fn get(&self, name: &str) -> Option<&KnobValue> {
        self.knobs.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| &self.knobs[i].1)
    }

    /// All assignments, name-sorted.
    pub fn knobs(&self) -> &[(String, KnobValue)] {
        &self.knobs
    }

    /// Number of assigned knobs.
    pub fn len(&self) -> usize {
        self.knobs.len()
    }

    /// Whether no knobs are assigned.
    pub fn is_empty(&self) -> bool {
        self.knobs.is_empty()
    }

    /// Boolean knob accessor.
    pub fn bool_knob(&self, name: &str) -> Option<bool> {
        match self.get(name)? {
            KnobValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer knob accessor.
    pub fn int_knob(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            KnobValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Real knob accessor (accepts `Int` values: JSON cannot tell
    /// `1` from `1.0`).
    pub fn float_knob(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            KnobValue::Float(f) => Some(*f),
            KnobValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String knob accessor.
    pub fn str_knob(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            KnobValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Checks every assignment against an algorithm's knob table
    /// `knobs` (see [`find_knob`]): unknown knobs and out-of-domain
    /// values are errors. The manifest validator calls this so a
    /// hand-edited schedule cannot smuggle in a value the search space
    /// does not admit.
    pub fn check_against_registry(&self, knobs: &[KnobSpec]) -> Result<(), String> {
        for (name, value) in &self.knobs {
            let spec = find_knob(knobs, name).ok_or_else(|| format!("unknown knob {name:?}"))?;
            if !spec.domain.admits(value) {
                return Err(format!("knob {name:?} value {} outside its domain", value.to_json()));
            }
        }
        Ok(())
    }

    /// Canonical single-line JSON object, keys sorted.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .knobs
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json::escape(n), v.to_json()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parses a schedule from a JSON object string.
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// [`Schedule::from_json`] over an already-parsed [`Value`].
    /// Values are not checked against any table here (the parser does
    /// not know the algorithm); loaders that do — the tune manifest —
    /// follow up with [`Schedule::check_against_registry`].
    pub fn from_value(v: &Value) -> Result<Schedule, String> {
        let Value::Obj(members) = v else {
            return Err("schedule must be a JSON object".to_string());
        };
        let mut s = Schedule::new();
        for (name, value) in members {
            let kv = match value {
                Value::Bool(b) => KnobValue::Bool(*b),
                Value::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => KnobValue::Int(*x as i64),
                Value::Num(x) => KnobValue::Float(*x),
                Value::Str(text) => KnobValue::Str(text.clone()),
                other => {
                    return Err(format!("knob {name:?} has non-scalar value {other:?}"));
                }
            };
            s.set(name, kv);
        }
        Ok(s)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// A stand-in algorithm table covering every domain kind.
    const KNOBS: [KnobSpec; 4] = [
        KnobSpec { name: "block_size", domain: KnobDomain::Ints(BLOCK_SIZES), default_ix: 3 },
        KnobSpec { name: "unroll", domain: KnobDomain::Bool, default_ix: 0 },
        KnobSpec {
            name: "fraction",
            domain: KnobDomain::Floats(&[0.25, 0.5, 0.75]),
            default_ix: 1,
        },
        KnobSpec { name: "policy", domain: KnobDomain::Choice(&["greedy", "lazy"]), default_ix: 0 },
    ];

    #[test]
    fn default_schedule_covers_exactly_the_declared_knobs() {
        let s = default_schedule(&KNOBS);
        assert_eq!(s.len(), KNOBS.len());
        assert_eq!(s.int_knob("block_size"), Some(512));
        assert_eq!(s.bool_knob("unroll"), Some(false));
        assert_eq!(s.float_knob("fraction"), Some(0.5));
        assert_eq!(s.str_knob("policy"), Some("greedy"));
        assert!(s.check_against_registry(&KNOBS).is_ok());
        for spec in &KNOBS {
            assert!(spec.domain.admits(&spec.default_value()), "{}", spec.name);
        }
        assert!(default_schedule(&[]).is_empty());
    }

    #[test]
    fn json_roundtrip_is_canonical() {
        let s = default_schedule(&KNOBS);
        let j = s.to_json();
        let back = Schedule::from_json(&j).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), j, "canonical fixpoint");
        // Floats survive exactly.
        let s = Schedule::new().with("fraction", KnobValue::Float(0.25));
        let back = Schedule::from_json(&s.to_json()).unwrap();
        assert_eq!(back.float_knob("fraction"), Some(0.25));
    }

    #[test]
    fn set_replaces_and_sorts() {
        let mut s = Schedule::new();
        s.set("b", KnobValue::Int(1));
        s.set("a", KnobValue::Int(2));
        s.set("b", KnobValue::Int(3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.knobs()[0].0, "a");
        assert_eq!(s.int_knob("b"), Some(3));
        assert_eq!(s.to_json(), "{\"a\": 2, \"b\": 3}");
    }

    #[test]
    fn registry_rejects_out_of_domain() {
        let bad = Schedule::new().with("block_size", KnobValue::Int(333));
        assert!(bad.check_against_registry(&KNOBS).unwrap_err().contains("block_size"));
        let unknown = Schedule::new().with("warp_width", KnobValue::Int(32));
        assert!(unknown.check_against_registry(&KNOBS).unwrap_err().contains("warp_width"));
        let ok = Schedule::new().with("block_size", KnobValue::Int(128));
        assert!(ok.check_against_registry(&KNOBS).is_ok());
        // Host dispatch is no knob: naming it is an unknown-knob error.
        for knob in ["dispatch", "workers", "grain"] {
            let s = Schedule::new().with(knob, KnobValue::Int(1));
            let err = s.check_against_registry(&KNOBS).unwrap_err();
            assert_eq!(err, format!("unknown knob {knob:?}"));
        }
    }

    #[test]
    fn string_outside_its_domain_is_rejected_by_the_table() {
        // Parsing alone cannot know the table; the check does.
        let bad = Schedule::from_json("{\"policy\": \"random\"}").unwrap();
        assert!(bad.check_against_registry(&KNOBS).unwrap_err().contains("policy"));
    }
}
