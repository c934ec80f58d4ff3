//! The workspace's only Prometheus text-exposition writer, and the
//! lint that checks one.
//!
//! A sample can only be written through a family handle, and a handle
//! only comes from declaring the family on an [`Exposition`]
//! ([`counter`](Exposition::counter), [`gauge`](Exposition::gauge),
//! [`summary`](Exposition::summary), [`histogram`](Exposition::histogram)).
//! What strict scrapers reject therefore cannot be written: `# HELP`
//! and `# TYPE` precede a family's first sample and appear once, a
//! counter's name ends in `_total`, metric and label names stay inside
//! `[a-zA-Z0-9_]`, label values are escaped (`\\`, `\"`, `\n`), and
//! the `_bucket`/`_sum`/`_count` series only exist under a family of
//! the kind that owns them. [`lint_exposition`] states the same rules
//! from the reader's side; this module's unit test runs it over an
//! exposition that uses every shape.

use std::collections::{HashMap, HashSet};
use std::fmt::{Display, Write as _};

use crate::SketchSnapshot;

/// A label set: `(name, value)` pairs in output order.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// Appends `name` as a valid metric or label name: `[a-zA-Z0-9_]`,
/// everything else folded to `_`, and a leading digit (or nothing at
/// all) prefixed with `_`.
fn push_name(out: &mut String, name: &str) {
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.push('_');
    }
    out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }));
}

/// [`push_name`] into a fresh string — for a caller that builds a
/// family name out of a sanitized part.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    push_name(&mut out, name);
    out
}

/// Appends `text` with backslash and newline escaped — the `# HELP`
/// escaping — plus the double quote when `quoted` (a label value).
fn push_escaped(out: &mut String, text: &str, quoted: bool) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quoted => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

/// Appends `{a="x",b="y"}`; nothing for an empty set.
fn push_labels(out: &mut String, labels: Labels, extra: Option<(&str, &str)>) {
    let mut open = false;
    for (name, value) in labels.iter().copied().chain(extra) {
        out.push(if open { ',' } else { '{' });
        open = true;
        push_name(out, name);
        out.push_str("=\"");
        push_escaped(out, value, true);
        out.push('"');
    }
    if open {
        out.push('}');
    }
}

/// A Prometheus text exposition being appended to a `String`.
pub struct Exposition<'a> {
    out: &'a mut String,
    declared: HashSet<String>,
}

impl<'a> Exposition<'a> {
    /// A writer appending to `out`. Declarations are remembered per
    /// writer, so producers that append to one string in turn, each
    /// with its own writer, must keep their family names apart (the
    /// `ecl_serve_` / `ecl_slo_` prefixes).
    pub fn new(out: &'a mut String) -> Exposition<'a> {
        Exposition { out, declared: HashSet::new() }
    }

    /// Declares a counter family. `name` must end in `_total`.
    pub fn counter(&mut self, name: &str, help: &str) -> Family<'_> {
        assert!(name.ends_with("_total"), "counter {name} must end in _total");
        self.declare(name, "counter", help)
    }

    /// Declares a gauge family.
    pub fn gauge(&mut self, name: &str, help: &str) -> Family<'_> {
        self.declare(name, "gauge", help)
    }

    /// Declares a summary family (quantile series + `_sum` + `_count`).
    pub fn summary(&mut self, name: &str, help: &str) -> Summary<'_> {
        Summary(self.declare(name, "summary", help))
    }

    /// Declares a histogram family (`_bucket` + `_sum` + `_count`).
    pub fn histogram(&mut self, name: &str, help: &str) -> Histogram<'_> {
        Histogram(self.declare(name, "histogram", help))
    }

    /// Writes the family's metadata unless this exposition already
    /// declared the (sanitized) name: two inputs that sanitize to one
    /// name share the first declaration.
    fn declare(&mut self, name: &str, kind: &str, help: &str) -> Family<'_> {
        let name = sanitize(name);
        if self.declared.insert(name.clone()) {
            let _ = write!(self.out, "# HELP {name} ");
            push_escaped(self.out, help, false);
            let _ = writeln!(self.out, "\n# TYPE {name} {kind}");
        }
        Family { out: self.out, name }
    }
}

/// A declared counter or gauge family.
pub struct Family<'a> {
    out: &'a mut String,
    name: String,
}

impl Family<'_> {
    /// Writes `name{labels} value`.
    pub fn sample(&mut self, labels: Labels, value: impl Display) {
        self.line("", labels, None, value);
    }

    /// `name<suffix>{labels,extra} value`, without the line end (a
    /// histogram bucket may append an exemplar).
    fn start(
        &mut self,
        suffix: &str,
        labels: Labels,
        extra: Option<(&str, &str)>,
        v: impl Display,
    ) {
        self.out.push_str(&self.name);
        self.out.push_str(suffix);
        push_labels(self.out, labels, extra);
        let _ = write!(self.out, " {v}");
    }

    fn line(&mut self, suffix: &str, labels: Labels, extra: Option<(&str, &str)>, v: impl Display) {
        self.start(suffix, labels, extra, v);
        self.out.push('\n');
    }
}

/// A declared summary family.
pub struct Summary<'a>(Family<'a>);

impl Summary<'_> {
    /// Writes one sketch as `quantile="0.5|0.9|0.99"` series plus
    /// `_sum` and `_count`.
    pub fn sketch(&mut self, labels: Labels, s: &SketchSnapshot) {
        for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
            self.0.line("", labels, Some(("quantile", q)), v);
        }
        self.0.line("_sum", labels, None, s.sum);
        self.0.line("_count", labels, None, s.count);
    }
}

/// A declared histogram family.
pub struct Histogram<'a>(Family<'a>);

impl Histogram<'_> {
    /// Writes one cumulative bucket, `le` being its upper bound as
    /// text (`+Inf` for the last), with an optional OpenMetrics
    /// exemplar `# {name="value"} observation`.
    pub fn bucket(
        &mut self,
        labels: Labels,
        le: &str,
        cumulative: u64,
        exemplar: Option<((&str, &str), f64)>,
    ) {
        self.0.start("_bucket", labels, Some(("le", le)), cumulative);
        if let Some((label, observation)) = exemplar {
            self.0.out.push_str(" # ");
            push_labels(self.0.out, &[], Some(label));
            let _ = write!(self.0.out, " {observation}");
        }
        self.0.out.push('\n');
    }

    /// Writes the `_sum` and `_count` series that close one label
    /// set's buckets.
    pub fn totals(&mut self, labels: Labels, sum: f64, count: u64) {
        self.0.line("_sum", labels, None, sum);
        self.0.line("_count", labels, None, count);
    }
}

/// Consumes a `{name="value",…}` label set at the start of `s` and
/// returns what follows the closing brace.
fn label_set(s: &str) -> Result<&str, String> {
    let mut rest = s.strip_prefix('{').ok_or("label set does not start with '{'")?;
    if let Some(after) = rest.strip_prefix('}') {
        return Ok(after);
    }
    loop {
        let eq = rest.find('=').ok_or("label without '='")?;
        let name = &rest[..eq];
        if name != sanitize(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        rest = rest[eq + 1..].strip_prefix('"').ok_or("label value is not quoted")?;
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next() {
                None => return Err(format!("unterminated value of label {name}")),
                Some((i, '"')) => break i,
                Some((_, '\\')) if !matches!(chars.next(), Some((_, '\\' | '"' | 'n'))) => {
                    return Err(format!("bad escape in value of label {name}"));
                }
                Some(_) => {}
            }
        };
        rest = &rest[end + 1..];
        match rest.strip_prefix(',') {
            Some(next) => rest = next,
            None => {
                return rest
                    .strip_prefix('}')
                    .ok_or_else(|| format!("expected ',' or '}}' after value of label {name}"));
            }
        }
    }
}

/// A `std`-only Prometheus exposition-format hygiene lint. Returns one
/// message per violation (empty = clean).
///
/// Checks, per metric *family* (the base name with `_bucket`/`_sum`/
/// `_count` suffixes folded in for histograms and summaries):
///
/// * `# HELP` and `# TYPE` are both present and appear before the
///   first sample of the family, each exactly once;
/// * the `TYPE` is one of `counter`/`gauge`/`summary`/`histogram`;
/// * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// * `counter` family names end in `_total`;
/// * a label set (the sample's, and an OpenMetrics `# {…}` exemplar's)
///   is comma-separated `name="value"` pairs between balanced braces,
///   values escaped as `\\`, `\"`, `\n`;
/// * sample and exemplar values parse as floats.
pub fn lint_exposition(text: &str) -> Vec<String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else { return false };
        (first.is_ascii_alphabetic() || first == '_' || first == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Folds summary/histogram machine-suffixed series into their
    /// family name so `x_bucket` samples match `# TYPE x histogram`.
    fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if matches!(types.get(base).map(String::as_str), Some("summary" | "histogram")) {
                    return base;
                }
            }
        }
        name
    }

    /// Consumes `[{labels}] value` and returns what follows the value.
    fn labels_then_value(s: &str) -> Result<&str, String> {
        let rest = if s.starts_with('{') { label_set(s)? } else { s };
        let rest = rest.strip_prefix(' ').ok_or("no space before the value")?;
        let (value, tail) = rest.split_at(rest.find(' ').unwrap_or(rest.len()));
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("sample value {value:?} does not parse"));
        }
        Ok(tail)
    }

    let mut problems = Vec::new();
    let mut help: HashSet<String> = HashSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut sampled: HashSet<String> = HashSet::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some((name, _)) = rest.split_once(' ') else {
                problems.push(format!("line {n}: HELP without help text"));
                continue;
            };
            if !help.insert(name.to_string()) {
                problems.push(format!("line {n}: duplicate HELP for {name}"));
            }
            if sampled.contains(name) {
                problems.push(format!("line {n}: HELP for {name} after its first sample"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let Some((name, kind)) = rest.split_once(' ') else {
                problems.push(format!("line {n}: TYPE without a kind"));
                continue;
            };
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                problems.push(format!("line {n}: unknown TYPE {kind:?} for {name}"));
            }
            if kind == "counter" && !name.ends_with("_total") {
                problems.push(format!("line {n}: counter {name} does not end in _total"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                problems.push(format!("line {n}: duplicate TYPE for {name}"));
            }
            if sampled.contains(name) {
                problems.push(format!("line {n}: TYPE for {name} after its first sample"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // A sample: `name[{labels}] value[ # {exemplar} value]`.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_name(name) {
            problems.push(format!("line {n}: invalid metric name {name:?}"));
            continue;
        }
        let checked = labels_then_value(&line[name_end..]).and_then(|tail| {
            let tail = match tail.strip_prefix(" # ") {
                Some(exemplar) => {
                    labels_then_value(exemplar).map_err(|e| format!("exemplar: {e}"))?
                }
                None => tail,
            };
            if tail.is_empty() {
                Ok(())
            } else {
                Err(format!("unexpected text {tail:?} after the value"))
            }
        });
        if let Err(problem) = checked {
            problems.push(format!("line {n}: {problem}"));
        }
        let family = family_of(name, &types).to_string();
        if !help.contains(&family) {
            problems.push(format!("line {n}: sample {name} has no preceding HELP for {family}"));
        }
        if !types.contains_key(&family) {
            problems.push(format!("line {n}: sample {name} has no preceding TYPE for {family}"));
        }
        sampled.insert(family);
    }
    problems.sort();
    problems.dedup();
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogSketch;

    #[test]
    fn every_shape_passes_the_lint() {
        let sketch = LogSketch::new();
        sketch.record_values(&[5, 9, 1000]);
        let hostile = "a\"b\\c\nd # {x}";

        let mut text = String::new();
        let mut exp = Exposition::new(&mut text);
        exp.counter("jobs_total", "Jobs.").sample(&[], 3u64);
        exp.gauge("ratio", "A \\ and a\nnewline.").sample(&[("algo", hostile)], 0.5);
        exp.gauge("9 lives/x", "Sanitized name.").sample(&[("9 key", "v")], "7");
        exp.gauge("_9_lives_x", "Second declaration of one name.").sample(&[], 8);
        exp.summary("wall_ns", "Wall.").sketch(&[("kernel", hostile)], &sketch.snapshot());
        exp.summary("bare_ns", "No labels.").sketch(&[], &sketch.snapshot());
        let mut h = exp.histogram("latency_seconds", "Latency.");
        h.bucket(&[("algo", hostile)], "0.001", 1, Some((("req_id", "7"), 0.0005)));
        h.bucket(&[("algo", hostile)], "+Inf", 2, None);
        h.totals(&[("algo", hostile)], 2.0005, 2);

        let problems = lint_exposition(&text);
        assert!(problems.is_empty(), "{}\n{text}", problems.join("\n"));
        for line in [
            "# HELP ratio A \\\\ and a\\nnewline.",
            "jobs_total 3",
            "ratio{algo=\"a\\\"b\\\\c\\nd # {x}\"} 0.5",
            "_9_lives_x{_9_key=\"v\"} 7",
            "_9_lives_x 8",
            "bare_ns{quantile=\"0.99\"} 1000",
            "bare_ns_count 3",
            "latency_seconds_bucket{algo=\"a\\\"b\\\\c\\nd # {x}\",le=\"0.001\"} 1 # {req_id=\"7\"} 0.0005",
            "latency_seconds_bucket{algo=\"a\\\"b\\\\c\\nd # {x}\",le=\"+Inf\"} 2",
        ] {
            assert!(text.lines().any(|l| l == line), "missing line {line:?} in:\n{text}");
        }
        assert_eq!(text.matches("# TYPE _9_lives_x gauge").count(), 1);
    }

    #[test]
    #[should_panic(expected = "must end in _total")]
    fn a_counter_without_total_is_a_bug() {
        let mut text = String::new();
        Exposition::new(&mut text).counter("jobs", "Jobs.");
    }
}
