//! Minimal JSON reading and writing.
//!
//! The workspace is offline and carries no serde; schedules,
//! manifests, benchmark reports and HTTP bodies must be *read* back,
//! so this module carries a small recursive-descent parser plus the
//! escape helper every JSON writer in the workspace shares.
//! It accepts strict JSON; numbers are parsed as `f64` (every numeric
//! field the gate compares is either an f64 already or a counter well
//! inside f64's exact-integer range).
//!
//! The parser also reads untrusted input (`ecl-serve` feeds it HTTP
//! bodies), so it is bounded: nesting deeper than [`MAX_DEPTH`] is an
//! error, never a stack overflow, and parsing is linear in the input
//! length.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind this value, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string behind this value, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Flattens every numeric leaf into `path -> samples`: a scalar
    /// number becomes a one-sample series, an all-numeric array
    /// becomes a sample vector (run repeats), and nesting joins path
    /// segments with `/`. Array elements that are objects recurse with
    /// their index in the path.
    pub fn numeric_leaves(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out = BTreeMap::new();
        self.collect_leaves("", &mut out);
        out
    }

    fn collect_leaves(&self, path: &str, out: &mut BTreeMap<String, Vec<f64>>) {
        match self {
            Value::Num(n) => {
                out.insert(path.to_string(), vec![*n]);
            }
            Value::Arr(items) => {
                if !items.is_empty() && items.iter().all(|v| matches!(v, Value::Num(_))) {
                    out.insert(path.to_string(), items.iter().filter_map(Value::as_f64).collect());
                } else {
                    for (i, item) in items.iter().enumerate() {
                        // Prefer a "name" member over the positional
                        // index so reordered entries still align.
                        let seg = item
                            .get("name")
                            .and_then(Value::as_str)
                            .map(String::from)
                            .or_else(|| {
                                item.get("algo").and_then(Value::as_str).map(|a| {
                                    let input =
                                        item.get("input").and_then(Value::as_str).unwrap_or("");
                                    format!("{a}:{input}")
                                })
                            })
                            .unwrap_or_else(|| i.to_string());
                        item.collect_leaves(&join(path, &seg), out);
                    }
                }
            }
            Value::Obj(members) => {
                for (k, v) in members {
                    v.collect_leaves(&join(path, k), out);
                }
            }
            _ => {}
        }
    }
}

fn join(path: &str, seg: &str) -> String {
    if path.is_empty() {
        seg.to_string()
    } else {
        format!("{path}/{seg}")
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as JSON: integers without a fraction, everything
/// else with enough digits to round-trip; non-finite values (which
/// JSON cannot carry) as 0.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Deepest array/object nesting [`parse`] accepts. The descent is
/// recursive, so an unbounded document (`"[".repeat(60_000)`) would
/// overflow the stack and abort the process; no document this
/// workspace writes nests deeper than 6.
pub const MAX_DEPTH: usize = 64;

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`, for single-byte peeks.
    bytes: &'a [u8],
    /// Always on a `char` boundary of `text`.
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Parses the array or object at `pos` one level down, refusing to
    /// recurse past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number '{text}'"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by any of
                            // our writers; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `text` is already
                    // valid UTF-8: slicing it (not re-validating the
                    // remaining bytes) keeps the loop linear.
                    let rest = self.text.get(self.pos..).ok_or("string split a UTF-8 scalar")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Num(-350.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "x"}], "c": {"d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{}garbage").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_open_containers() {
        // tests/hostile_json.rs holds the proptests and the server probe.
        assert!(parse(&("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1))).is_err());
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(", "));
        assert_eq!(parse(&wide).unwrap().as_arr().unwrap().len(), 1000);
    }

    #[test]
    fn strings_keep_multibyte_scalars_and_reject_split_escapes() {
        assert_eq!(parse("\"añ→𝄞\\u00e9\"").unwrap(), Value::Str("añ→𝄞é".into()));
        assert!(parse("\"\\u00é\"").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\é\"").is_err());
    }

    #[test]
    fn parses_real_bench_shape() {
        let text = r#"{
          "benchmark": "x",
          "launch_overhead": {"spawn_ns_per_launch": 50431.2, "pool_ns_per_launch": 501.0},
          "end_to_end": [
            {"algo": "cc", "input": "as-skitter", "spawn_s": 0.21, "pool_s": 0.12}
          ]
        }"#;
        let v = parse(text).unwrap();
        let leaves = v.numeric_leaves();
        assert_eq!(leaves["launch_overhead/spawn_ns_per_launch"], vec![50431.2]);
        assert_eq!(leaves["end_to_end/cc:as-skitter/pool_s"], vec![0.12]);
    }

    #[test]
    fn numeric_arrays_become_sample_vectors() {
        let v = parse(r#"{"m": {"samples": [1.0, 2.0, 3.0]}}"#).unwrap();
        assert_eq!(v.numeric_leaves()["m/samples"], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn num_formats_integers_and_floats() {
        assert_eq!(num(5.0), "5");
        assert_eq!(num(0.125), "0.125");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }
}
