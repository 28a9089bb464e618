//! A minimal deterministic JSON writer **and reader** for the benchmark
//! artifacts.
//!
//! `BENCH_scenarios.json` (and `BENCH_sim.json` in `arbodom-bench`, which
//! reuses this module) must be **byte-identical** for identical inputs —
//! the scenario engine's determinism guarantee is stated at the artifact
//! level, and the tests compare rendered strings. The workspace has no
//! JSON dependency, so the artifact writers render through this tiny
//! builder, which fixes key order and number formatting itself.
//!
//! Insertion order is preserved; keys are written exactly once, in the
//! order the caller adds them.
//!
//! The reader side ([`JsonValue::parse`]) exists for the artifacts'
//! *consumers* — the CI `bench_ratchet` gate parses the quick-mode
//! `BENCH_sim.json` against the committed full-scale baseline. It is a
//! plain recursive-descent parser over the full JSON grammar, kept here
//! so reader and writer agree on one definition of the format.

use std::fmt::Write as _;

/// Formats a finite `f64` the way JSON expects: integral values without a
/// trailing `.0`, everything else through Rust's shortest-roundtrip
/// `Display` (deterministic for identical bits). Non-finite values render
/// as `null`.
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a string for inclusion in a JSON document (quotes, backslash,
/// control characters).
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

/// An ordered JSON object builder.
#[derive(Clone, Debug, Default)]
pub struct JsonObj(Vec<String>);

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj(Vec::new())
    }

    /// Adds a string value (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.0
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer value.
    pub fn int(mut self, key: &str, value: usize) -> Self {
        self.0.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a `u64` value.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.0.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a number value (see [`fmt_num`]).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.0
            .push(format!("\"{}\":{}", escape(key), fmt_num(value)));
        self
    }

    /// Adds a boolean value.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.0.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, or number).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds `(key, pre-rendered value)` pairs in iteration order.
    pub fn entries(mut self, pairs: impl Iterator<Item = (String, String)>) -> Self {
        for (k, v) in pairs {
            self = self.raw(&k, v);
        }
        self
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

/// An ordered JSON array builder.
#[derive(Clone, Debug, Default)]
pub struct JsonArr(Vec<String>);

impl JsonArr {
    /// An empty array.
    pub fn new() -> Self {
        JsonArr(Vec::new())
    }

    /// Appends a pre-rendered JSON value.
    pub fn push_raw(mut self, value: String) -> Self {
        self.0.push(value);
        self
    }

    /// Appends a string value (escaped).
    pub fn push_str(mut self, value: &str) -> Self {
        self.0.push(format!("\"{}\"", escape(value)));
        self
    }

    /// Collects pre-rendered values.
    pub fn from_raw(values: impl Iterator<Item = String>) -> Self {
        JsonArr(values.collect())
    }

    /// Renders the array.
    pub fn render(&self) -> String {
        format!("[{}]", self.0.join(","))
    }
}

/// A parsed JSON value. Object keys keep document order (the artifacts
/// are rendered with deliberate key order, and consumers report in it).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// artifact writers emit).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document key order.
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// What the parser was looking for.
    pub expected: &'static str,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with the failing byte offset.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match in document order); `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in document order (empty for non-objects).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let fields = match self {
            JsonValue::Obj(fields) => fields.as_slice(),
            _ => &[],
        };
        fields.iter().map(|(k, _)| k.as_str())
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> JsonParseError {
        JsonParseError {
            expected,
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, lit: &'static [u8], v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("a JSON literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("a number"))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        if !self.eat(b'"') {
            return Err(self.err("a string"));
        }
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("a closing quote")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("four hex digits"))?;
                            // Surrogate pairs do not occur in the artifacts;
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("an escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("valid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("a character"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(JsonValue::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("`,` or `]`"));
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("`:`"));
            }
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(JsonValue::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("`,` or `}`"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_builder_output() {
        let doc = JsonObj::new()
            .str("name", "de\"mo\n")
            .raw(
                "items",
                JsonArr::new()
                    .push_raw(JsonObj::new().int("a", 1).bool("ok", true).render())
                    .push_str("x")
                    .render(),
            )
            .num("pi", 3.25)
            .num("whole", 42.0)
            .raw("nothing", "null".into())
            .render();
        let v = JsonValue::parse(&doc).expect("parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some("de\"mo\n"));
        assert_eq!(v.get("pi").unwrap().as_f64(), Some(3.25));
        assert_eq!(v.get("whole").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("nothing"), Some(&JsonValue::Null));
        let items = match v.get("items").unwrap() {
            JsonValue::Arr(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(items[0].get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(items[0].get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(items[1].as_str(), Some("x"));
        assert_eq!(v.keys().collect::<Vec<_>>().len(), 5);
        // Document key order is preserved.
        assert_eq!(v.keys().next(), Some("name"));
    }

    #[test]
    fn parser_handles_numbers_and_rejects_garbage() {
        assert_eq!(JsonValue::parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(JsonValue::parse("  [ ]  ").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(
            JsonValue::parse("\"\\u0041\"").unwrap(),
            JsonValue::Str("A".into())
        );
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("at byte 4"), "{err}");
    }

    #[test]
    fn parser_reads_the_real_artifact_shape() {
        // The exact shape `exp_scaling` writes (abbreviated).
        let doc = r#"{"schema":"arbodom-sim-bench/v2","current":{"flood_measure_seq":{"rounds":21,"messages":5999560,"msgs_per_sec":42270491}},"huge":{"current":{"thm11_measure_par4":{"msgs_per_sec":4710000}}}}"#;
        let v = JsonValue::parse(doc).expect("parses");
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("arbodom-sim-bench/v2")
        );
        let row = v.get("current").unwrap().get("flood_measure_seq").unwrap();
        assert_eq!(row.get("msgs_per_sec").unwrap().as_f64(), Some(42270491.0));
        assert!(v
            .get("huge")
            .unwrap()
            .get("current")
            .unwrap()
            .get("thm11_measure_par4")
            .is_some());
    }

    #[test]
    fn renders_nested_structures() {
        let inner = JsonObj::new().int("a", 1).bool("ok", true).render();
        let arr = JsonArr::new().push_raw(inner).push_str("x").render();
        let doc = JsonObj::new()
            .str("name", "demo")
            .raw("items", arr)
            .num("pi", 3.5)
            .render();
        assert_eq!(
            doc,
            r#"{"name":"demo","items":[{"a":1,"ok":true},"x"],"pi":3.5}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_render_canonically() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(3.25), "3.25");
        assert_eq!(fmt_num(f64::NAN), "null");
        assert_eq!(fmt_num(-0.5), "-0.5");
    }
}
