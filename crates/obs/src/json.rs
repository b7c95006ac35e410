//! Hand-rolled JSON escaping and a small parser for the record schema.
//!
//! The writer side covers exactly what [`crate::Record::to_json`] emits;
//! the parser accepts any flat record of that shape (the `fields` object
//! must hold scalars), which is enough to read traces back in tests and to
//! diff a run against a paper bound without external dependencies.

use crate::{Record, Value};

/// Escapes `s` as a JSON string (with surrounding quotes) into `out`.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
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
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    ParseError {
                                        at: self.pos,
                                        message: "truncated \\u escape".into(),
                                    }
                                })?;
                            let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                                at: self.pos,
                                message: "non-utf8 \\u escape".into(),
                            })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                                at: self.pos,
                                message: "bad \\u escape".into(),
                            })?;
                            // Records only escape control chars, which are
                            // never surrogates.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("surrogate \\u escape unsupported"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, so the run ends on a char
                    // boundary of the input, which is valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::F64(f64::NAN)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected scalar"),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.is_empty() || text == "-" {
            return self.err("expected number");
        }
        if is_float {
            text.parse::<f64>().map(Value::F64).map_err(|e| ParseError {
                at: start,
                message: format!("bad float: {e}"),
            })
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::U64(u))
        } else {
            text.parse::<i64>().map(Value::I64).map_err(|e| ParseError {
                at: start,
                message: format!("bad integer: {e}"),
            })
        }
    }

    fn u64_value(&mut self) -> Result<u64, ParseError> {
        match self.number()? {
            Value::U64(v) => Ok(v),
            _ => self.err("expected unsigned integer"),
        }
    }
}

/// Parses one JSONL line produced by [`Record::to_json`].
///
/// Keys may appear in any order; unknown top-level keys are rejected.
pub fn parse_record(line: &str) -> Result<Record, ParseError> {
    let mut p = Parser::new(line);
    let mut rec = Record::new("", "");
    p.expect(b'{')?;
    let mut first = true;
    loop {
        if p.peek() == Some(b'}') {
            p.pos += 1;
            break;
        }
        if !first {
            p.expect(b',')?;
        }
        first = false;
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "ts" => rec.ts = p.u64_value()?,
            "target" => rec.target = p.string()?.into(),
            "event" => rec.event = p.string()?.into(),
            "fields" => {
                p.expect(b'{')?;
                let mut f_first = true;
                loop {
                    if p.peek() == Some(b'}') {
                        p.pos += 1;
                        break;
                    }
                    if !f_first {
                        p.expect(b',')?;
                    }
                    f_first = false;
                    let fk = p.string()?;
                    p.expect(b':')?;
                    let fv = p.scalar()?;
                    rec.fields.push((fk.into(), fv));
                }
            }
            other => return p.err(format!("unknown key '{other}'")),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content");
    }
    Ok(rec)
}

/// Parses a whole JSONL document (one record per non-empty line).
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, ParseError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_record)
        .collect()
}

/// A generic JSON value, for documents that are *not* flat records —
/// `BENCH_*.json` benchmark reports, `summary.json`, config files.
///
/// Objects keep insertion order (a `Vec` of pairs), which keeps
/// round-trip diffs readable; [`JsonValue::get`] does the common
/// key lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value (`None` on non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value (`None` on non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements (`None` on non-arrays).
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members (`None` on non-objects).
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

impl<'a> Parser<'a> {
    fn value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        if depth > 64 {
            return self.err("nesting too deep");
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                let mut first = true;
                loop {
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        break;
                    }
                    if !first {
                        self.expect(b',')?;
                    }
                    first = false;
                    let key = self.string()?;
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    members.push((key, val));
                }
                Ok(JsonValue::Object(members))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                let mut first = true;
                loop {
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        break;
                    }
                    if !first {
                        self.expect(b',')?;
                    }
                    first = false;
                    items.push(self.value(depth + 1)?);
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'n') => {
                self.literal("null", Value::Bool(false))?;
                Ok(JsonValue::Null)
            }
            _ => Ok(match self.scalar()? {
                Value::U64(v) => JsonValue::Num(v as f64),
                Value::I64(v) => JsonValue::Num(v as f64),
                Value::F64(v) => JsonValue::Num(v),
                Value::Bool(b) => JsonValue::Bool(b),
                Value::Str(s) => JsonValue::Str(s),
            }),
        }
    }
}

/// Parses an arbitrary JSON document into a [`JsonValue`] tree.
///
/// This is the reader for nested documents ([`parse_record`] stays the
/// strict fast path for JSONL trace lines).
pub fn parse_value(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser::new(text);
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_plain_records() {
        let records = vec![
            Record::new("sim", "round")
                .with("round", 3u64)
                .with("bits", 96u64)
                .with("cut_bits", 32u64),
            Record::new("solver.mds", "search")
                .with("nodes", 120u64)
                .with("prunes", 40u64)
                .with("weight", -7i64)
                .with("verified", true),
            Record::new("comm.transcript", "send")
                .with("dir", "a2b")
                .with("bits", 5u64),
        ];
        for r in &records {
            let parsed = parse_record(&r.to_json()).expect("parses");
            assert_eq!(&parsed, r);
        }
    }

    #[test]
    fn round_trips_awkward_strings() {
        let r = Record::new("t", "e").with("s", "π \"quoted\" \\ tab\t nl\n ctrl\u{1}");
        let parsed = parse_record(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn floats_survive() {
        let r = Record::new("t", "e")
            .with("ratio", 0.375f64)
            .with("big", 1.5e12f64);
        let parsed = parse_record(&r.to_json()).expect("parses");
        assert_eq!(parsed.field("ratio").and_then(Value::as_f64), Some(0.375));
        assert_eq!(parsed.field("big").and_then(Value::as_f64), Some(1.5e12));
    }

    #[test]
    fn jsonl_document() {
        let text = format!(
            "{}\n\n{}\n",
            Record::new("a", "x").with("v", 1u64).to_json(),
            Record::new("b", "y").with("v", 2u64).to_json()
        );
        let all = parse_jsonl(&text).expect("parses");
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].u64_field("v"), Some(2));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_record("{").is_err());
        assert!(parse_record(r#"{"ts":1}extra"#).is_err());
        assert!(parse_record(r#"{"nope":1}"#).is_err());
        assert!(parse_record(r#"{"fields":{"a":[1]}}"#).is_err());
    }

    #[test]
    fn parse_value_handles_nested_documents() {
        let doc = r#"
        {
          "bench": "sim_round",
          "entries": [
            {"name": "learn_graph_n32", "median_micros": 1250.5, "rounds": 6},
            {"name": "learn_graph_n64", "median_micros": 4801.0, "rounds": 7}
          ],
          "meta": {"samples": 7, "release": true, "note": null}
        }"#;
        let v = parse_value(doc).expect("parses");
        assert_eq!(
            v.get("bench").and_then(JsonValue::as_str),
            Some("sim_round")
        );
        let entries = v.get("entries").and_then(JsonValue::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].get("rounds").and_then(JsonValue::as_u64),
            Some(6)
        );
        assert_eq!(
            entries[1].get("median_micros").and_then(JsonValue::as_f64),
            Some(4801.0)
        );
        let meta = v.get("meta").unwrap();
        assert_eq!(meta.get("release"), Some(&JsonValue::Bool(true)));
        assert_eq!(meta.get("note"), Some(&JsonValue::Null));
        assert_eq!(meta.get("missing"), None);
    }

    #[test]
    fn parse_value_rejects_malformed_documents() {
        assert!(parse_value("[1,2").is_err());
        assert!(parse_value("{\"a\":}").is_err());
        assert!(parse_value("[] trailing").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_value(&deep).is_err(), "depth limit enforced");
    }

    /// String scanning is linear: a 1 MiB value of mixed ASCII,
    /// multi-byte characters and escapes parses through both entry
    /// points well inside the budget (a per-character rescan of the rest
    /// of the input takes minutes on it).
    #[test]
    fn mebibyte_strings_parse_in_linear_time() {
        let chunk = "plain ascii π ✓ \"quoted\" back\\slash\ttab ";
        let long = chunk.repeat((1 << 20) / chunk.len() + 1);
        assert!(long.len() >= 1 << 20);
        let rec = Record::new("t", "e").with("s", long.as_str());
        let line = rec.to_json();
        let t0 = std::time::Instant::now();
        assert_eq!(parse_record(&line).expect("parses"), rec);
        let doc = parse_value(&line).expect("parses");
        let fields = doc.get("fields").expect("fields object");
        assert_eq!(
            fields.get("s").and_then(JsonValue::as_str),
            Some(long.as_str())
        );
        let took = t0.elapsed();
        assert!(took.as_secs_f64() < 2.0, "1 MiB string took {took:?}");
    }
}
