//! A minimal JSON parser that builds a value tree.
//!
//! The workspace's one JSON grammar: the sentinel tools, `trace_check`,
//! the query server and every test that checks rendered JSON parse
//! through it. It needs the values — benchmark sample arrays, span ids,
//! provenance outputs — so it parses RFC 8259 documents into a small
//! [`JsonValue`] enum. Strict on syntax,
//! dependency-free, and tolerant of nothing: a malformed byte offset is
//! reported so a truncated capture fails loudly instead of silently
//! profiling half a run.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// nanocost exporters emit).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; `BTreeMap` keeps key iteration deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value of `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // nanocost-audit: allow(R2, reason = "exact integrality test: fract() returns 0.0 precisely for whole numbers")
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset of the first problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON document (with optional surrounding
/// whitespace) into a value tree.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first syntax problem.
pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { b: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.b.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.b.len() >= self.pos + word.len() && &self.b[self.pos..self.pos + word.len()] == word
        {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // past '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // past '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // past opening quote
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON escapes astral chars as
                            // two \uXXXX units. A high surrogate must be
                            // followed by a low one; anything else (a lone
                            // half, or a second unit outside the low range)
                            // is rejected rather than combined.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.b.get(self.pos + 1) == Some(&b'\\')
                                    && self.b.get(self.pos + 2) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("bad \\u escape")),
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if *c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.b.get(self.pos), Some(c) if *c != b'"' && *c != b'\\' && *c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.b[start..self.pos]));
                }
            }
        }
    }

    /// Reads four hex digits after a `\u`, leaving `pos` on the last one.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.b.get(self.pos) {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    /// RFC 8259 number syntax, enforced before the `f64` conversion
    /// (`tests/json_grammar.rs` pins the edge cases): no leading
    /// zeros on multi-digit integers, a `.` must be followed by digits,
    /// an exponent must carry digits.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let int_digits = self.pos - int_start;
        if int_digits == 0 {
            return Err(self.err("expected digits"));
        }
        if int_digits > 1 && self.b.get(int_start) == Some(&b'0') {
            return Err(JsonError {
                offset: int_start,
                message: "leading zero".to_string(),
            });
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError { offset: start, message: format!("bad number `{text}`") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").expect("parses"), JsonValue::Null);
        assert_eq!(parse("true").expect("parses"), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e-3").expect("parses"), JsonValue::Num(-2.5e-3));
        let v = parse(r#"{"a":[1,2],"b":"x"}"#).expect("parses");
        assert_eq!(v.get("a").and_then(JsonValue::as_arr).map(<[JsonValue]>::len), Some(2));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn resolves_escapes() {
        let v = parse(r#""a\nb\t\"c\" é 😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\nb\t\"c\" é 😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in ["", "{", "[1,]", "{\"a\":}", "nul", "\"x", "1 2", "{'a':1}"] {
            assert!(parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn enforces_rfc8259_number_syntax() {
        for doc in ["01", "-01", "1.", "1e", "1e+", ".5", "-"] {
            assert!(parse(doc).is_err(), "should reject {doc:?}");
        }
        for doc in ["0", "-0", "0.5", "10", "1e5", "1E-5", "1.25e+3"] {
            assert!(parse(doc).is_ok(), "should accept {doc:?}");
        }
    }

    #[test]
    fn rejects_lone_and_mismatched_surrogates() {
        assert!(parse(r#""\ud800""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\ud800A""#).is_err(), "high + non-low");
        assert!(parse(r#""😀""#).is_ok(), "paired astral char");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("5").expect("parses").as_u64(), Some(5));
        assert_eq!(parse("5.5").expect("parses").as_u64(), None);
        assert_eq!(parse("-5").expect("parses").as_u64(), None);
    }

    #[test]
    fn errors_carry_the_offset() {
        let e = parse("[1, oops]").expect_err("rejects");
        assert_eq!(e.offset, 4);
    }
}
