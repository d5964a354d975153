//! The workspace's JSON codec: a value type with a recursive-descent
//! parser and a compact renderer, plus the one string escaper every
//! JSON writer in the workspace uses ([`escape_into`]).
//!
//! The workspace links no serialization ecosystem (the build is
//! offline), and this crate has no dependencies, so every layer can use
//! it: the serve wire protocol, fault plans, the probe snapshot, trace
//! and log writers. Objects preserve insertion order, which keeps
//! rendered responses byte-stable for identical data — the property the
//! serve layer's content-addressed cache relies on when it compares
//! canonical forms.

use std::fmt;

/// Nesting depth beyond which the parser refuses to recurse (a
/// line-delimited request has no business being deeper, and the limit
/// keeps hostile input from exhausting the stack).
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order. The codec keeps every pair, a
    /// repeated key included; [`Json::get`] returns the first match,
    /// and the request and fault-plan validators reject a repeated key
    /// ([`repeated_key`]).
    Obj(Vec<(String, Json)>),
}

/// A parse failure with its byte offset in the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (each protocol line carries exactly one value).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON. Non-finite numbers render as
    /// `null` (JSON has no NaN/Inf).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => render_number(*v, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object (first match). `None` for missing
    /// keys and for non-object values.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part representable in `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a number with no
    /// fractional part in the `±2^53` exact range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) => Some(*v as i64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// Renders a number: integers in the exact `f64` range print without an
/// exponent, everything else in shortest-roundtrip scientific notation.
fn render_number(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v:e}");
    }
}

/// The first key of an object's pairs that occurs again later, if any.
#[must_use]
pub fn repeated_key(pairs: &[(String, Json)]) -> Option<&str> {
    pairs.iter().enumerate().find_map(|(i, (key, _))| {
        pairs[i + 1..]
            .iter()
            .any(|(k, _)| k == key)
            .then_some(key.as_str())
    })
}

/// Renders a string literal with escaping.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal
/// (no surrounding quotes): a quote or a backslash gets a backslash,
/// newline, carriage return and tab use their short escapes, and every
/// other control character is written as `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.consume(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next quote or
            // escape (the input is a &str, so slices at these ASCII
            // boundaries stay valid UTF-8).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                if let Ok(run) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                    out.push_str(run);
                } else {
                    return Err(self.err("invalid UTF-8 in string"));
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    // Surrogate pair: require an immediately following
                    // `\uXXXX` low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() == Some(b'u') {
                            self.pos += 1;
                            let low = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                        } else {
                            return Err(self.err("lone high surrogate"));
                        }
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    high
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("invalid unicode escape")),
                }
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated unicode escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in unicode escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\" 1}",
            "\"unterminated",
            "1 2",
            "01x",
            "+",
            "--1",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn renders_compactly_and_round_trips() {
        let v = Json::parse(r#"{"b": 1, "a": [true, null, "x\"y"], "n": 2.5}"#).unwrap();
        let rendered = v.render();
        assert_eq!(rendered, r#"{"b":1,"a":[true,null,"x\"y"],"n":2.5e0}"#);
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(1024.0).render(), "1024");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn integer_accessors_reject_fractions_and_signs() {
        assert_eq!(Json::Num(2.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_i64(), Some(-1));
        assert_eq!(Json::Str("3".into()).as_f64(), None);
    }
}
