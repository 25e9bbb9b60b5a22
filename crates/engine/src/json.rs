//! A minimal JSON value, serializer and parser.
//!
//! The engine's reports need a stable, machine-readable rendering and the
//! `cq-serve` daemon needs to read wire requests, but the build runs
//! offline, so both directions are hand-rolled rather than a `serde`
//! dependency. Objects keep insertion order, which is what makes the
//! `cq-analyze --json` schema stable across runs: a report serializes to
//! byte-identical output for identical analysis results. [`Json::parse`]
//! accepts any RFC 8259 document (it is not limited to what this
//! workspace emits), reports errors with a byte offset, and bounds
//! nesting depth so untrusted daemon input cannot overflow the stack.
//! Parsing is linear in the length of the text: a string copies each run
//! of plain bytes between escapes in one step, so a long line costs a
//! worker time in proportion to its length, not its square.

use std::fmt::Write as _;

/// Maximum container nesting accepted by [`Json::parse`]. Deep enough
/// for any real request, shallow enough that a pathological
/// `[[[[…]]]]` line from an untrusted client errors instead of
/// recursing out of stack.
const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers stay exact; everything measured in this workspace
    /// (counts, sizes) is a `usize`.
    Int(i64),
    /// An integer above `i64::MAX`, such as an answer count saturated at
    /// `u64::MAX`.
    Uint(u64),
    /// Approximate quantities (`rmax^C` style bound values). Non-finite
    /// values serialize as `null`, which JSON cannot represent otherwise.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn int(n: usize) -> Json {
        i64::try_from(n).map_or(Json::Uint(n as u64), Json::Int)
    }

    /// A `u64` counter, saturating at `i64::MAX`.
    pub fn count(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// `Some(v)` maps through `f`; `None` becomes `null`.
    pub fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
        v.map_or(Json::Null, f)
    }

    /// Parses a JSON document. Trailing non-whitespace is an error, as
    /// is nesting beyond `MAX_PARSE_DEPTH` (128) levels.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as a `usize`, if nonnegative.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(n) => usize::try_from(*n).ok(),
            Json::Uint(n) => usize::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Rust's shortest-roundtrip Display is valid JSON for
                    // finite values (no exponent is emitted for the
                    // magnitudes reports contain; exponents would be
                    // valid JSON anyway).
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Builder shorthand for objects with a fixed field order.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A [`Json::parse`] failure: what went wrong and at which byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            message: message.into(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a "\uXXXX" low half must
                                // follow immediately.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte at once. Those are ASCII, so the
                    // run ends on a char boundary of the input `&str`.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("expected 4 hex digits"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("expected 4 hex digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            // Integers stay exact while they fit in an `i64` or a `u64`;
            // RFC 8259 places no range limit, so a larger integer
            // degrades to the float path below instead of rejecting the
            // document.
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format!("invalid number \"{text}\"")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::int(42).render(), "42");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(8.0).render(), "8");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn renders_containers_in_order() {
        let j = obj([
            ("b", Json::int(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(j.render(), "{\"b\":1,\"a\":[null,false]}");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        // Integers past i64 stay exact up to u64::MAX (a saturated
        // count renders and reads back as itself); past that they are
        // valid JSON too, and degrade to floats rather than failing the
        // whole document.
        assert_eq!(Json::int(usize::MAX).render(), "18446744073709551615");
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::Uint(u64::MAX)
        );
        assert_eq!(Json::Uint(u64::MAX).as_usize(), Some(usize::MAX));
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Float(18446744073709551616.0)
        );
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_containers_preserving_order() {
        let j = Json::parse(r#"{"b": 1, "a": [null, false, {"c": "d"}]}"#).unwrap();
        assert_eq!(j.get("b"), Some(&Json::Int(1)));
        let arr = j.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("c").and_then(Json::as_str), Some("d"));
        // round-trips through the compact renderer
        assert_eq!(j.render(), r#"{"b":1,"a":[null,false,{"c":"d"}]}"#);
    }

    #[test]
    fn parse_render_roundtrip_on_escapes() {
        for text in ["a\"b\\c\nd", "tab\there", "nul\u{1}", "λ → µ", "🦀"] {
            let rendered = Json::str(text).render();
            assert_eq!(Json::parse(&rendered).unwrap(), Json::str(text));
        }
        assert_eq!(
            Json::parse(r#""\ud83e\udd80""#).unwrap(),
            Json::str("🦀"),
            "surrogate pairs decode"
        );
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for (text, what) in [
            ("", "expected a JSON value"),
            ("{\"a\":}", "expected a JSON value"),
            ("[1,]", "expected a JSON value"),
            ("{\"a\" 1}", "expected ':'"),
            ("\"open", "unterminated string"),
            ("1 2", "trailing characters"),
            ("nulL", "expected 'null'"),
            (r#""\ud800x""#, "unpaired surrogate"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.message.contains(what), "{text:?}: {err}");
        }
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        let j = Json::parse(r#"{"n": 3, "s": "x"}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(j.get("s").and_then(Json::as_i64), None);
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Int(-1).as_usize(), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
