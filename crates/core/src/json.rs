//! A small hand-rolled JSON layer: value tree, escaping, compact and
//! pretty printers, and a recursive-descent parser.
//!
//! The workspace has no serialization dependency, so serialization
//! lives here: result types implement [`ToJson`], building a [`Json`] tree
//! that renders deterministically — object keys keep insertion order,
//! floats use Rust's shortest round-trip formatting, non-finite floats
//! degrade to `null`, and strings render ASCII-safe (non-ASCII scalars
//! become `\u` escapes, astral-plane ones as UTF-16 surrogate pairs).
//! The parser exists so tests can assert round-trips without external
//! tooling.

use std::fmt::Write as _;

/// A JSON value.
///
/// Objects preserve insertion order (no sorting, no hashing) so that
/// serialized output is byte-deterministic and matches the order the
/// producing code states.
///
/// # Examples
///
/// ```
/// use cqla_core::json::Json;
///
/// let v = Json::obj([("name", Json::from("grid")), ("points", Json::from(24))]);
/// assert_eq!(v.to_compact(), r#"{"name":"grid","points":24}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float, rendered with Rust's shortest round-trip formatting;
    /// non-finite values serialize as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from anything serializable.
    #[must_use]
    pub fn arr<T: ToJson, I: IntoIterator<Item = T>>(items: I) -> Self {
        Self::Arr(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Serializes without whitespace.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline-free
    /// body (callers append `\n` when printing).
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Looks up a key in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(i) => Some(*i as f64),
            Self::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an array slice if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string slice if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Self::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Self::Obj(pairs) => write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i| {
                let (k, v) = &pairs[i];
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }
}

/// Writes a delimited, comma-separated sequence with optional pretty
/// indentation, delegating each element to `item`.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    item: impl Fn(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Escapes and quotes a string per RFC 8259, emitting ASCII-safe output:
/// everything outside printable ASCII is `\u`-escaped, one `\uXXXX` per
/// UTF-16 code unit, so astral-plane characters become surrogate pairs
/// (U+1F600 → `😀`) rather than an invalid 5–6 digit escape.
/// ASCII-only documents survive any transport or log pipeline unmangled.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if ('\u{20}'..='\u{7e}').contains(&c) => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push('"');
}

/// Conversion into the [`Json`] value tree.
///
/// This is the crate's serialization trait: every result type the engine
/// can emit implements it (the `convert` module covers the domain types).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(i) => Json::Int(i),
                    // Out-of-range u64/u128 degrade to a float; no result
                    // type in this workspace produces such magnitudes.
                    Err(_) => Json::Num(*self as f64),
                }
            }
        }
    )*};
}
int_to_json!(i32, u32, i64, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// From-conversions for literal-heavy construction sites.
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Self::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Self::Int(i)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Self::Num(x)
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document.
///
/// Integral numbers without fraction or exponent become [`Json::Int`];
/// everything else numeric becomes [`Json::Num`]. Trailing content after
/// the top-level value is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first invalid
/// input.
///
/// # Examples
///
/// ```
/// use cqla_core::json::{parse, Json};
///
/// let v = parse(r#"{"ok": [1, 2.5, "x\n"]}"#).unwrap();
/// assert_eq!(v.get("ok").unwrap().as_arr().unwrap().len(), 3);
/// ```
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one slice-to-str hop.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => s.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hex4 = |p: &mut Self| -> Result<u32, ParseError> {
            let end = p.pos + 4;
            let slice = p
                .bytes
                .get(p.pos..end)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let text = core::str::from_utf8(slice).map_err(|_| p.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(text, 16).map_err(|_| p.err("invalid \\u escape"))?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair: a second \uXXXX must follow.
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = hex4(self)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            core::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_of_each_variant() {
        let v = Json::obj([
            ("null", Json::Null),
            ("bool", Json::Bool(true)),
            ("int", Json::Int(-7)),
            ("num", Json::Num(2.5)),
            ("str", Json::from("hi")),
            ("arr", Json::arr([1u32, 2])),
        ]);
        assert_eq!(
            v.to_compact(),
            r#"{"null":null,"bool":true,"int":-7,"num":2.5,"str":"hi","arr":[1,2]}"#
        );
    }

    #[test]
    fn pretty_rendering_indents_two_spaces() {
        let v = Json::obj([("a", Json::arr([1u32]))]);
        assert_eq!(v.to_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
        assert_eq!(Json::Arr(Vec::new()).to_pretty(), "[]");
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let s = Json::from("a\"b\\c\nd\te\u{1}f");
        assert_eq!(s.to_compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    }

    #[test]
    fn escaping_emits_surrogate_pairs_for_astral_chars() {
        // One \uXXXX per UTF-16 code unit: BMP chars get one escape,
        // astral-plane chars a high/low surrogate pair — never a 5–6
        // digit escape, which no JSON parser accepts.
        assert_eq!(Json::from("∞").to_compact(), "\"\\u221e\"");
        assert_eq!(Json::from("😀").to_compact(), "\"\\ud83d\\ude00\"");
        assert_eq!(Json::from("\u{10FFFF}").to_compact(), "\"\\udbff\\udfff\"");
        // The writer's own output parses back to the original scalar.
        for s in ["😀", "\u{10000}", "a∞b😀c"] {
            let text = Json::from(s).to_compact();
            assert!(text.is_ascii(), "{text}");
            assert_eq!(parse(&text).unwrap(), Json::from(s));
        }
    }

    #[test]
    fn parse_rejects_lone_surrogate_escapes() {
        // High surrogate with no low half, high + non-surrogate, and a
        // standalone low surrogate are all invalid JSON strings.
        for bad in [r#""\ud83d""#, r#""\ud83d\u0041""#, r#""\udc00""#] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // A well-formed pair decodes to the astral scalar.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::from("😀"));
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn integral_floats_render_without_decimal_point() {
        // Rust's shortest round-trip Display — deterministic and compact.
        assert_eq!(Json::Num(441.0).to_compact(), "441");
        assert_eq!(Json::Num(0.1).to_compact(), "0.1");
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let v = Json::obj([
            ("name", Json::from("sweep \"x\" \\ ∞\n")),
            // No integral floats here: `3.0` serializes as `3`, which
            // (correctly) parses back as `Int` — tree equality below
            // wants value-preserving cases only.
            ("xs", Json::arr([0.25f64, 3.5, -1.5e-9])),
            ("n", Json::Int(1_234_567)),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
        ]);
        let text = v.to_compact();
        let parsed = parse(&text).expect("round-trip parses");
        assert_eq!(parsed, v);
        // Serialize-parse-serialize is a fixed point.
        assert_eq!(parsed.to_compact(), text);
        // Pretty output parses back to the same tree too.
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_handles_unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::from("A"));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::from("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"x", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_distinguishes_ints_from_floats() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(parse("1e2").unwrap(), Json::Num(100.0));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, "x"]}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }
}
