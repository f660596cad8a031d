//! Offline shim for the subset of `serde_json` this workspace uses: a JSON
//! [`Value`] tree, a `json!` object macro, `Display`-based serialization,
//! and one small recursive-descent parser, exposed as a pull [`Reader`].
//! Its caller opens objects and arrays, takes member keys and elements, and
//! reads strings and numbers in document order, or skips a value; strings
//! borrow from the input unless they hold an escape. [`from_str`] builds a
//! [`Value`] tree from a reader, and a reader of one schema (the history
//! importer) builds its own types from one, with no tree in between. There
//! is no serde integration — types that need JSON round-trips implement
//! `From<T> for Value` and parse from a [`Value`] or a [`Reader`]
//! explicitly.

#![allow(clippy::all, clippy::pedantic)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is sorted (BTreeMap) for stable output.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => number_as_u64(*n),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup (`value["key"]`-style, by method).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A JSON number as a u64, if it is non-negative and integral.
fn number_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(v as f64)
            }
        }
    )*};
}

from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(f64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T> From<Vec<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Value::from).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for Error {}

/// Deepest array/object nesting a [`Reader`] (and so [`from_str`]) accepts.
/// The parser recurses once per level, so untrusted input must not choose
/// the depth; imported histories nest 6 deep and `--stats-json` documents 5.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`], read from a [`Reader`].
/// Nesting deeper than [`MAX_DEPTH`] is an [`Error`] at the offending
/// bracket's offset.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// What the next value is, as its first byte tells: a malformed literal or
/// number is found only when it is read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number, or any byte that starts no other value.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull parser: the caller takes a document one value at a time, in
/// document order, and the reader checks its syntax as it goes. Every
/// method that takes a value consumes exactly one, so a caller that wants
/// some other type gets `None` or `false` and the value skipped. Strings
/// borrow from the input unless they hold an escape.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The container opened last has not been asked for a member yet.
    first: bool,
}

/// Digits of an integer a [`Reader`] reads without `f64` parsing: below
/// 10^15, so exact as an `f64`.
const FAST_DIGITS: usize = 15;

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// The kind of the next value, after any whitespace.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        Ok(match self.bytes.get(self.pos) {
            None => return Err(self.err("unexpected end of input")),
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'"') => Kind::String,
            Some(b'[') => Kind::Array,
            Some(b'{') => Kind::Object,
            Some(_) => Kind::Number,
        })
    }

    /// Opens the next value if it is an object (read its members with
    /// [`Reader::key`]); otherwise skips it and returns `false`.
    #[inline]
    pub fn object(&mut self) -> Result<bool, Error> {
        self.open(Kind::Object)
    }

    /// Opens the next value if it is an array (read its elements with
    /// [`Reader::element`]); otherwise skips it and returns `false`.
    #[inline]
    pub fn array(&mut self) -> Result<bool, Error> {
        self.open(Kind::Array)
    }

    /// The next member's key of the object open innermost, its value next
    /// to read; `None` once the object is closed. Members come in document
    /// order, duplicate keys included.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if self.close(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string_token()?;
        self.skip_ws();
        self.eat(":")?;
        Ok(Some(key))
    }

    /// Whether the array open innermost has another element, next to read;
    /// `false` once the array is closed.
    #[inline]
    pub fn element(&mut self) -> Result<bool, Error> {
        Ok(!self.close(b']', "expected ',' or ']'")?)
    }

    /// The next value if it is a string; otherwise skips it.
    #[inline]
    pub fn string(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if self.peek()? == Kind::String {
            self.string_token().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// The next value if it is a non-negative integral number (as
    /// [`Value::as_u64`] reads it); otherwise skips it.
    #[inline]
    pub fn u64(&mut self) -> Result<Option<u64>, Error> {
        if self.peek()? == Kind::Number {
            Ok(number_as_u64(self.number_token()?))
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Skips the next value, checking its syntax.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            kind @ (Kind::Array | Kind::Object) => {
                self.open(kind)?;
                while if kind == Kind::Array {
                    self.element()?
                } else {
                    self.key()?.is_some()
                } {
                    self.skip()?;
                }
            }
            Kind::String => drop(self.string_token()?),
            Kind::Null | Kind::Bool => drop(self.literal()?),
            Kind::Number => drop(self.number_token()?),
        }
        Ok(())
    }

    /// Ends the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// The next value as a [`Value`] tree; of duplicate keys the last wins.
    fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.peek()? {
            Kind::Array => {
                self.array()?;
                let mut items = Vec::new();
                while self.element()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Kind::Object => {
                self.object()?;
                let mut members = BTreeMap::new();
                while let Some(key) = self.key()? {
                    let value = self.value()?;
                    members.insert(key.into_owned(), value);
                }
                Value::Object(members)
            }
            Kind::String => Value::String(self.string_token()?.into_owned()),
            Kind::Null | Kind::Bool => self.literal()?,
            Kind::Number => Value::Number(self.number_token()?),
        })
    }

    fn err(&self, message: &str) -> Error {
        Error {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn eat(&mut self, token: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    /// Consumes the bracket of the next value, one level deeper, if the
    /// value is of `kind`; otherwise skips the value.
    #[inline]
    fn open(&mut self, kind: Kind) -> Result<bool, Error> {
        if self.peek()? != kind {
            self.skip()?;
            return Ok(false);
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(true)
    }

    /// Whether the container open innermost ends here, its `close`
    /// consumed; otherwise consumes the `,` before its next member (none
    /// before the first).
    #[inline]
    fn close(&mut self, close: u8, message: &str) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.bytes.get(self.pos) {
            Some(&b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(true)
            }
            _ if first => Ok(false),
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(message)),
        }
    }

    /// The `null`, `true` or `false` at the cursor.
    fn literal(&mut self) -> Result<Value, Error> {
        match self.bytes[self.pos] {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            _ => self.eat("false").map(|()| Value::Bool(false)),
        }
    }

    fn string_token(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat("\"")?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            self.pos = run.map_or(self.bytes.len(), |n| start + n);
            // `"` and `\` are ASCII, so the run ends on a char boundary.
            let input = self.input;
            let run = &input[start..self.pos];
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.push(c);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The four hex digits at the cursor, consumed.
    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The character of a `\u` escape whose `\u` is consumed: one code
    /// point, or a UTF-16 high surrogate escape followed by a low one. A
    /// lone or reversed surrogate is an error after the first escape.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let first = self.pos;
            self.pos += 2;
            match self.hex4() {
                Ok(low @ 0xDC00..=0xDFFF) => {
                    let pair = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return Ok(char::from_u32(pair).expect("a surrogate pair is a code point"));
                }
                _ => self.pos = first,
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("bad code point"))
    }

    fn number_token(&mut self) -> Result<f64, Error> {
        let start = self.pos;
        let mut int = 0u64;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            int = int.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - start;
        let more =
            |b: Option<&u8>| matches!(b, Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        if (1..=FAST_DIGITS).contains(&digits) && !more(self.bytes.get(self.pos)) {
            return Ok(int as f64);
        }
        while more(self.bytes.get(self.pos)) {
            self.pos += 1;
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }
}

/// Builds a [`Value`] from JSON-ish syntax. Supports flat or nested object
/// literals whose values are arbitrary expressions converted via
/// `Value::from` (nest by writing `json!({...})` as the value expression).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:tt : $val:expr),* $(,)? }) => {{
        let mut members = ::std::collections::BTreeMap::new();
        $( members.insert(($key).to_string(), $crate::Value::from($val)); )*
        $crate::Value::Object(members)
    }};
    ($other:expr) => {
        $crate::Value::from($other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let v = json!({
            "name": "bench",
            "ok": true,
            "count": 3u64,
            "ratio": 1.5f64,
            "tags": vec!["a", "b"],
        });
        let text = v.to_string();
        let back = from_str(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("tags").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn escapes_strings() {
        let v = Value::String("a\"b\\c\nd".to_string());
        let text = v.to_string();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    /// `depth` levels of nesting around a `0`, bracket kind chosen per level.
    fn nested_doc(depth: usize, open: impl Fn(usize) -> &'static str) -> String {
        let opens: Vec<&str> = (0..depth).map(&open).collect();
        let closes: String = opens
            .iter()
            .rev()
            .map(|o| if *o == "[" { "]" } else { "}" })
            .collect();
        format!("{}0{closes}", opens.concat())
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_deeper_is_an_error() {
        let shapes: [(&str, fn(usize) -> &'static str); 3] = [
            ("arrays", |_| "["),
            ("objects", |_| "{\"k\":"),
            ("mixed", |i| if i % 2 == 0 { "[" } else { "{\"k\":" }),
        ];
        for (what, open) in shapes {
            assert!(from_str(&nested_doc(MAX_DEPTH, open)).is_ok(), "{what}");
            let too_deep = nested_doc(MAX_DEPTH + 1, open);
            let err = from_str(&too_deep).unwrap_err();
            assert!(
                err.message.contains(&MAX_DEPTH.to_string()),
                "{what}: {err}"
            );
            // The offset is the bracket that opens level MAX_DEPTH + 1.
            let prefix: usize = (0..MAX_DEPTH).map(|i| open(i).len()).sum();
            assert_eq!(err.offset, prefix, "{what}");
        }
        // The input that used to overflow the stack fails at the same place.
        let err = from_str(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn a_surrogate_pair_is_one_character() {
        assert_eq!(
            from_str(r#""a\ud83d\ude00b""#).unwrap(),
            Value::String("a\u{1F600}b".to_string())
        );
        assert_eq!(
            from_str(r#""\uD800\uDC00""#).unwrap(),
            Value::String("\u{10000}".to_string())
        );
    }

    #[test]
    fn a_lone_or_reversed_surrogate_is_a_bad_code_point() {
        // The error is at the end of the first escape, whatever follows it.
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\uzzzz""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = from_str(text).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("bad code point", 7),
                "{text}"
            );
        }
    }

    #[test]
    fn the_reader_takes_values_in_document_order_and_borrows_plain_strings() {
        let text = r#"{"a": [1, "x\ty", {}], "b": "plain", "a": null}"#;
        let mut r = Reader::new(text);
        assert!(r.object().unwrap());
        assert_eq!(r.key().unwrap().as_deref(), Some("a"));
        assert_eq!(r.peek().unwrap(), Kind::Array);
        assert!(r.array().unwrap());
        assert!(r.element().unwrap());
        assert_eq!(r.u64().unwrap(), Some(1));
        assert!(r.element().unwrap());
        assert!(matches!(r.string().unwrap(), Some(Cow::Owned(s)) if s == "x\ty"));
        assert!(r.element().unwrap());
        // Not a string: skipped whole.
        assert_eq!(r.string().unwrap(), None);
        assert!(!r.element().unwrap());
        assert_eq!(r.key().unwrap().as_deref(), Some("b"));
        assert!(matches!(r.string().unwrap(), Some(Cow::Borrowed("plain"))));
        // The duplicate key comes again; `from_str` keeps the last.
        assert_eq!(r.key().unwrap().as_deref(), Some("a"));
        assert!(!r.array().unwrap());
        assert_eq!(r.key().unwrap(), None);
        r.finish().unwrap();
        assert_eq!(from_str(text).unwrap().get("a"), Some(&Value::Null));
    }

    #[test]
    fn skipping_checks_syntax_and_depth() {
        for (text, message, offset) in [
            (r#"{"k": [1, tru]}"#, "unexpected token", 10),
            (r#"{"k": [1 2]}"#, "expected ',' or ']'", 9),
            (r#"{"k": {"j" 1}}"#, "unexpected token", 11),
            (r#"{"k": "\q"}"#, "unknown escape", 9),
        ] {
            let mut r = Reader::new(text);
            assert!(r.object().unwrap());
            r.key().unwrap();
            let err = r.skip().unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{text}"
            );
            assert_eq!(from_str(text).unwrap_err(), err, "{text}");
        }
        let deep = format!("[{}]", "[".repeat(MAX_DEPTH));
        let err = Reader::new(&deep).skip().unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(from_str(&deep).unwrap_err(), err);
    }

    #[test]
    fn finish_refuses_trailing_characters() {
        let mut r = Reader::new(" [] x");
        assert!(r.array().unwrap());
        assert!(!r.element().unwrap());
        let err = r.finish().unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("trailing characters", 4)
        );
    }

    #[test]
    fn plain_integers_read_as_the_f64_parser_reads_them() {
        for text in [
            "0",
            "007",
            "42",
            "999999999999999",
            "1000000000000000",
            "18446744073709551616",
            "-0",
            "-7",
            "1.5",
            "1e3",
            "2E-2",
            "5.",
            "+3",
        ] {
            let expected = text.parse::<f64>().unwrap();
            assert_eq!(from_str(text).unwrap(), Value::Number(expected), "{text}");
            let array = format!("[{text},{text}]");
            assert_eq!(
                from_str(&array).unwrap(),
                Value::Array(vec![Value::Number(expected); 2]),
                "{array}"
            );
        }
        for text in ["12-3", "1+", "--1", "1e", "."] {
            let err = from_str(text).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("invalid number", text.len()),
                "{text}"
            );
        }
    }

    #[test]
    fn parses_whitespace_and_null() {
        let v = from_str(" { \"x\" : null , \"y\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("y").unwrap().as_array().unwrap().len(), 2);
    }
}
