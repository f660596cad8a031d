//! Offline shim for the subset of `serde_json` this workspace uses: a JSON
//! [`Value`] tree, a `json!` object macro, `Display`-based serialization,
//! and one small recursive-descent parser. The parser writes a flat
//! [`Tape`] whose strings borrow from the input; [`from_str`] builds the
//! [`Value`] tree from it, and a reader that only walks a document (the
//! history importer) reads the tape itself. There is no serde integration —
//! types that need JSON round-trips implement `From<T> for Value` and parse
//! from a [`Value`] or a [`Tape`] explicitly.

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

/// Deepest array/object nesting [`from_str`] and [`Tape::parse`] accept.
/// The parser recurses once per level, so untrusted input must not choose
/// the depth; imported histories nest 6 deep and `--stats-json` documents 5.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`]: its [`Tape`], then the tree.
/// Nesting deeper than [`MAX_DEPTH`] is an [`Error`] at the offending
/// bracket's offset.
pub fn from_str(input: &str) -> Result<Value, Error> {
    Tape::parse(input).map(|tape| tape.root().to_value())
}

/// Serializes a value (anything convertible into [`Value`]) compactly.
pub fn to_string<T>(value: T) -> Result<String, Error>
where
    Value: From<T>,
{
    Ok(Value::from(value).to_string())
}

/// A parsed JSON document as a flat tape: one node per value in
/// document order, each container's members right after it. Strings borrow
/// from the input unless they hold an escape, so a document is read with
/// one growing buffer instead of a tree of them.
#[derive(Debug)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
}

/// One value on a [`Tape`].
#[derive(Debug, PartialEq)]
enum Node<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as [`Value::Number`] holds it.
    Number(f64),
    /// A string: a slice of the input unless it holds an escape.
    String(Cow<'a, str>),
    /// An array of `len` elements, the first at the next index; `end` is
    /// the index just past its last descendant.
    Array { len: usize, end: usize },
    /// An object of `len` members (duplicate keys counted each time), each
    /// a key [`Node::String`] followed by its value; `end` is the index
    /// just past its last descendant.
    Object { len: usize, end: usize },
}

impl<'a> Tape<'a> {
    /// Parses a JSON document. Nesting deeper than [`MAX_DEPTH`] is an
    /// [`Error`] at the offending bracket's offset.
    pub fn parse(input: &'a str) -> Result<Tape<'a>, Error> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            tape: Vec::new(),
        };
        p.skip_ws();
        p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(Tape { nodes: p.tape })
    }

    /// The document's top-level value.
    pub fn root(&self) -> Cursor<'_, 'a> {
        Cursor {
            nodes: &self.nodes,
            at: 0,
        }
    }
}

/// The value at one index of a [`Tape`].
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'t, 'a> {
    nodes: &'t [Node<'a>],
    at: usize,
}

impl<'t, 'a> Cursor<'t, 'a> {
    /// The node this cursor is at.
    fn node(&self) -> &'t Node<'a> {
        &self.nodes[self.at]
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&'t str> {
        match self.node() {
            Node::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number (as
    /// [`Value::as_u64`] reads it).
    pub fn as_u64(&self) -> Option<u64> {
        match self.node() {
            Node::Number(n) => number_as_u64(*n),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<Elements<'t, 'a>> {
        match self.node() {
            Node::Array { len, .. } => Some(Elements {
                nodes: self.nodes,
                next: self.at + 1,
                left: *len,
            }),
            _ => None,
        }
    }

    /// The members in document order, duplicates included, if the value is
    /// an object. Of duplicate keys [`Value::Object`] keeps the last.
    pub fn as_object(&self) -> Option<Members<'t, 'a>> {
        match self.node() {
            Node::Object { len, .. } => Some(Members {
                nodes: self.nodes,
                next: self.at + 1,
                left: *len,
            }),
            _ => None,
        }
    }

    /// The index just past this value's last descendant.
    fn end(&self) -> usize {
        match self.node() {
            Node::Array { end, .. } | Node::Object { end, .. } => *end,
            _ => self.at + 1,
        }
    }

    /// The value as a [`Value`] tree.
    pub fn to_value(&self) -> Value {
        match self.node() {
            Node::Null => Value::Null,
            Node::Bool(b) => Value::Bool(*b),
            Node::Number(n) => Value::Number(*n),
            Node::String(s) => Value::String(s.to_string()),
            Node::Array { .. } => Value::Array(
                self.as_array()
                    .into_iter()
                    .flatten()
                    .map(|e| e.to_value())
                    .collect(),
            ),
            Node::Object { .. } => Value::Object(
                self.as_object()
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// The elements of a tape array.
#[derive(Clone, Debug)]
pub struct Elements<'t, 'a> {
    nodes: &'t [Node<'a>],
    next: usize,
    left: usize,
}

impl<'t, 'a> Iterator for Elements<'t, 'a> {
    type Item = Cursor<'t, 'a>;

    fn next(&mut self) -> Option<Cursor<'t, 'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let element = Cursor {
            nodes: self.nodes,
            at: self.next,
        };
        self.next = element.end();
        Some(element)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_, '_> {}

/// The `(key, value)` members of a tape object.
#[derive(Clone, Debug)]
pub struct Members<'t, 'a> {
    nodes: &'t [Node<'a>],
    next: usize,
    left: usize,
}

impl<'t, 'a> Iterator for Members<'t, 'a> {
    type Item = (&'t str, Cursor<'t, 'a>);

    fn next(&mut self) -> Option<(&'t str, Cursor<'t, 'a>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = Cursor {
            nodes: self.nodes,
            at: self.next,
        };
        let value = Cursor {
            nodes: self.nodes,
            at: self.next + 1,
        };
        self.next = value.end();
        Some((key.as_str().expect("object keys are strings"), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Members<'_, '_> {}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    tape: Vec<Node<'a>>,
}

/// Digits of an integer [`Parser::number`] reads without `f64` parsing:
/// below 10^15, so exact as an `f64`.
const FAST_DIGITS: usize = 15;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> Error {
        Error {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    /// Appends one value (and, for a container, its members) to the tape.
    fn value(&mut self) -> Result<(), Error> {
        let node = match self.bytes.get(self.pos) {
            None => return Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Node::Null)?,
            Some(b't') => self.eat("true").map(|()| Node::Bool(true))?,
            Some(b'f') => self.eat("false").map(|()| Node::Bool(false))?,
            Some(b'"') => Node::String(self.string()?),
            Some(&open @ (b'[' | b'{')) => return self.nested(open),
            Some(_) => self.number()?,
        };
        self.tape.push(node);
        Ok(())
    }

    /// Parses the array or object that `open` starts, one level deeper:
    /// its node, then its members, then the node's length and end.
    fn nested(&mut self, open: u8) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let at = self.tape.len();
        self.tape.push(Node::Null);
        let array = open == b'[';
        let len = if array { self.array()? } else { self.object()? };
        self.depth -= 1;
        let end = self.tape.len();
        self.tape[at] = if array {
            Node::Array { len, end }
        } else {
            Node::Object { len, end }
        };
        Ok(())
    }

    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat("\"")?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
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

    fn number(&mut self) -> Result<Node<'a>, Error> {
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
            return Ok(Node::Number(int as f64));
        }
        while more(self.bytes.get(self.pos)) {
            self.pos += 1;
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Node::Number)
            .map_err(|_| self.err("invalid number"))
    }

    /// The members of an array, whose `[` is at the cursor.
    fn array(&mut self) -> Result<usize, Error> {
        self.eat("[")?;
        let mut len = 0;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(len);
        }
        loop {
            self.skip_ws();
            self.value()?;
            len += 1;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(len);
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// The members of an object, whose `{` is at the cursor.
    fn object(&mut self) -> Result<usize, Error> {
        self.eat("{")?;
        let mut len = 0;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(len);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.tape.push(Node::String(key));
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            self.value()?;
            len += 1;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(len);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
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
    fn the_tape_holds_one_node_per_value_and_borrows_plain_strings() {
        let text = r#"{"a": [1, "x\ty", {}], "b": "plain"}"#;
        let tape = Tape::parse(text).unwrap();
        let root = tape.root();
        assert_eq!(root.node(), &Node::Object { len: 2, end: 8 });
        let [(_, a), (_, b)]: [(&str, Cursor); 2] = root
            .as_object()
            .unwrap()
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        assert_eq!(a.node(), &Node::Array { len: 3, end: 6 });
        let items: Vec<&Node> = a.as_array().unwrap().map(|c| c.node()).collect();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[1], Node::String(Cow::Owned(s)) if s == "x\ty"));
        assert_eq!(items[2], &Node::Object { len: 0, end: 6 });
        assert!(matches!(b.node(), Node::String(Cow::Borrowed("plain"))));
        assert_eq!(root.to_value(), from_str(text).unwrap());
    }

    #[test]
    fn the_tape_keeps_duplicate_members_and_the_tree_the_last() {
        let text = r#"{"k": 1, "j": true, "k": 2}"#;
        let tape = Tape::parse(text).unwrap();
        let members: Vec<(&str, Option<u64>)> = tape
            .root()
            .as_object()
            .unwrap()
            .map(|(k, v)| (k, v.as_u64()))
            .collect();
        assert_eq!(members, [("k", Some(1)), ("j", None), ("k", Some(2))]);
        assert_eq!(from_str(text).unwrap().get("k").unwrap().as_u64(), Some(2));
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
