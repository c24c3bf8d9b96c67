//! A minimal, dependency-free JSON value type with a parser and printers.
//!
//! The build environment has no network access to crates.io, so the
//! metadata-embedding paths (profiles, architecture descriptions, PDG
//! summaries) and the daemon's wire frames serialize through this module
//! instead of serde.
//!
//! An object is a [`Map`]: its members in one reference-counted block,
//! sorted by key, each key once. Every serialization is therefore
//! deterministic — a requirement for the byte-identical round-trip tests —
//! an object costs one allocation of exactly its members, and cloning a
//! value that holds one only counts a reference, so a reader that keeps a
//! member of a parsed reply copies nothing. The parser builds every array
//! and object once, at its final length: the items and members of each open
//! bracket wait on two stacks shared by the whole document and are drained
//! into one block when it closes. A string without escapes is one copy of
//! its slice of the input. Numbers follow RFC 8259's grammar; an integer
//! outside `i64` and a float outside `f64`'s range are refused, so every
//! accepted number prints back to an equal value.

use std::fmt;
use std::sync::Arc;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part (kept exact).
    Int(i64),
    /// A fractional number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with deterministically ordered keys.
    Object(Map),
}

/// The members of a JSON object: one shared block sorted by key, each key
/// once. Lookup is a binary search; iteration is in key order. Cloning
/// counts a reference, and an empty map allocates nothing.
#[derive(Clone, Default, PartialEq)]
pub struct Map(Arc<[(String, Json)]>);

/// Iterator over a [`Map`]'s members in key order.
pub type Iter<'a> = std::iter::Map<std::slice::Iter<'a, (String, Json)>, SplitMember>;

type SplitMember = fn(&(String, Json)) -> (&String, &Json);

impl Map {
    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let at = self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok()?;
        Some(&self.0[at].1)
    }

    /// Does the map hold `key`?
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Does the map hold no member?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The members in key order.
    pub fn iter(&self) -> Iter<'_> {
        let split: SplitMember = |(k, v)| (k, v);
        self.0.iter().map(split)
    }

    /// The keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &String> + ExactSizeIterator {
        self.0.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Json> + ExactSizeIterator {
        self.0.iter().map(|(_, v)| v)
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Json);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Collects into one block — exactly sized when the iterator knows its
/// length — then sorts it in place. Of several members with one key the
/// last collected stays, as `insert` into a map keeps the last value.
impl FromIterator<(String, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(pairs: I) -> Map {
        let pairs = pairs.into_iter();
        if pairs.size_hint().1 == Some(0) {
            return Map::default();
        }
        let mut block: Arc<[(String, Json)]> = pairs.collect();
        if block.is_empty() {
            return Map::default();
        }
        let members = Arc::get_mut(&mut block).expect("a block just collected has one owner");
        if members.is_sorted_by(|a, b| a.0 < b.0) {
            return Map(block);
        }
        // Stable, so members with one key keep the order they came in.
        members.sort_by(|a, b| a.0.cmp(&b.0));
        if members.windows(2).all(|w| w[0].0 != w[1].0) {
            return Map(block);
        }
        let mut last_of_each = Vec::with_capacity(members.len());
        for at in 0..members.len() {
            let repeated = members
                .get(at + 1)
                .is_some_and(|next| next.0 == members[at].0);
            if !repeated {
                last_of_each.push(std::mem::replace(
                    &mut members[at],
                    (String::new(), Json::Null),
                ));
            }
        }
        Map(last_of_each.into())
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts (`[]` is
/// one level): the parser recurses once per level, and a hostile document
/// must not overflow the stack of the thread that parses it.
pub const MAX_DEPTH: usize = 128;

/// Version of the reply envelope shared by the CLI JSON outputs, the
/// daemon's `lint`/`audit`/`plan` methods, and the IDE's diagnostic pushes.
/// Bumped together with the daemon protocol when an envelope's shape moves.
pub const ENVELOPE_VERSION: i64 = 2;

/// Wrap a reply body in the unified envelope `{"v", "kind", ...fields}`.
/// The body's fields are spliced in at top level, so consumers keep
/// addressing `findings`, `audit`, or `plan` directly; `v` and `kind` let
/// them dispatch without knowing which entry point produced the document.
///
/// # Panics
/// `body` must be an object (every envelope payload is).
pub fn envelope(kind: &str, body: Json) -> Json {
    let Json::Object(fields) = body else {
        panic!("envelope body must be a JSON object");
    };
    let stamp = [
        ("v".to_string(), Json::Int(ENVELOPE_VERSION)),
        ("kind".to_string(), Json::Str(kind.to_string())),
    ];
    Json::object(
        fields
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .chain(stamp),
    )
}

impl Json {
    /// Build an object from key/value pairs (of a repeated key, the last
    /// value stays).
    pub fn object(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// The value as an i64 (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64 (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an f64 (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's members.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Compact rendering of an object with the `rendered` members — each a
    /// key the object does not hold and the compact text of its value —
    /// merged in where their keys sort: byte for byte what
    /// [`Json::to_string_compact`] gives for the object that holds those
    /// members as values. For replies that embed a large document somebody
    /// has already rendered.
    ///
    /// # Panics
    /// `self` must be an object.
    pub fn to_string_compact_with(&self, rendered: &[(&str, &str)]) -> String {
        let Json::Object(map) = self else {
            panic!("only an object has members");
        };
        let mut members: Vec<(&str, Result<&Json, &str>)> = map
            .iter()
            .map(|(k, v)| (k.as_str(), Ok(v)))
            .chain(rendered.iter().map(|&(k, text)| (k, Err(text))))
            .collect();
        members.sort_by_key(|&(k, _)| k);
        let embedded: usize = rendered.iter().map(|(k, text)| k.len() + text.len()).sum();
        let mut out = String::with_capacity(embedded + 256);
        out.push('{');
        for (i, (k, v)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, k);
            out.push(':');
            match v {
                Ok(value) => value.write(&mut out, None, 0),
                Err(text) => out.push_str(text),
            }
        }
        out.push('}');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                use fmt::Write;
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let s = format!("{v}");
                    out.push_str(&s);
                    // Keep the float/int distinction through a round trip.
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns `None` on any syntax error, trailing
    /// garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser::new(text);
        let v = p.value(MAX_DEPTH)?;
        p.skip_ws();
        (p.pos == text.len()).then_some(v)
    }

    /// Parse one JSON value off the front of `text`, returning the value and
    /// the number of bytes consumed (leading whitespace included, trailing
    /// whitespace not).
    ///
    /// The incremental twin of [`Json::parse`] for concatenated or partial
    /// NDJSON buffers: a transport can peel complete frames off an
    /// accumulating read buffer without re-scanning or copying the rest, and
    /// a `None` on a *prefix* of a valid document simply means "read more
    /// bytes". Callers feeding newline-delimited streams should strip the
    /// frame separator themselves (it is trailing, not leading, whitespace).
    ///
    /// Caveat: a bare number at the very end of the buffer is ambiguous
    /// (`12` may be the prefix of `123`), and is parsed greedily as
    /// complete. NDJSON framing resolves this in practice — a number is only
    /// final once its newline separator has arrived, so split buffers end
    /// either mid-token (syntax error → `None`) or at a separator. Nesting
    /// deeper than [`MAX_DEPTH`] is `None` however many bytes follow.
    pub fn parse_prefix(text: &str) -> Option<(Json, usize)> {
        let mut p = Parser::new(text);
        let v = p.value(MAX_DEPTH)?;
        Some((v, p.pos))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy maximal runs needing no escape in one shot; most strings are
    // entirely plain.
    let mut rest = s;
    while let Some(i) = rest.find(|c: char| matches!(c, '"' | '\\') || (c as u32) < 0x20) {
        out.push_str(&rest[..i]);
        let c = rest[i..].chars().next().expect("found above");
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push_str(&format!("\\u{:04x}", c as u32)),
        }
        rest = &rest[i + c.len_utf8()..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A recursive-descent reader over one document. The items of every array
/// still open wait on `items`, innermost last, and the members of every
/// object still open on `members`; a closing bracket drains its own into a
/// block of exactly their number.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    items: Vec<Json>,
    members: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            items: Vec::new(),
            members: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After optional whitespace, is `byte` next? Consumes it if so.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    /// After an item or member: `Some(false)` past a `,`, `Some(true)` past
    /// the `close` bracket, `None` on anything else.
    fn separator(&mut self, close: u8) -> Option<bool> {
        if self.eat(b',') {
            Some(false)
        } else {
            self.eat(close).then_some(true)
        }
    }

    /// The value at `pos`, in which arrays and objects nest `levels` deep.
    fn value(&mut self, levels: usize) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(levels.checked_sub(1)?),
            b'{' => self.object(levels.checked_sub(1)?),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Option<Json> {
        self.text[self.pos..].starts_with(lit).then(|| {
            self.pos += lit.len();
            v
        })
    }

    fn array(&mut self, levels: usize) -> Option<Json> {
        self.pos += 1;
        let start = self.items.len();
        if !self.eat(b']') {
            loop {
                let item = self.value(levels)?;
                self.items.push(item);
                if self.separator(b']')? {
                    break;
                }
            }
        }
        Some(Json::Array(self.items.drain(start..).collect()))
    }

    fn object(&mut self, levels: usize) -> Option<Json> {
        self.pos += 1;
        let start = self.members.len();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                if !self.eat(b':') {
                    return None;
                }
                let value = self.value(levels)?;
                self.members.push((key, value));
                if self.separator(b'}')? {
                    break;
                }
            }
        }
        Some(Json::Object(self.members.drain(start..).collect()))
    }

    /// The string whose opening quote is at `pos`.
    fn string(&mut self) -> Option<String> {
        let b = self.text.as_bytes();
        if b.get(self.pos) != Some(&b'"') {
            return None;
        }
        let start = self.pos + 1;
        // Most strings close without an escape: one copy of the slice. The
        // slice ends at an ASCII quote, so it is whole UTF-8.
        let mut at = start;
        loop {
            match *b.get(at)? {
                b'"' => {
                    self.pos = at + 1;
                    return Some(self.text[start..at].to_owned());
                }
                b'\\' => break,
                _ => at += 1,
            }
        }
        let mut end = at;
        loop {
            match *b.get(end)? {
                b'"' => break,
                b'\\' => end += 2,
                _ => end += 1,
            }
        }
        // No escape is shorter than the text it stands for, so the raw
        // length bounds the decoded one and the buffer never grows.
        let mut out = String::with_capacity(end - start);
        let mut run = start;
        while at < end {
            if b[at] != b'\\' {
                at += 1;
                continue;
            }
            out.push_str(&self.text[run..at]);
            let escape = b[at + 1];
            at += 2;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let cp = hex4(b, at)?;
                    at += 4;
                    let paired = b.get(at..at + 2) == Some(b"\\u");
                    let c = if (0xD800..0xDC00).contains(&cp) && paired {
                        // A high surrogate and the escape after it: one
                        // astral code point when that is a low surrogate.
                        let lo = hex4(b, at + 2)?;
                        at += 6;
                        if (0xDC00..0xE000).contains(&lo) {
                            char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                        } else {
                            // Unpaired high surrogate; the second escape
                            // stands on its own.
                            out.push('\u{fffd}');
                            char::from_u32(lo)
                        }
                    } else {
                        char::from_u32(cp)
                    };
                    // Unpaired surrogates degrade to U+FFFD.
                    out.push(c.unwrap_or('\u{fffd}'));
                }
                _ => return None,
            }
            run = at;
        }
        out.push_str(&self.text[run..end]);
        self.pos = end + 1;
        Some(out)
    }

    /// `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`: an `Int` without fraction
    /// or exponent (refused outside `i64`), else a `Float` (refused when
    /// it overflows to an infinity).
    fn number(&mut self) -> Option<Json> {
        let b = self.text.as_bytes();
        let start = self.pos;
        let mut at = start + usize::from(b.get(start) == Some(&b'-'));
        match b.get(at)? {
            b'0' => at += 1,
            b'1'..=b'9' => at = digits(b, at),
            _ => return None,
        }
        let mut float = false;
        if b.get(at) == Some(&b'.') {
            float = true;
            at = some_digits(b, at + 1)?;
        }
        if matches!(b.get(at), Some(b'e' | b'E')) {
            float = true;
            at += 1;
            at += usize::from(matches!(b.get(at), Some(b'+' | b'-')));
            at = some_digits(b, at)?;
        }
        let text = &self.text[start..at];
        self.pos = at;
        if float {
            let v: f64 = text.parse().ok()?;
            v.is_finite().then_some(Json::Float(v))
        } else {
            text.parse().ok().map(Json::Int)
        }
    }
}

/// The end of the run of ASCII digits at `at`.
fn digits(b: &[u8], at: usize) -> usize {
    at + b[at..].iter().take_while(|c| c.is_ascii_digit()).count()
}

/// The end of a non-empty run of ASCII digits at `at`.
fn some_digits(b: &[u8], at: usize) -> Option<usize> {
    let end = digits(b, at);
    (end > at).then_some(end)
}

/// The four hex digits at `at`.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    let digits = b.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |cp, &d| Some(cp << 4 | char::from(d).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Json::object([
            ("name".to_string(), Json::Str("machine \"x\"".into())),
            (
                "cores".to_string(),
                Json::Array(vec![Json::Int(0), Json::Int(1)]),
            ),
            ("ratio".to_string(), Json::Float(0.5)),
            ("flag".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text), Some(v.clone()));
        }
    }

    #[test]
    fn rendered_members_land_where_their_keys_sort() {
        let big = Json::Array(vec![Json::Int(1), Json::Str("two".into())]);
        let whole = Json::object([
            ("a".to_string(), big.clone()),
            ("k\"ey".to_string(), Json::Null),
            ("m".to_string(), Json::Bool(false)),
            ("z".to_string(), big.clone()),
        ]);
        let rest = Json::object([
            ("k\"ey".to_string(), Json::Null),
            ("m".to_string(), Json::Bool(false)),
        ]);
        let text = big.to_string_compact();
        assert_eq!(
            rest.to_string_compact_with(&[("z", &text), ("a", &text)]),
            whole.to_string_compact()
        );
        assert_eq!(
            Json::object([]).to_string_compact_with(&[]),
            Json::object([]).to_string_compact()
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": "c\nd"}], "e": -3}"#).unwrap();
        assert_eq!(v.get("e").and_then(Json::as_i64), Some(-3));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("c\nd"));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("1 2"), None);
        assert_eq!(Json::parse(""), None);
        assert_eq!(Json::parse(r#"{"a" 1}"#), None);
        assert_eq!(Json::parse(r#"{"a":1,}"#), None);
        assert_eq!(Json::parse(r#"{1:2}"#), None);
    }

    #[test]
    fn rejects_trailing_garbage_after_top_level_value() {
        // A wire frame must hold exactly one value: anything after the
        // top-level value is a protocol error, not ignorable noise.
        assert_eq!(Json::parse(r#"{"a":1} x"#), None);
        assert_eq!(Json::parse("[1] [2]"), None);
        assert_eq!(Json::parse("\"abc\"garbage"), None);
        assert_eq!(Json::parse("true false"), None);
        assert_eq!(Json::parse("null,"), None);
        // Pure trailing whitespace stays fine.
        assert_eq!(Json::parse(" 7 \n\t"), Some(Json::Int(7)));
    }

    /// RFC 8259's number grammar, and nothing that prints back as
    /// something else.
    #[test]
    fn numbers_are_the_rfc_grammar_and_reprint_to_equal_values() {
        let accepted = [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("7", Json::Int(7)),
            ("-12", Json::Int(-12)),
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("0.5", Json::Float(0.5)),
            ("-0.25", Json::Float(-0.25)),
            ("2.0", Json::Float(2.0)),
            ("1e3", Json::Float(1000.0)),
            ("1E+3", Json::Float(1000.0)),
            ("25e-2", Json::Float(0.25)),
            ("-1.5e2", Json::Float(-150.0)),
            ("1e308", Json::Float(1e308)),
            ("1e-400", Json::Float(0.0)),
        ];
        for (text, want) in &accepted {
            let v = Json::parse(text).unwrap_or_else(|| panic!("{text} is refused"));
            assert_eq!(&v, want, "{text}");
            let again = Json::parse(&v.to_string_compact());
            assert_eq!(again.as_ref(), Some(&v), "{text} reprints as {v}");
            let in_array = Json::parse(&format!("[{text}]")).expect("in an array");
            assert_eq!(in_array.as_array(), Some(&[v][..]), "[{text}]");
        }
        let refused = "+1 .5 1. 01 -01 00 - --1 1.e5 1e 1e+ 1E- 0x10 1e999 -1e400 [1e400] \
                       9223372036854775808 Infinity NaN";
        for text in refused.split(' ') {
            assert_eq!(Json::parse(text), None, "{text} is accepted");
        }
    }

    #[test]
    fn decodes_unicode_escapes_and_surrogate_pairs() {
        // BMP escapes.
        assert_eq!(
            Json::parse("\"\\u00e9\\u2211\""),
            Some(Json::Str("é∑".into()))
        );
        // Raw (unescaped) UTF-8 passes through, beside escapes too.
        assert_eq!(Json::parse(r#""é∑😀""#), Some(Json::Str("é∑😀".into())));
        assert_eq!(
            Json::parse(r#""é\n∑\"😀""#),
            Some(Json::Str("é\n∑\"😀".into()))
        );
        // Astral plane via a surrogate pair (U+1F600).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\""),
            Some(Json::Str("😀".into()))
        );
        // Unpaired surrogates degrade to U+FFFD instead of crashing the
        // connection.
        assert_eq!(
            Json::parse(r#""\ud800""#),
            Some(Json::Str("\u{fffd}".into()))
        );
        assert_eq!(
            Json::parse(r#""\udc00""#),
            Some(Json::Str("\u{fffd}".into()))
        );
        // High surrogate followed by a plain character or a normal escape:
        // what follows survives on its own.
        assert_eq!(
            Json::parse(r#""\ud800A""#),
            Some(Json::Str("\u{fffd}A".into()))
        );
        assert_eq!(
            Json::parse("\"\\ud800\\u0041\""),
            Some(Json::Str("\u{fffd}A".into()))
        );
        // Truncated or malformed escapes are syntax errors.
        assert_eq!(Json::parse(r#""\ud83d\ude0"#), None);
        assert_eq!(Json::parse(r#""\u12""#), None);
        assert_eq!(Json::parse(r#""\uzzzz""#), None);
        assert_eq!(Json::parse(r#""\u+abc""#), None);
        assert_eq!(Json::parse(r#""\q""#), None);
        assert_eq!(Json::parse(r#""ab\"#), None);
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        for s in [
            "héllo wörld",
            "日本語テスト",
            "mixed 😀 emoji ∑∫√",
            "\u{fffd}",
            "tab\tquote\"back\\slash\u{1}",
        ] {
            let v = Json::Str(s.to_string());
            for text in [v.to_string_compact(), v.to_string_pretty()] {
                assert_eq!(Json::parse(&text), Some(v.clone()), "round trip of {s:?}");
            }
            // Keys round-trip too.
            let o = Json::object([(s.to_string(), Json::Int(1))]);
            assert_eq!(Json::parse(&o.to_string_compact()), Some(o));
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = Json::Int(i64::MAX);
        assert_eq!(Json::parse(&big.to_string_compact()), Some(big));
        // Floats that print without a dot keep their float-ness.
        let f = Json::Float(2.0);
        assert_eq!(Json::parse(&f.to_string_compact()), Some(f));
    }

    #[test]
    fn a_map_is_sorted_and_keeps_the_last_of_a_repeated_key() {
        let m = Json::object([
            ("b".to_string(), Json::Int(1)),
            ("a".to_string(), Json::Int(2)),
            ("b".to_string(), Json::Int(3)),
        ]);
        assert_eq!(m.to_string_compact(), r#"{"a":2,"b":3}"#);
        let o = m.as_object().expect("an object");
        assert_eq!(o.len(), 2);
        assert_eq!(o.keys().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(
            o.values().collect::<Vec<_>>(),
            [&Json::Int(2), &Json::Int(3)]
        );
        assert!(o.contains_key("a") && !o.contains_key("c"));
        assert_eq!(format!("{o:?}"), r#"{"a": Int(2), "b": Int(3)}"#);
        // A clone shares the block.
        let Json::Object(copy) = m.clone() else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&copy.0, &o.0));
        assert!(Map::default().is_empty());
    }

    #[test]
    fn parse_prefix_peels_concatenated_values() {
        // Two NDJSON frames plus the start of a third in one buffer.
        let buf = "{\"id\":1,\"ok\":true}\n{\"id\":2}\n{\"id\":";
        let (v1, n1) = Json::parse_prefix(buf).expect("first frame complete");
        assert_eq!(v1.as_object().unwrap().get("id"), Some(&Json::Int(1)));
        assert_eq!(&buf[..n1], "{\"id\":1,\"ok\":true}");
        let rest = &buf[n1..];
        let (v2, n2) = Json::parse_prefix(rest).expect("second frame complete");
        assert_eq!(v2, Json::object([("id".to_string(), Json::Int(2))]));
        // Leading whitespace (the frame separator) is consumed.
        assert_eq!(&rest[..n2], "\n{\"id\":2}");
        // The trailing partial frame is not a value yet.
        assert_eq!(Json::parse_prefix(&rest[n2..]), None);
    }

    #[test]
    fn parse_prefix_rejects_split_mid_frame() {
        let full = r#"{"method":"ide/change","params":{"lines":["a","b"]}}"#;
        // Every strict prefix is incomplete (no bare top-level numbers in
        // the protocol, so no ambiguity): parse_prefix must say "need more".
        for cut in 1..full.len() {
            assert_eq!(
                Json::parse_prefix(&full[..cut]),
                None,
                "cut at {cut} must be incomplete"
            );
        }
        let (v, n) = Json::parse_prefix(full).expect("whole frame parses");
        assert_eq!(n, full.len());
        assert_eq!(Json::parse(full), Some(v));
    }

    #[test]
    fn parse_prefix_matches_parse_on_whole_documents() {
        for doc in ["[1,2,3]", "\"x\"", "null", "  {\"a\":[true,false]} "] {
            let whole = Json::parse(doc.trim());
            let (v, n) = Json::parse_prefix(doc).expect("parses");
            assert_eq!(Some(v), whole);
            assert!(n <= doc.len());
        }
    }
}
