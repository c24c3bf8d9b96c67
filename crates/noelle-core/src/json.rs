//! A minimal, dependency-free JSON value type with a parser and printers.
//!
//! The build environment has no network access to crates.io, so the
//! metadata-embedding paths (profiles, architecture descriptions, PDG
//! summaries) serialize through this module instead of serde. Objects keep
//! their keys in a `BTreeMap` so every serialization is deterministic — a
//! requirement for the byte-identical module round-trip tests.

use std::collections::BTreeMap;
use std::fmt;

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
    Object(BTreeMap<String, Json>),
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
    let Json::Object(mut fields) = body else {
        panic!("envelope body must be a JSON object");
    };
    fields.insert("v".to_string(), Json::Int(ENVELOPE_VERSION));
    fields.insert("kind".to_string(), Json::Str(kind.to_string()));
    Json::Object(fields)
}

impl Json {
    /// Build an object from key/value pairs.
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

    /// The value as an object map.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
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
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
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
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        Some((v, pos))
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// The value at `pos`, in which arrays and objects nest `levels` deep.
fn parse_value(b: &[u8], pos: &mut usize, levels: usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            let levels = levels.checked_sub(1)?;
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, levels)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Array(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            let levels = levels.checked_sub(1)?;
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                eat(b, pos, b':')?;
                map.insert(key, parse_value(b, pos, levels)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Object(map));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    // Fast path: scan the leading escape-free run and copy it in one shot;
    // most strings close without any escape at all.
    let start = *pos;
    let mut i = *pos;
    loop {
        match *b.get(i)? {
            b'"' => {
                let s = std::str::from_utf8(&b[start..i]).ok()?;
                *pos = i + 1;
                return Some(s.to_string());
            }
            b'\\' => break,
            _ => i += 1,
        }
    }
    let mut out = String::with_capacity(i - start + 16);
    out.push_str(std::str::from_utf8(&b[start..i]).ok()?);
    *pos = i;
    loop {
        let c = *b.get(*pos)?;
        *pos += 1;
        match c {
            b'"' => return Some(out),
            b'\\' => {
                let e = *b.get(*pos)?;
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let cp = parse_hex4(b, pos)?;
                        if (0xD800..=0xDBFF).contains(&cp) {
                            // High surrogate: a `\uXXXX` low surrogate must
                            // follow to form one astral code point.
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if (0xDC00..=0xDFFF).contains(&lo) {
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                } else {
                                    // Unpaired high surrogate; the second
                                    // escape stands on its own.
                                    out.push('\u{fffd}');
                                    out.push(char::from_u32(lo).unwrap_or('\u{fffd}'));
                                }
                            } else {
                                out.push('\u{fffd}');
                            }
                        } else {
                            // Lone low surrogates land in the from_u32 None
                            // branch and degrade to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return None,
                }
            }
            c => {
                // Re-decode multi-byte UTF-8 sequences.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let len = utf8_len(c);
                    let s = std::str::from_utf8(b.get(start..start + len)?).ok()?;
                    out.push_str(s);
                    *pos = start + len;
                }
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Option<u32> {
    let hex = std::str::from_utf8(b.get(*pos..*pos + 4)?).ok()?;
    *pos += 4;
    u32::from_str_radix(hex, 16).ok()
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).ok()?;
    if text.is_empty() || text == "-" {
        return None;
    }
    if is_float {
        text.parse::<f64>().ok().map(Json::Float)
    } else {
        text.parse::<i64>().ok().map(Json::Int)
    }
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

    #[test]
    fn decodes_unicode_escapes_and_surrogate_pairs() {
        // BMP escapes.
        assert_eq!(
            Json::parse("\"\\u00e9\\u2211\""),
            Some(Json::Str("é∑".into()))
        );
        // Raw (unescaped) UTF-8 passes through.
        assert_eq!(Json::parse(r#""é∑😀""#), Some(Json::Str("é∑😀".into())));
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
        // High surrogate followed by a normal escape: the second escape
        // survives on its own.
        assert_eq!(
            Json::parse(r#""\ud800A""#),
            Some(Json::Str("\u{fffd}A".into()))
        );
        // Truncated escape is a syntax error.
        assert_eq!(Json::parse(r#""\ud83d\ude0"#), None);
        assert_eq!(Json::parse(r#""\uzzzz""#), None);
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        for s in [
            "héllo wörld",
            "日本語テスト",
            "mixed 😀 emoji ∑∫√",
            "\u{fffd}",
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
