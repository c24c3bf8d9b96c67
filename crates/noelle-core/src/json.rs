//! A minimal, dependency-free JSON value type with a validating parser and
//! printers.
//!
//! The build environment has no network access to crates.io, so the
//! metadata-embedding paths (profiles, architecture descriptions, PDG
//! summaries) and the daemon's wire frames serialize through this module
//! instead of serde.
//!
//! An object is a [`Map`]: its members in one reference-counted block,
//! sorted by key, each key once. Every serialization is therefore
//! deterministic — a requirement for the byte-identical round-trip tests —
//! and cloning a value that holds an object only counts a reference.
//!
//! A parse is one validating pass. It accepts RFC 8259 nested at most
//! [`MAX_DEPTH`] deep (raw control bytes inside strings let through; an
//! integer outside `i64` and a float outside `f64`'s range refused, so every
//! accepted number prints back to an equal value) and names the byte where
//! it stops on anything else ([`JsonError`]). On its way it records a
//! *tape*: per non-empty array and object, its extent, the end of its
//! subtree and whether its text is exactly what [`Json::to_string_compact`]
//! writes for it (no whitespace, keys without escapes in strictly ascending
//! order, numbers and escapes spelled as the writer spells them). The text
//! is copied once into a block shared with the tape, and a parsed object is
//! a *raw* map of that document: its members are decoded on first look — at
//! most once, however many threads look — by the rule [`Json::object`]
//! follows, and the objects among them stay raw in turn. Arrays are decoded
//! with whatever holds them, as `Json::Array` is a public `Vec`. Compact
//! output copies the text of a canonical object verbatim, read or not;
//! anything else is rendered member by member. So a reader that takes three
//! members of an 800 kB reply and prints them pays for one pass, one copy of
//! the text and the members on the path to them, and dropping the reply
//! frees a handful of blocks. The price: a member kept from a large reply,
//! a clone of it included, pins that reply's text, tape and every object
//! decoded in it until the last such member is dropped.

use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

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
/// counts a reference, and an empty map allocates nothing. A parsed map
/// decodes its block from the document's text the first time it is read.
#[derive(Default)]
pub struct Map(Repr);

enum Repr {
    /// Members collected by [`Json::object`].
    Built(Arc<[(String, Json)]>),
    /// The object at this tape index of a parsed document, held by a
    /// caller.
    Raw(Arc<Document>, usize),
    /// The object at this tape index of a parsed document, as a member or
    /// item in a block that same document holds. Nothing else ever holds
    /// one — the decoder makes it only for such a block, and a clone is a
    /// `Raw` — so whoever lends out the block keeps the document alive, and
    /// a strong reference here would be a cycle.
    Held(Weak<Document>, usize),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Built(Arc::default())
    }
}

/// Iterator over a [`Map`]'s members in key order.
pub type Iter<'a> = std::iter::Map<std::slice::Iter<'a, (String, Json)>, SplitMember>;

type SplitMember = fn(&(String, Json)) -> (&String, &Json);

impl Map {
    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let members = self.members();
        let at = members
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()?;
        Some(&members[at].1)
    }

    /// Does the map hold `key`?
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Does the map hold no member?
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// The members in key order.
    pub fn iter(&self) -> Iter<'_> {
        let split: SplitMember = |(k, v)| (k, v);
        self.members().iter().map(split)
    }

    /// The keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &String> + ExactSizeIterator {
        self.members().iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Json> + ExactSizeIterator {
        self.members().iter().map(|(_, v)| v)
    }

    /// The block, decoded now if this is a parsed object nobody has read.
    fn members(&self) -> &[(String, Json)] {
        match &self.0 {
            Repr::Built(block) => block,
            Repr::Raw(doc, node) => doc.members(*node, || Arc::downgrade(doc)),
            Repr::Held(doc, node) => held(doc).members(*node, || Weak::clone(doc)),
        }
    }

    /// The text compact output writes for this map, when that is its text
    /// as parsed.
    fn verbatim(&self) -> Option<&str> {
        match &self.0 {
            Repr::Built(_) => None,
            Repr::Raw(doc, node) => doc.verbatim(*node),
            Repr::Held(doc, node) => held(doc).verbatim(*node),
        }
    }
}

/// The document a [`Repr::Held`] map names.
fn held(doc: &Weak<Document>) -> &Document {
    // SAFETY: a held map lives only in a block of the document it names
    // (see `Repr::Held`), and that block is lent out only by a borrow of a
    // value that keeps the document alive: a `Raw` map, or a held map lent
    // out the same way. So the document outlives this borrow of `doc`.
    unsafe { &*doc.as_ptr() }
}

impl Clone for Map {
    fn clone(&self) -> Map {
        Map(match &self.0 {
            Repr::Built(block) => Repr::Built(Arc::clone(block)),
            Repr::Raw(doc, node) => Repr::Raw(Arc::clone(doc), *node),
            // The document is alive while `self` is borrowed (see
            // `Repr::Held`), so the upgrade succeeds.
            Repr::Held(doc, node) => doc
                .upgrade()
                .map_or_else(Repr::default, |doc| Repr::Raw(doc, *node)),
        })
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Map) -> bool {
        self.members() == other.members()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Json);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<(String, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(pairs: I) -> Map {
        Map(Repr::Built(block_of(pairs)))
    }
}

/// A map's one collection rule, for built and decoded maps alike: collect
/// into one block — exactly sized when the iterator knows its length — and
/// sort it in place. Of several members with one key the last collected
/// stays, as `insert` into a map keeps the last value.
fn block_of<I: IntoIterator<Item = (String, Json)>>(pairs: I) -> Arc<[(String, Json)]> {
    let pairs = pairs.into_iter();
    if pairs.size_hint().1 == Some(0) {
        return Arc::default();
    }
    let mut block: Arc<[(String, Json)]> = pairs.collect();
    if block.is_empty() {
        return Arc::default();
    }
    let members = Arc::get_mut(&mut block).expect("a block just collected has one owner");
    if members.is_sorted_by(|a, b| a.0 < b.0) {
        return block;
    }
    // Stable, so members with one key keep the order they came in.
    members.sort_by(|a, b| a.0.cmp(&b.0));
    if members.windows(2).all(|w| w[0].0 != w[1].0) {
        return block;
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
    last_of_each.into()
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A validated text and its tape, shared by every map parsed from it.
struct Document {
    text: Box<str>,
    /// One entry per non-empty array and object, in document order.
    tape: Vec<Node>,
}

/// A non-empty array or object of a [`Document`].
struct Node {
    /// Offset of the opening bracket.
    start: usize,
    /// Offset just past the closing bracket.
    end: usize,
    /// Tape index just past this container's subtree.
    next: usize,
    /// Items or members as written, a repeated key counted each time.
    items: usize,
    /// Is `text[start..end]` what compact output writes for the value?
    canonical: bool,
    /// An object's members, once somebody has looked.
    members: OnceLock<Arc<[(String, Json)]>>,
}

impl Document {
    /// The members of the object at tape index `node`, decoded now if
    /// nobody has looked yet; the objects among them are held by the
    /// document `owner` returns, which is this one.
    fn members(&self, node: usize, owner: impl FnOnce() -> Weak<Document>) -> &[(String, Json)] {
        let Some(object) = self.tape.get(node) else {
            return &[];
        };
        object.members.get_or_init(|| {
            let mut decoder = Decoder {
                text: &self.text,
                tape: &self.tape,
                at: object.start + 1,
                next: node + 1,
                nest: Nest::Held(owner()),
            };
            block_of((0..object.items).map(|_| decoder.member()))
        })
    }

    /// The text of the object at `node` when it is canonical. A decoded
    /// block never changes, so that stays what compact output writes.
    fn verbatim(&self, node: usize) -> Option<&str> {
        let object = self.tape.get(node)?;
        let text = self.text.get(object.start..object.end)?;
        object.canonical.then_some(text)
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts (`[]` is
/// one level): the validator recurses once per level, and a hostile
/// document must not overflow the stack of the thread that parses it.
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

/// Where [`Json::try_parse`] stopped, and what it expected there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the text: the first byte that does not fit, or the
    /// text's length when it ends too early.
    pub offset: usize,
    /// 1-based line of `offset`.
    pub line: usize,
    /// 1-based column of `offset`, in characters.
    pub column: usize,
    /// What would have been accepted at `offset`.
    pub expected: &'static str,
}

impl JsonError {
    fn new(text: &str, offset: usize, expected: &'static str) -> JsonError {
        let before = text.as_bytes().get(..offset).unwrap_or_default();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        // A character is one byte that is not a UTF-8 continuation byte.
        let chars = before[line_start..].iter().filter(|&&b| b & 0xC0 != 0x80);
        JsonError {
            offset,
            line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
            column: 1 + chars.count(),
            expected,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expected {} at line {}, column {} (byte {})",
            self.expected, self.line, self.column, self.offset
        )
    }
}

impl std::error::Error for JsonError {}

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
            Json::Float(v) => write_float(out, *v),
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
                if let (None, Some(text)) = (indent, map.verbatim()) {
                    out.push_str(text);
                    return;
                }
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

    /// Parse a JSON document: [`Json::try_parse`] without the position of a
    /// refusal.
    pub fn parse(text: &str) -> Option<Json> {
        Json::try_parse(text).ok()
    }

    /// Parse a JSON document, or say where it stops being one: a syntax
    /// error, trailing garbage, or nesting deeper than [`MAX_DEPTH`].
    ///
    /// # Errors
    /// The first byte that does not fit, and what was expected there.
    pub fn try_parse(text: &str) -> Result<Json, JsonError> {
        let mut v = Validator {
            text,
            pos: 0,
            tape: Vec::new(),
        };
        v.skip_ws();
        let start = v.pos;
        let fault = |f: Fault| JsonError::new(text, f.at, f.expected);
        v.value(MAX_DEPTH, &mut true).map_err(fault)?;
        let end = v.pos;
        v.skip_ws();
        if v.pos < text.len() {
            return Err(JsonError::new(text, v.pos, "the end of the text"));
        }
        let text = text.get(..end).unwrap_or(text);
        if v.tape.is_empty() {
            // A scalar or an empty container: nothing to share, and no
            // object for `nest` to make.
            let mut decoder = Decoder {
                text,
                tape: &[],
                at: start,
                next: 0,
                nest: Nest::Held(Weak::new()),
            };
            return Ok(decoder.value());
        }
        let mut tape = v.tape;
        if tape.capacity() > 2 * tape.len() {
            // Most of the brackets it made room for were inside strings.
            tape.shrink_to_fit();
        }
        let doc = Arc::new(Document {
            text: text.into(),
            tape,
        });
        if doc.text.as_bytes().get(start) == Some(&b'{') {
            return Ok(Json::Object(Map(Repr::Raw(doc, 0))));
        }
        let mut decoder = Decoder {
            text: &doc.text,
            tape: &doc.tape,
            at: start,
            next: 0,
            nest: Nest::Owned(&doc),
        };
        Ok(decoder.value())
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

/// A finite float as `{}` prints it, with `.0` appended when that has no
/// fraction or exponent, so it parses back as a float; `null` otherwise.
/// What compact output writes for a `Json::Float`, for writers that render
/// a document straight into text.
pub fn write_float(out: &mut String, v: f64) {
    use fmt::Write;
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// `s` quoted, with `"`, `\` and the control bytes escaped: `\n`, `\r` and
/// `\t` by name, the rest as `\u00xx`. Every byte escaped is ASCII, so runs
/// between them are copied as they are. What compact output writes for a
/// `Json::Str` or a key, for writers that render a document straight into
/// text.
pub fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let b = s.as_bytes();
    let mut run = 0;
    loop {
        let at = run + plain_run(&b[run..]);
        if at == b.len() {
            break;
        }
        out.push_str(&s[run..at]);
        match b[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(c >> 4)]));
                out.push(char::from(HEX[usize::from(c & 0xf)]));
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// How many bytes at the front of `b` a string holds as they are: the run
/// before its first `"`, `\` or control byte, all of `b` when there is
/// none. Eight bytes at a time: in each word, the lowest byte flagged as
/// equal to a quote or a backslash, or as below 0x20, is exactly the first
/// such byte (a borrow only ever flags bytes above a true hit).
fn plain_run(b: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_byte = |w: u64| w.wrapping_sub(ONES) & !w;
    let mut words = b.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut words {
        let w = u64::from_le_bytes(<[u8; 8]>::try_from(chunk).unwrap_or_default());
        let quote = zero_byte(w ^ (ONES * u64::from(b'"')));
        let backslash = zero_byte(w ^ (ONES * u64::from(b'\\')));
        let control = w.wrapping_sub(ONES * 0x20) & !w;
        let hit = (quote | backslash | control) & HIGH;
        if hit != 0 {
            return at + (hit.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail
        .iter()
        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
        .unwrap_or(tail.len())
}

/// Where a validation stopped and what it expected there.
struct Fault {
    at: usize,
    expected: &'static str,
}

fn fault<T>(at: usize, expected: &'static str) -> Result<T, Fault> {
    Err(Fault { at, expected })
}

/// How a string is spelled, from most to least like the writer's output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Spelling {
    /// No escape and no raw control byte: the text is the string.
    Plain,
    /// Only the escapes [`write_escaped`] writes.
    Escaped,
    /// Anything else the grammar allows.
    Other,
}

/// The one pass over a document: checks it against the grammar, records
/// the tape, and finds out which containers are spelled as compact output
/// spells them.
struct Validator<'a> {
    text: &'a str,
    pos: usize,
    tape: Vec<Node>,
}

/// Most tape entries a parse reserves before validation reaches them: 1 MiB.
const TAPE_RESERVE: usize = (1 << 20) / std::mem::size_of::<Node>();

impl Validator<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace; was there any?
    fn skip_ws(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// The value at `pos`, in which arrays and objects nest `levels` deep.
    /// Clears `canonical` unless it is spelled as compact output spells it.
    fn value(&mut self, levels: usize, canonical: &mut bool) -> Result<(), Fault> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => {
                *canonical &= self.string()? != Spelling::Other;
                Ok(())
            }
            Some(b'[' | b'{') => match levels.checked_sub(1) {
                Some(levels) => {
                    *canonical &= self.container(levels)?;
                    Ok(())
                }
                None => fault(self.pos, "at most 128 levels of nesting"),
            },
            _ => self.number(canonical),
        }
    }

    fn literal(&mut self, lit: &'static str) -> Result<(), Fault> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        let same = lit.bytes().zip(rest).take_while(|(a, b)| a == *b).count();
        if same < lit.len() {
            return fault(self.pos + same, lit);
        }
        self.pos += lit.len();
        Ok(())
    }

    /// The array or object whose bracket is at `pos`, its items nesting
    /// `levels` deep: is it canonical? A non-empty one gets a tape entry
    /// before its items do.
    fn container(&mut self, levels: usize) -> Result<bool, Fault> {
        let text = self.text;
        let start = self.pos;
        let object = self.peek() == Some(b'{');
        let (close, after_item) = if object {
            (b'}', "',' or '}'")
        } else {
            (b']', "',' or ']'")
        };
        self.pos += 1;
        let mut canonical = !self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(canonical);
        }
        let node = self.tape.len();
        if node == 0 {
            // A document has no more containers than brackets: room
            // for them in one block, so a reply's tape is one allocation.
            // The brackets counted may sit in strings or past an error not
            // reached yet, so at most `TAPE_RESERVE` are; past that the
            // tape grows as containers are found.
            let rest = text.as_bytes().get(start..).unwrap_or_default();
            // `b | 0x20` is `{` for `{` and `[` alone; a byte-wide count
            // per run of 255 bytes is one the compiler vectorizes.
            let in_run = |run: &[u8]| run.iter().fold(0u8, |n, &b| n + u8::from(b | 0x20 == b'{'));
            let mut brackets = 0;
            for run in rest.chunks(255) {
                if brackets >= TAPE_RESERVE {
                    break;
                }
                brackets += usize::from(in_run(run));
            }
            self.tape.reserve_exact(brackets.min(TAPE_RESERVE));
        }
        self.tape.push(Node {
            start,
            end: start,
            next: node,
            items: 0,
            canonical: false,
            members: OnceLock::new(),
        });
        let mut items = 0;
        let mut last_key: Option<&[u8]> = None;
        loop {
            if object {
                if self.peek() != Some(b'"') {
                    return fault(self.pos, "a string key");
                }
                let key_start = self.pos + 1;
                let plain = self.string()? == Spelling::Plain;
                let key = text.as_bytes().get(key_start..self.pos - 1);
                let key = key.unwrap_or_default();
                canonical &= plain && last_key.is_none_or(|last| last < key);
                last_key = Some(key);
                canonical &= !self.skip_ws();
                if self.peek() != Some(b':') {
                    return fault(self.pos, "':'");
                }
                self.pos += 1;
                canonical &= !self.skip_ws();
            }
            self.value(levels, &mut canonical)?;
            items += 1;
            canonical &= !self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    canonical &= !self.skip_ws();
                }
                Some(b) if b == close => {
                    self.pos += 1;
                    break;
                }
                _ => return fault(self.pos, after_item),
            }
        }
        let next = self.tape.len();
        if let Some(entry) = self.tape.get_mut(node) {
            entry.end = self.pos;
            entry.next = next;
            entry.items = items;
            entry.canonical = canonical;
        }
        Ok(canonical)
    }

    /// The string whose opening quote is at `pos`: how is it spelled?
    fn string(&mut self) -> Result<Spelling, Fault> {
        let b = self.text.as_bytes();
        let mut at = self.pos + 1;
        let mut spelling = Spelling::Plain;
        loop {
            at += plain_run(b.get(at..).unwrap_or_default());
            if at >= b.len() {
                return fault(b.len(), "'\"' closing the string");
            }
            match b.get(at) {
                Some(b'"') => {
                    self.pos = at + 1;
                    return Ok(spelling);
                }
                Some(b'\\') => {
                    let (escape, next) = escape(b, at + 1)?;
                    spelling = spelling.max(escape);
                    at = next;
                }
                // A raw control byte: accepted, and written escaped.
                _ => {
                    spelling = Spelling::Other;
                    at += 1;
                }
            }
        }
    }

    /// `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`: an integer without fraction
    /// or exponent (refused outside `i64`), else a float (refused when it
    /// overflows to an infinity). A range refusal names the number's last
    /// byte.
    fn number(&mut self, canonical: &mut bool) -> Result<(), Fault> {
        let b = self.text.as_bytes();
        let start = self.pos;
        let mut at = start + usize::from(b.get(start) == Some(&b'-'));
        match b.get(at) {
            Some(b'0') => at += 1,
            Some(b'1'..=b'9') => at = digits(b, at),
            _ if at > start => return fault(at, "a digit"),
            _ => return fault(at, "a value"),
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
        if !float {
            if text.parse::<i64>().is_err() {
                return fault(at - 1, "an integer within i64's range");
            }
            *canonical &= text != "-0";
            return Ok(());
        }
        if let Some(written) = short_decimal_written(text) {
            *canonical &= written;
            return Ok(());
        }
        let Some(v) = text.parse::<f64>().ok().filter(|v| v.is_finite()) else {
            return fault(at - 1, "a number within f64's range");
        };
        *canonical = *canonical && written_as(text, v);
        Ok(())
    }
}

/// Is the float `text` what [`write_float`] writes for its value, read off
/// the text alone? Answered for `-?I.F` in at most 24 bytes with at most 15
/// significant digits: such a decimal is finite, and no other decimal of
/// at most 15 digits rounds to the same `f64`, so the shortest spelling
/// that reads back as it — what `{}` prints, never with an exponent — has
/// exactly its digits. Then it is written so when `F` is `0` (an integer,
/// which the writer ends in `.0`) or does not end in a zero. `None` for any
/// other float: [`written_as`] formats it.
fn short_decimal_written(text: &str) -> Option<bool> {
    if text.len() > 24 {
        return None;
    }
    let (int, frac) = text.strip_prefix('-').unwrap_or(text).split_once('.')?;
    if !frac.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let digits = || int.bytes().chain(frac.bytes());
    let total = int.len() + frac.len();
    let leading = digits().take_while(|&c| c == b'0').count();
    let trailing = digits().rev().take_while(|&c| c == b'0').count();
    if total.saturating_sub(leading + trailing) > 15 {
        return None;
    }
    Some(frac == "0" || !frac.ends_with('0'))
}

/// Is `text` what [`write_float`] writes for `v`? Compared while `v` is
/// being formatted, so nothing is allocated.
fn written_as(text: &str, v: f64) -> bool {
    /// What is left of the text once the output so far matched it.
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    if fmt::write(&mut rest, format_args!("{v}")).is_err() {
        return false;
    }
    let printed = &text[..text.len() - rest.0.len()];
    let dot = if printed.contains(['.', 'e', 'E']) {
        ""
    } else {
        ".0"
    };
    rest.0 == dot
}

/// The escape whose character is at `at` (just past its backslash): how it
/// is spelled and where it ends.
fn escape(b: &[u8], at: usize) -> Result<(Spelling, usize), Fault> {
    match b.get(at) {
        Some(b'"' | b'\\' | b'n' | b'r' | b't') => Ok((Spelling::Escaped, at + 1)),
        Some(b'/' | b'b' | b'f') => Ok((Spelling::Other, at + 1)),
        Some(b'u') => {
            let hex = at + 1;
            if let Some(bad) =
                (hex..hex + 4).find(|&i| !b.get(i).is_some_and(u8::is_ascii_hexdigit))
            {
                return fault(bad, "a hex digit");
            }
            // The writer spells a control byte other than `\n`, `\r` and
            // `\t` as `\u00xx`, in lowercase, and nothing else this way.
            let cp = hex4(b, hex).unwrap_or(u32::MAX);
            let lowercase = !b[hex..hex + 4].iter().any(u8::is_ascii_uppercase);
            let written = cp < 0x20 && !matches!(cp, 0x09 | 0x0a | 0x0d) && lowercase;
            let spelling = if written {
                Spelling::Escaped
            } else {
                Spelling::Other
            };
            Ok((spelling, hex + 4))
        }
        _ => fault(at, "an escape character"),
    }
}

/// The end of the run of ASCII digits at `at`.
fn digits(b: &[u8], at: usize) -> usize {
    at + b
        .get(at..)
        .unwrap_or_default()
        .iter()
        .take_while(|c| c.is_ascii_digit())
        .count()
}

/// The end of a non-empty run of ASCII digits at `at`.
fn some_digits(b: &[u8], at: usize) -> Result<usize, Fault> {
    let end = digits(b, at);
    if end > at {
        Ok(end)
    } else {
        fault(at, "a digit")
    }
}

/// The four hex digits at `at`.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    let digits = b.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |cp, &d| Some(cp << 4 | char::from(d).to_digit(16)?))
}

/// Reads validated text into values: besides the validator, the only code
/// that reads a document. It trusts the validation — every byte it meets is
/// one the grammar allows there — so it has no error path.
struct Decoder<'a> {
    text: &'a str,
    tape: &'a [Node],
    /// Offset of the next byte to read.
    at: usize,
    /// Tape index of the next non-empty container.
    next: usize,
    nest: Nest<'a>,
}

/// What the objects a decoder meets become.
enum Nest<'a> {
    /// [`Repr::Raw`]: the values go to a caller.
    Owned(&'a Arc<Document>),
    /// [`Repr::Held`]: the values go into a block of the document.
    Held(Weak<Document>),
}

impl<'a> Decoder<'a> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Past the whitespace and the one punctuation byte at `at`.
    fn punct(&mut self) {
        self.skip_ws();
        self.at += 1;
    }

    /// The member at `at`, and the `,` or `}` after it.
    fn member(&mut self) -> (String, Json) {
        self.skip_ws();
        let key = self.string();
        self.punct();
        let value = self.value();
        self.punct();
        (key, value)
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.byte() {
            Some(b'"') => Json::Str(self.string()),
            Some(b'{') => Json::Object(self.object()),
            Some(b'[') => Json::Array(self.array()),
            Some(b't') => self.literal(4, Json::Bool(true)),
            Some(b'f') => self.literal(5, Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.literal(4, Json::Null),
        }
    }

    fn literal(&mut self, len: usize, v: Json) -> Json {
        self.at += len;
        v
    }

    /// The tape entry of the container whose bracket is at `at`; `None`
    /// past it when it is empty, as those have none.
    fn open(&mut self) -> Option<(usize, &'a Node)> {
        let node = self.next;
        match self.tape.get(node) {
            Some(entry) if entry.start == self.at => Some((node, entry)),
            _ => {
                self.at += 1;
                self.punct();
                None
            }
        }
    }

    fn object(&mut self) -> Map {
        let Some((node, entry)) = self.open() else {
            return Map::default();
        };
        self.at = entry.end;
        self.next = entry.next;
        Map(match &self.nest {
            Nest::Owned(doc) => Repr::Raw(Arc::clone(doc), node),
            Nest::Held(doc) => Repr::Held(Weak::clone(doc), node),
        })
    }

    fn array(&mut self) -> Vec<Json> {
        let Some((node, entry)) = self.open() else {
            return Vec::new();
        };
        self.at += 1;
        self.next = node + 1;
        let items = (0..entry.items)
            .map(|_| {
                let item = self.value();
                self.punct();
                item
            })
            .collect();
        self.at = entry.end;
        self.next = entry.next;
        items
    }

    /// The string whose opening quote is at `at`. Most strings have no
    /// escape: one copy of the slice.
    fn string(&mut self) -> String {
        let b = self.text.as_bytes();
        let start = self.at + 1;
        let mut end = start;
        let mut escaped = false;
        while let Some(skip) = b
            .get(end..)
            .and_then(|rest| rest.iter().position(|&c| c == b'"' || c == b'\\'))
        {
            end += skip;
            if b.get(end) == Some(&b'"') {
                break;
            }
            escaped = true;
            end += 2;
        }
        self.at = end + 1;
        let raw = self.text.get(start..end).unwrap_or_default();
        if escaped {
            unescape(raw)
        } else {
            raw.to_owned()
        }
    }

    /// The number at `at`: an `Int` unless it has a fraction or exponent.
    fn number(&mut self) -> Json {
        let b = self.text.as_bytes();
        let start = self.at;
        let rest = b.get(start..).unwrap_or_default();
        let len = rest
            .iter()
            .take_while(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        self.at = start + len;
        let text = self.text.get(start..self.at).unwrap_or_default();
        if text.contains(['.', 'e', 'E']) {
            Json::Float(text.parse().unwrap_or_default())
        } else {
            Json::Int(text.parse().unwrap_or_default())
        }
    }
}

/// The contents of a validated string that holds escapes, decoded.
/// Unpaired surrogates degrade to U+FFFD.
fn unescape(raw: &str) -> String {
    let b = raw.as_bytes();
    // No escape is shorter than the text it stands for, so the raw length
    // bounds the decoded one and the buffer never grows.
    let mut out = String::with_capacity(raw.len());
    let (mut at, mut run) = (0, 0);
    while let Some(skip) = b
        .get(at..)
        .and_then(|rest| rest.iter().position(|&c| c == b'\\'))
    {
        at += skip;
        out.push_str(raw.get(run..at).unwrap_or_default());
        let escape = b.get(at + 1).copied();
        at += 2;
        match escape {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            _ => {
                let cp = hex4(b, at).unwrap_or(0xFFFD);
                at += 4;
                let paired = b.get(at..at + 2) == Some(b"\\u");
                let c = if (0xD800..0xDC00).contains(&cp) && paired {
                    // A high surrogate and the escape after it: one astral
                    // code point when that is a low surrogate.
                    let lo = hex4(b, at + 2).unwrap_or(0xFFFD);
                    at += 6;
                    if (0xDC00..0xE000).contains(&lo) {
                        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        // Unpaired high surrogate; the second escape stands
                        // on its own.
                        out.push('\u{fffd}');
                        char::from_u32(lo)
                    }
                } else {
                    char::from_u32(cp)
                };
                out.push(c.unwrap_or('\u{fffd}'));
            }
        }
        run = at;
    }
    out.push_str(raw.get(run..).unwrap_or_default());
    out
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
    fn a_refusal_names_the_byte_and_what_was_expected_there() {
        let at = |text: &str| {
            let e = Json::try_parse(text).err();
            e.map(|e| (e.offset, e.line, e.column, e.expected))
        };
        assert_eq!(at("[1,]"), Some((3, 1, 4, "a value")));
        assert_eq!(at("{\"a\" 1}"), Some((5, 1, 6, "':'")));
        assert_eq!(at("{\n  \"é\": tru }"), Some((13, 2, 11, "true")));
        assert_eq!(at("[\"\\q\"]"), Some((3, 1, 4, "an escape character")));
        assert_eq!(at("[\"\\u12x4\"]"), Some((6, 1, 7, "a hex digit")));
        assert_eq!(at("[1.]"), Some((3, 1, 4, "a digit")));
        assert_eq!(
            at("[99999999999999999999]"),
            Some((20, 1, 21, "an integer within i64's range"))
        );
        assert_eq!(at("[1] x"), Some((4, 1, 5, "the end of the text")));
        assert_eq!(at("[\"abc"), Some((5, 1, 6, "'\"' closing the string")));
        assert_eq!(at(""), Some((0, 1, 1, "a value")));
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(at(&deep).map(|e| e.0), Some(MAX_DEPTH));
        assert_eq!(at("[[1], {\"a\": [true, null]}]"), None);
        let e = Json::try_parse("[1,]").err().map(|e| e.to_string());
        assert_eq!(
            e.as_deref(),
            Some("expected a value at line 1, column 4 (byte 3)")
        );
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
        assert!(std::ptr::eq(copy.members(), o.members()));
        assert!(Map::default().is_empty());
    }

    /// A SplitMix64 stream: the tests' seeded inputs.
    fn stream(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn a_plain_run_stops_where_a_byte_by_byte_scan_stops() {
        let mut next = stream(7);
        let alphabet = [
            b'a', b' ', b'"', b'\\', 0x00, 0x1f, 0x20, 0x7f, 0x80, 0xc3, 0xff,
        ];
        for _ in 0..20_000 {
            let len = (next() % 40) as usize;
            let sparse = next().is_multiple_of(4);
            let bytes: Vec<u8> = (0..len)
                .map(|_| match next() % if sparse { 64 } else { 11 } {
                    k if (k as usize) < alphabet.len() => alphabet[k as usize],
                    _ => b'x',
                })
                .collect();
            let naive = bytes
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(len);
            assert_eq!(plain_run(&bytes), naive, "{bytes:?}");
        }
    }

    #[test]
    fn a_short_decimal_is_judged_as_formatting_it_would_judge_it() {
        let mut next = stream(11);
        let mut judged = 0;
        let mut check = |text: &str| {
            // Only numbers the grammar takes reach the check.
            let Some(fast) = short_decimal_written(text).filter(|_| Json::parse(text).is_some())
            else {
                return;
            };
            let v: f64 = text.parse().unwrap_or(f64::NAN);
            assert!(v.is_finite(), "{text}");
            assert_eq!(fast, written_as(text, v), "{text}");
            judged += 1;
        };
        for _ in 0..50_000 {
            // What the writer writes, and the spellings one edit away.
            let v = match next() % 3 {
                0 => f64::from_bits(next()),
                1 => (next() % 1_000_000) as f64 / 10f64.powi((next() % 9) as i32),
                _ => (next() % 100_000) as f64 * 10f64.powi((next() % 12) as i32),
            };
            if !v.is_finite() {
                continue;
            }
            let mut text = String::new();
            write_float(&mut text, v);
            check(&text);
            check(&format!("{text}0"));
            check(&format!("{text}1"));
            check(&text.replacen('.', "0.", 1));
            check(&text.replacen('.', ".0", 1));
            // A random decimal of up to 20 digits.
            let digits: String = (0..1 + next() % 20)
                .map(|_| char::from(b'0' + (next() % 10) as u8))
                .collect();
            let dot = 1 + (next() as usize) % digits.len();
            let (int, frac) = digits.split_at(dot.min(digits.len() - 1).max(1));
            let int = int.trim_start_matches('0');
            let int = if int.is_empty() { "0" } else { int };
            check(&format!(
                "{int}.{}",
                if frac.is_empty() { "0" } else { frac }
            ));
            check(&format!(
                "-{int}.{}",
                if frac.is_empty() { "0" } else { frac }
            ));
        }
        for text in [
            "0.0",
            "-0.0",
            "0.5",
            "1.50",
            "512.0",
            "1e3",
            "0.30000000000000004",
        ] {
            check(text);
        }
        assert!(judged > 100_000, "{judged} judged");
    }
}
