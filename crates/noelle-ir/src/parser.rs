//! Textual IR parser; the inverse of [`crate::printer`].
//!
//! One pass over the source bytes. A [`Cursor`] hands out borrowed tokens
//! with one token of lookahead, classing each byte through one table
//! lookup; every instruction is parsed straight into the [`Function`] being
//! built. A use of a `%value`, label or `@symbol` that is not defined yet
//! leaves a placeholder id in the instruction and a fix-up record behind;
//! the records are patched at the function's closing brace (`@symbols`: at
//! the end of the module), each carrying the position of the token that
//! caused it.
//!
//! A `%v<n>` spelled as the printer spells numbers, `n` below 2^16, comes
//! out of the lexer with its number and is bound and resolved by it, in a
//! table indexed by `n` that the parse keeps across bodies; every other
//! `%name`, label and `@symbol` goes through a keyed hash map. A `%v<i>`
//! defined at arena index `i`, the printer's spelling of an instruction
//! without a name, leaves no name in the function. A module parse builds
//! every body's instructions in one arena and moves each body out at its
//! exact size.
//!
//! # Errors
//!
//! All entry points return [`ParseError`] with the line and column of the
//! offending token. Syntax errors are reported where the cursor meets them,
//! resolution errors when their fix-up is patched, so the error reported is
//! the first in that order.

use crate::inst::{BinOp, Callee, CastOp, FcmpPred, IcmpPred, Inst, InstId, Terminator};
use crate::module::{BlockId, FuncId, Function, Global, GlobalId, GlobalInit, Module};
use crate::printer::generated_index;
use crate::types::{FuncType, Type};
use crate::value::{Constant, Value};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A parse failure: message plus the 1-based position of the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token, in characters.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for ParseError {}

/// What the parse passes up: a failure is boxed, so that a `Result` of a
/// token's worth of value (`()`, a `Value`, a `Type`) is as small as the
/// value, and every `?` on the way is a test of one word.
type Result<T> = std::result::Result<T, Box<ParseError>>;

#[derive(Clone, Copy, Debug)]
enum Tok<'a> {
    Ident(&'a str),
    Local(&'a str), // %name
    /// `%v<n>`, `n` spelled as the printer spells it and below 2^16: a
    /// `%name` resolved by its number. A variant of its own, because a
    /// second field on `Local` slowed the handling of every token.
    Numbered(u16),
    Sym(&'a str), // @name
    /// The text between the quotes: escapes are validated, not yet decoded.
    Str(&'a str),
    Int(i64),
    Float(f64),
    Punct(u8),
    Eof,
    /// A lexical error, held in `Cursor::bad` until the parser reaches it.
    Bad,
}

/// Where a token sits in the source: its byte range and 1-based line.
#[derive(Clone, Copy)]
struct At {
    start: usize,
    end: usize,
    line: usize,
}

// The lexer's byte classes: what a byte starts, and whether a name goes on
// through it. The three that a name goes on through come first.
/// `a`–`z`, `A`–`Z` and `_`: a word, or a name's next byte.
const LETTER: u8 = 1;
/// `0`–`9`: a number, or a name's next byte.
const DIGIT: u8 = 2;
/// `.` and `$`: a name's next byte, and nothing by themselves.
const NAME_ONLY: u8 = 3;
/// Space that does not end a line.
const SPACE: u8 = 4;
const NEWLINE: u8 = 5;
/// `;`: a comment, to the end of its line.
const COMMENT: u8 = 6;
/// A byte that is a token by itself.
const PUNCT: u8 = 7;
/// `%`, `@`, `"` and `-`: a `%name`, an `@name`, a string, a number.
const PERCENT: u8 = 8;
const AT_SIGN: u8 = 9;
const QUOTE: u8 = 10;
const MINUS: u8 = 11;
/// A byte of a multi-byte character: Unicode space, or a stray character.
const HIGH: u8 = 12;

/// The class of every byte, 0 for one that starts nothing.
static CLASSES: [u8; 256] = {
    let mut classes = [0; 256];
    let mut c = 0;
    while c < 256 {
        let b = c as u8;
        classes[c] = match b {
            b'_' => LETTER,
            _ if b.is_ascii_alphabetic() => LETTER,
            b'0'..=b'9' => DIGIT,
            b'.' | b'$' => NAME_ONLY,
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => SPACE,
            b'\n' => NEWLINE,
            b';' => COMMENT,
            b'{' | b'}' | b'[' | b']' | b'(' | b')' | b',' | b':' | b'=' | b'*' | b'!' => PUNCT,
            b'%' => PERCENT,
            b'@' => AT_SIGN,
            b'"' => QUOTE,
            b'-' => MINUS,
            0x80.. => HIGH,
            _ => 0,
        };
        c += 1;
    }
    classes
};

fn class(c: u8) -> u8 {
    CLASSES[usize::from(c)]
}

/// A byte a name goes on through: alphanumeric, `_`, `.` or `$`.
fn is_name_byte(c: u8) -> bool {
    matches!(class(c), LETTER | DIGIT | NAME_ONLY)
}

/// The end of the run of name bytes that starts at `from`.
fn name_end(bytes: &[u8], from: usize) -> usize {
    let mut end = from;
    while end < bytes.len() && is_name_byte(bytes[end]) {
        end += 1;
    }
    end
}

/// The number `n` and the end of the name at `from`, if it is `v<n>` with
/// `n` spelled as the printer writes it (`0` or without a leading `0`, the
/// rule of `generated_index`) and below 2^16. Most `%names` are, so the
/// digits are read on the way rather than from a name found first:
/// `generated_index`'s `str::parse` cost 0.9 ms of a 13 ms parse.
fn numbered(bytes: &[u8], from: usize) -> Option<(u16, usize)> {
    if bytes.get(from) != Some(&b'v') {
        return None;
    }
    let digits = from + 1;
    let mut end = digits;
    let mut n = 0u32;
    while end < bytes.len() && end - digits < 6 && bytes[end].is_ascii_digit() {
        n = n * 10 + u32::from(bytes[end] - b'0');
        end += 1;
    }
    let len = end - digits;
    let name_goes_on = end < bytes.len() && is_name_byte(bytes[end]);
    if name_goes_on || len == 0 || len > 5 || (bytes[digits] == b'0' && len > 1) {
        return None;
    }
    Some((u16::try_from(n).ok()?, end))
}

/// The length of the Unicode whitespace that `rest` starts with, if it
/// does: any of it separates tokens.
#[cold]
fn unicode_space(rest: &str) -> Option<usize> {
    rest.chars()
        .next()
        .filter(|ch| ch.is_whitespace())
        .map(char::len_utf8)
}

/// The lexer: the source plus one token of lookahead. The next scan starts
/// where the lookahead token ends, on its line: no token spans a line end.
struct Cursor<'a> {
    src: &'a str,
    tok: Tok<'a>,
    at: At,
    bad: String,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        let at = At {
            start: 0,
            end: 0,
            line: 1,
        };
        let mut cur = Cursor {
            src,
            tok: Tok::Eof,
            at,
            bad: String::new(),
        };
        cur.scan();
        cur
    }

    /// Consume the lookahead token, returning where it was.
    fn bump(&mut self) -> At {
        let at = self.at;
        self.scan();
        at
    }

    /// Lex the next token into `tok`/`at`: step over space, line ends and
    /// comments with the position and line in locals, then read the token
    /// that the class of its first byte starts straight into `tok`.
    fn scan(&mut self) {
        let bytes = self.src.as_bytes();
        let (mut start, mut line) = (self.at.end, self.at.line);
        let end = loop {
            let Some(&c) = bytes.get(start) else {
                self.tok = Tok::Eof;
                break start;
            };
            // The space between two tokens, without the table.
            if c == b' ' {
                start += 1;
                continue;
            }
            match class(c) {
                SPACE => start += 1,
                NEWLINE => {
                    start += 1;
                    line += 1;
                }
                COMMENT => {
                    let rest = &bytes[start..];
                    start += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                }
                PUNCT => {
                    self.tok = Tok::Punct(c);
                    break start + 1;
                }
                LETTER => {
                    let end = name_end(bytes, start);
                    self.tok = match &self.src[start..end] {
                        "inf" => Tok::Float(f64::INFINITY),
                        "NaN" => Tok::Float(f64::NAN),
                        word => Tok::Ident(word),
                    };
                    break end;
                }
                PERCENT => {
                    let from = start + 1;
                    if let Some((n, end)) = numbered(bytes, from) {
                        self.tok = Tok::Numbered(n);
                        break end;
                    }
                    let end = name_end(bytes, from);
                    self.tok = if end == from {
                        self.fail("empty name after '%'")
                    } else {
                        Tok::Local(&self.src[from..end])
                    };
                    break end;
                }
                AT_SIGN => {
                    let end = name_end(bytes, start + 1);
                    self.tok = match &self.src[start + 1..end] {
                        "" => self.fail("empty name after '@'"),
                        name => Tok::Sym(name),
                    };
                    break end;
                }
                DIGIT => {
                    // Up to 18 digits that neither a float nor a name goes
                    // on from: nearly every integer, and short of overflow.
                    // Anything else is read again in full.
                    let mut end = start;
                    let mut value = 0i64;
                    while end < bytes.len() && end - start < 18 && bytes[end].is_ascii_digit() {
                        value = value * 10 + i64::from(bytes[end] - b'0');
                        end += 1;
                    }
                    if end < bytes.len() && is_name_byte(bytes[end]) {
                        break self.number(start);
                    }
                    self.tok = Tok::Int(value);
                    break end;
                }
                MINUS => break self.number(start),
                QUOTE => break self.string(start),
                HIGH => match unicode_space(&self.src[start..]) {
                    Some(len) => start += len,
                    None => break self.stray(start),
                },
                _ => break self.stray(start),
            }
        };
        self.at = At { start, end, line };
    }

    /// The character at `start` starts no token; returns where it ends.
    #[cold]
    fn stray(&mut self, start: usize) -> usize {
        let ch = self.src[start..].chars().next().unwrap_or('\u{fffd}');
        self.tok = self.fail(format!("unexpected character '{ch}'"));
        start + ch.len_utf8()
    }

    #[cold]
    fn fail(&mut self, message: impl Into<String>) -> Tok<'a> {
        self.bad = message.into();
        Tok::Bad
    }

    /// Reads the string that opens at `open` into `tok`; returns where it
    /// ends. Out of line: a rare token, kept out of `scan`.
    #[inline(never)]
    fn string(&mut self, open: usize) -> usize {
        let bytes = self.src.as_bytes();
        let mut end = open + 1;
        loop {
            match (bytes.get(end), bytes.get(end + 1)) {
                (Some(b'"'), _) => {
                    self.tok = Tok::Str(&self.src[open + 1..end]);
                    return end + 1;
                }
                (Some(b'\\'), Some(b'\\' | b'"' | b'n')) => end += 2,
                (Some(b'\\'), Some(_)) => {
                    let escaped = self.src[end + 1..].chars().next().unwrap_or('\u{fffd}');
                    self.tok = self.fail(format!("bad escape '\\{escaped}'"));
                    return end + 1;
                }
                (Some(b'\n' | b'\\') | None, _) => {
                    self.tok = self.fail("unterminated string");
                    return end;
                }
                (Some(_), _) => end += 1,
            }
        }
    }

    /// Reads the number, or `-inf`, that starts at `start` into `tok`;
    /// returns where it ends. Out of line: `scan` reads plain integers
    /// itself, and sends here only a sign, a float, a long number.
    #[inline(never)]
    fn number(&mut self, start: usize) -> usize {
        let bytes = self.src.as_bytes();
        let negative = bytes[start] == b'-';
        let mut end = start + usize::from(negative);
        if negative {
            match bytes.get(end) {
                Some(d) if d.is_ascii_digit() => {}
                Some(b'i') => {
                    let word_end = name_end(bytes, end);
                    self.tok = match &self.src[end..word_end] {
                        "inf" => Tok::Float(f64::NEG_INFINITY),
                        word => self.fail(format!("unexpected '-{word}'")),
                    };
                    return word_end;
                }
                _ => {
                    self.tok = self.fail("dangling '-'");
                    return end;
                }
            }
        }
        // The value negated, so that `i64::MIN` fits; `None` once it overflows.
        let mut negated = Some(0i64);
        let mut is_float = false;
        while let Some(&c) = bytes.get(end) {
            match c {
                b'0'..=b'9' => {
                    let digit = i64::from(c - b'0');
                    negated = negated.and_then(|v| v.checked_mul(10)?.checked_sub(digit));
                }
                b'.' => is_float = true,
                b'e' | b'E' => {
                    is_float = true;
                    if matches!(bytes.get(end + 1), Some(b'+' | b'-')) {
                        end += 1;
                    }
                }
                _ => break,
            }
            end += 1;
        }
        let text = &self.src[start..end];
        let tok = if is_float {
            text.parse().map(Tok::Float).ok()
        } else if negative {
            negated.map(Tok::Int)
        } else {
            negated.and_then(i64::checked_neg).map(Tok::Int)
        };
        let kind = if is_float { "float" } else { "integer" };
        self.tok = tok.unwrap_or_else(|| self.fail(format!("bad {kind} literal '{text}'")));
        end
    }

    #[cold]
    fn error(&self, at: At, message: impl Into<String>) -> Box<ParseError> {
        let line_start = self.src[..at.start].rfind('\n').map_or(0, |nl| nl + 1);
        Box::new(ParseError {
            message: message.into(),
            line: at.line,
            column: self.src[line_start..at.start].chars().count() + 1,
        })
    }

    /// Where the lookahead token starts, for an error that may name it once
    /// the cursor has moved on. Not a copy of `at`: read field by field, it
    /// waits on no store `scan` has just made.
    fn start(&self) -> At {
        let (start, line) = (self.at.start, self.at.line);
        At {
            start,
            end: start,
            line,
        }
    }

    /// The lookahead `%name`, and its number if it has one.
    fn local(&self) -> Option<(&'a str, Option<u16>)> {
        match self.tok {
            Tok::Local(name) => Some((name, None)),
            Tok::Numbered(n) => Some((&self.src[self.at.start + 1..self.at.end], Some(n))),
            _ => None,
        }
    }

    /// The lookahead token is not one of `expected`.
    #[cold]
    fn unexpected(&self, expected: &str) -> Box<ParseError> {
        let found = &self.src[self.at.start..self.at.end];
        let message = match self.tok {
            Tok::Bad => self.bad.clone(),
            Tok::Eof => format!("expected {expected}, found end of input"),
            _ => format!("expected {expected}, found '{found}'"),
        };
        self.error(self.at, message)
    }

    /// Consume the lookahead token if `pick` accepts it.
    fn take<T>(&mut self, expected: &str, pick: impl FnOnce(Tok<'a>) -> Option<T>) -> Result<T> {
        let picked = pick(self.tok).ok_or_else(|| self.unexpected(expected))?;
        self.scan();
        Ok(picked)
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = matches!(self.tok, Tok::Punct(p) if p == c);
        if hit {
            self.scan();
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.eat(c) {
            return Ok(());
        }
        Err(self.unexpected(&format!("'{}'", c as char)))
    }

    fn keyword(&mut self, word: &str) -> Result<()> {
        if !matches!(self.tok, Tok::Ident(w) if w == word) {
            return Err(self.unexpected(&format!("'{word}'")));
        }
        self.scan();
        Ok(())
    }

    fn ident(&mut self, what: &str) -> Result<&'a str> {
        self.take(what, |t| if let Tok::Ident(w) = t { Some(w) } else { None })
    }

    fn sym(&mut self) -> Result<&'a str> {
        self.take(
            "'@name'",
            |t| if let Tok::Sym(n) = t { Some(n) } else { None },
        )
    }

    fn int(&mut self) -> Result<i64> {
        self.take("an integer", |t| {
            if let Tok::Int(v) = t {
                Some(v)
            } else {
                None
            }
        })
    }

    /// A string literal, decoded.
    fn text(&mut self) -> Result<String> {
        let raw = self.take(
            "a string",
            |t| if let Tok::Str(s) = t { Some(s) } else { None },
        )?;
        if !raw.contains('\\') {
            return Ok(raw.to_string());
        }
        // The lexer admits `\\`, `\"` and `\n` only.
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(ch) = chars.next() {
            match (ch, if ch == '\\' { chars.next() } else { None }) {
                (_, Some('n')) => out.push('\n'),
                (_, Some(escaped)) => out.push(escaped),
                (plain, None) => out.push(plain),
            }
        }
        Ok(out)
    }

    /// `"key" = "value"`.
    fn key_value(&mut self) -> Result<(String, String)> {
        let key = self.text()?;
        self.expect(b'=')?;
        Ok((key, self.text()?))
    }
}

/// Source extent of one `define` in the module text: the 1-based line of
/// the `define` keyword through the line of the closing `}` of the body,
/// inclusive. The building block of the IDE diff-parser: a line edit that
/// falls inside exactly one span can be re-parsed as a single function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpan {
    /// Function name (without the `@`).
    pub name: String,
    /// 1-based line of the `define` keyword.
    pub start_line: usize,
    /// 1-based line of the `}` closing the body.
    pub end_line: usize,
}

#[derive(Clone, Copy)]
enum Use {
    /// `%name`, with its number if it has one (`Tok::Numbered`).
    Local(Option<u16>),
    Label,
    /// `@name` in value position.
    Symbol,
    /// `@name` as the target of a direct call.
    Callee,
}

/// A use of a name that was not defined when the cursor passed it. The
/// instruction holds the placeholder id `u32::MAX - k`, `k` being this
/// record's index in its list. Real ids count up from zero and a source
/// text cannot hold enough instructions and uses for the two to meet.
struct Fixup<'a> {
    kind: Use,
    name: &'a str,
    at: At,
    func: FuncId,
    inst: InstId,
}

fn hole(k: usize) -> u32 {
    u32::MAX - k as u32
}

/// The `%v<n>` names bound in the body being parsed, indexed by `n`: what
/// `LLParser` keeps in `NumberedVals`, apart from its symbol table. A slot
/// holds a binding only if it carries the body's stamp, so a new body
/// clears the table by taking the next stamp, whatever numbers the bodies
/// before it reached.
struct NumberedNames {
    stamp: u32,
    slots: Vec<(u32, Value)>,
}

impl NumberedNames {
    fn new() -> NumberedNames {
        // Stamp 0 is no body's: a slot that has it was never bound.
        NumberedNames {
            stamp: 1,
            slots: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.stamp += 1;
    }

    fn get(&self, n: u16) -> Option<Value> {
        match self.slots.get(usize::from(n)) {
            Some(&(stamp, value)) if stamp == self.stamp => Some(value),
            _ => None,
        }
    }

    /// Binds `%v<n>` to `value`; false if the body had bound it already.
    fn insert(&mut self, n: u16, value: Value) -> bool {
        let n = usize::from(n);
        if n >= self.slots.len() {
            self.grow(n);
        }
        let fresh = self.slots[n].0 != self.stamp;
        self.slots[n] = (self.stamp, value);
        fresh
    }

    /// Makes room for `%v<n>`, in whole powers of two from 64 on: few steps
    /// for a body that counts up from `%v0`, one for a lone far number.
    #[cold]
    fn grow(&mut self, n: usize) {
        let len = (n + 1).next_power_of_two().max(64);
        // Stamp 0 is no body's: the value beside it is never read.
        self.slots.resize(len, (0, Value::Arg(0)));
    }
}

/// Nesting allowed in one type: `[1 x [1 x ...` and `i8***...` recurse in
/// this parser and in every consumer of [`Type`], so depth is bounded here,
/// where the text enters.
const MAX_TYPE_DEPTH: u32 = 64;

struct Parser<'a> {
    cur: Cursor<'a>,
    /// Where `@names` resolve: in a finished module (`parse_function_text`),
    /// where a missing name is unknown; or, without one, in the two tables,
    /// which grow item by item as a module is parsed, so that a name
    /// missing now may still appear and its use is deferred.
    module: Option<&'a Module>,
    globals: HashMap<&'a str, GlobalId>,
    funcs: HashMap<&'a str, FuncId>,
    /// `%names` and labels of the function being parsed; cleared per
    /// function. A `%v<n>` with a number is in `numbered` instead.
    names: HashMap<&'a str, Value>,
    numbered: NumberedNames,
    labels: HashMap<&'a str, BlockId>,
    /// Pending `%name` and label uses; patched at the closing brace.
    local_fixups: Vec<Fixup<'a>>,
    /// Pending `@name` uses; patched at the end of the module.
    symbol_fixups: Vec<Fixup<'a>>,
    /// Slot the body being parsed will occupy, and the id its next
    /// instruction will get.
    func: FuncId,
    inst: InstId,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, module: Option<&'a Module>) -> Parser<'a> {
        Parser {
            cur: Cursor::new(src),
            module,
            globals: HashMap::new(),
            funcs: HashMap::new(),
            names: HashMap::new(),
            numbered: NumberedNames::new(),
            labels: HashMap::new(),
            local_fixups: Vec::new(),
            symbol_fixups: Vec::new(),
            func: FuncId(0),
            inst: InstId(0),
        }
    }

    /// Record a deferred use at `at` and return its placeholder id.
    fn defer(&mut self, kind: Use, name: &'a str, at: At) -> u32 {
        let list = match kind {
            Use::Local(_) | Use::Label => &mut self.local_fixups,
            Use::Symbol | Use::Callee => &mut self.symbol_fixups,
        };
        list.push(Fixup {
            kind,
            name,
            at,
            func: self.func,
            inst: self.inst,
        });
        hole(list.len() - 1)
    }

    /// What a deferred (or immediate) use resolves to, or the error for it.
    fn unresolved(&self, kind: Use, name: &str, at: At, fname: &str) -> Box<ParseError> {
        let message = match kind {
            Use::Local(_) => format!("unknown value '%{name}' in @{fname}"),
            Use::Label => format!("unknown label '{name}' in @{fname}"),
            Use::Symbol => format!("unknown symbol '@{name}'"),
            Use::Callee => format!("call to unknown function '@{name}'"),
        };
        self.cur.error(at, message)
    }

    /// What `%name`, numbered `number` if it is, stands for in the body
    /// being parsed.
    fn lookup(&self, name: &str, number: Option<u16>) -> Option<Value> {
        match number {
            Some(n) => self.numbered.get(n),
            None => self.names.get(name).copied(),
        }
    }

    /// Binds `%name` to `value`; false if the body had bound it already.
    fn bind(&mut self, name: &'a str, number: Option<u16>, value: Value) -> bool {
        match number {
            Some(n) => self.numbered.insert(n, value),
            None => self.names.insert(name, value).is_none(),
        }
    }

    /// `ret @name(params)`: the header shared by `declare` and `define`.
    /// Starts a new `%name` scope holding the parameters.
    fn signature(&mut self) -> Result<(&'a str, Function)> {
        let ret = self.ty()?;
        let name = self.cur.sym()?;
        self.cur.expect(b'(')?;
        self.names.clear();
        self.numbered.clear();
        let mut index = 0;
        let params = self.list(b')', |p| {
            let ty = p.ty()?;
            let Some((param, number)) = p.cur.local() else {
                return Err(p.cur.unexpected("'%param'"));
            };
            p.cur.bump();
            p.bind(param, number, Value::Arg(index));
            index += 1;
            Ok((param.to_string(), ty))
        })?;
        Ok((name, Function::new(name, params, ret)))
    }

    /// `item, item, ... <close>` (or just `<close>`), the opener being
    /// consumed already.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = Vec::new();
        if !self.cur.eat(close) {
            loop {
                items.push(item(self)?);
                if self.cur.eat(close) {
                    break;
                }
                self.cur.expect(b',')?;
            }
        }
        Ok(items)
    }

    fn ty(&mut self) -> Result<Type> {
        self.ty_at(0, &mut 0)
    }

    /// A type at nesting `depth`; sets `height` to its own height: 0 for a
    /// scalar, one more than its tallest member for anything built from
    /// other types. The type alone is returned, so that a scalar comes back
    /// in registers.
    fn ty_at(&mut self, depth: u32, height: &mut u32) -> Result<Type> {
        if depth >= MAX_TYPE_DEPTH {
            return Err(self.cur.error(self.cur.at, "type nesting too deep"));
        }
        let mut inner = 0;
        let mut ty = match self.cur.tok {
            Tok::Ident("fn") => {
                self.cur.bump();
                let ret = self.ty_at(depth + 1, &mut inner)?;
                self.cur.expect(b'(')?;
                let params = self.types_until(b')', depth, &mut inner)?;
                inner += 1;
                Type::Func(Arc::new(FuncType { params, ret }))
            }
            Tok::Ident(word) => {
                let ty = match word {
                    "void" => Type::Void,
                    "i1" => Type::I1,
                    "i8" => Type::I8,
                    "i16" => Type::I16,
                    "i32" => Type::I32,
                    "i64" => Type::I64,
                    "f32" => Type::F32,
                    "f64" => Type::F64,
                    _ => {
                        let message = format!("unknown type '{word}'");
                        return Err(self.cur.error(self.cur.at, message));
                    }
                };
                self.cur.bump();
                ty
            }
            Tok::Punct(b'[') => {
                self.cur.bump();
                let len_at = self.cur.at;
                let len = self.cur.int()?;
                if len < 0 {
                    return Err(self.cur.error(len_at, "negative array length"));
                }
                self.cur.keyword("x")?;
                let elem = self.ty_at(depth + 1, &mut inner)?;
                self.cur.expect(b']')?;
                inner += 1;
                Type::Array(Box::new(elem), len as u64)
            }
            Tok::Punct(b'{') => {
                self.cur.bump();
                let fields = self.types_until(b'}', depth, &mut inner)?;
                inner += 1;
                Type::Struct(Arc::new(fields))
            }
            _ => return Err(self.cur.unexpected("a type")),
        };
        while matches!(self.cur.tok, Tok::Punct(b'*')) {
            inner += 1;
            if depth + inner > MAX_TYPE_DEPTH {
                return Err(self.cur.error(self.cur.at, "type nesting too deep"));
            }
            self.cur.bump();
            ty = Type::Ptr(Box::new(ty));
        }
        *height = inner;
        Ok(ty)
    }

    /// Comma-separated member types up to `close`, whose opener is consumed;
    /// raises `tallest` to the height of the tallest.
    fn types_until(&mut self, close: u8, depth: u32, tallest: &mut u32) -> Result<Vec<Type>> {
        self.list(close, |p| {
            let mut height = 0;
            let ty = p.ty_at(depth + 1, &mut height)?;
            *tallest = (*tallest).max(height);
            Ok(ty)
        })
    }

    /// A typed constant: `i64 5`, `f64 1.5`, `null`, `undef`.
    fn constant(&mut self) -> Result<Constant> {
        match self.cur.tok {
            Tok::Ident("null") => {
                self.cur.bump();
                Ok(Constant::Null)
            }
            Tok::Ident("undef") => {
                self.cur.bump();
                Ok(Constant::Undef)
            }
            _ => {
                let at = self.cur.at;
                match self.ty()? {
                    Type::Int(w) => Ok(Constant::Int(self.cur.int()?, w)),
                    Type::Float(w) => {
                        let v = match self.cur.tok {
                            Tok::Float(v) => v,
                            Tok::Int(v) => v as f64,
                            _ => return Err(self.cur.unexpected("a number")),
                        };
                        self.cur.bump();
                        Ok(Constant::Float(v.to_bits(), w))
                    }
                    ty => {
                        let message = format!("constants of type {ty} are not supported");
                        Err(self.cur.error(at, message))
                    }
                }
            }
        }
    }

    fn global_init(&mut self) -> Result<GlobalInit> {
        if matches!(self.cur.tok, Tok::Ident("zero")) {
            self.cur.bump();
            return Ok(GlobalInit::Zero);
        }
        if !self.cur.eat(b'[') {
            return Ok(GlobalInit::Scalar(self.constant()?));
        }
        Ok(GlobalInit::Array(self.list(b']', Self::constant)?))
    }

    /// An operand: `%name`, `@name`, or a typed constant.
    fn value(&mut self) -> Result<Value> {
        let value = match self.cur.tok {
            Tok::Numbered(n) => match self.numbered.get(n) {
                Some(value) => value,
                None => self.defer_local(Some(n)),
            },
            Tok::Local(name) => match self.names.get(name) {
                Some(&value) => value,
                None => self.defer_local(None),
            },
            Tok::Sym(name) => {
                let at = self.cur.bump();
                return self.symbol(Use::Symbol, name, at);
            }
            Tok::Ident(_) | Tok::Punct(b'[' | b'{') => return Ok(Value::Const(self.constant()?)),
            _ => {
                let expected = "a value ('%name', '@name' or a typed constant)";
                return Err(self.cur.unexpected(expected));
            }
        };
        self.cur.bump();
        Ok(value)
    }

    /// The placeholder for the lookahead `%name`, numbered `number` if it
    /// is, whose use waits for the closing brace. Only here is where the
    /// name stands looked at.
    fn defer_local(&mut self, number: Option<u16>) -> Value {
        let at = self.cur.at;
        let name = &self.cur.src[at.start + 1..at.end];
        Value::Inst(InstId(self.defer(Use::Local(number), name, at)))
    }

    /// What `@name` stands for in a `kind` use, when that can be told: a
    /// callee is a function; a value is a global or else a function, and
    /// since a global declared further down would win, a function counts
    /// only once the module is `complete`.
    fn resolve(&self, kind: Use, name: &str, complete: bool) -> Option<Value> {
        let func = || match self.module {
            Some(m) => m.func_id_by_name(name).map(Value::Func),
            None => self.funcs.get(name).map(|&f| Value::Func(f)),
        };
        let global = || match self.module {
            Some(m) => m.global_id_by_name(name).map(Value::Global),
            None => self.globals.get(name).map(|&g| Value::Global(g)),
        };
        match kind {
            Use::Callee => func(),
            _ => global().or_else(|| func().filter(|_| complete)),
        }
    }

    /// `@name` in a `kind` use: what it stands for if that is settled, a
    /// placeholder function id if the module may still declare it.
    fn symbol(&mut self, kind: Use, name: &'a str, at: At) -> Result<Value> {
        let complete = self.module.is_some();
        match self.resolve(kind, name, complete) {
            Some(value) => Ok(value),
            None if complete => Err(self.unresolved(kind, name, at, "")),
            None => Ok(Value::Func(FuncId(self.defer(kind, name, at)))),
        }
    }

    /// The callee of a `call`: `@name` is a direct call, anything else a
    /// function-pointer value.
    fn callee(&mut self) -> Result<Callee> {
        let Tok::Sym(name) = self.cur.tok else {
            return Ok(Callee::Indirect(self.value()?));
        };
        let at = self.cur.bump();
        match self.symbol(Use::Callee, name, at)? {
            Value::Func(f) => Ok(Callee::Direct(f)),
            _ => unreachable!("a callee resolves to a function"),
        }
    }

    /// The predicate of an `icmp` or `fcmp`, looked up in `table`.
    fn pred<T>(&mut self, expected: &str, table: fn(&str) -> Option<T>) -> Result<T> {
        let at = self.cur.at;
        let word = self.cur.ident(expected)?;
        table(word).ok_or_else(|| self.cur.error(at, format!("unknown {expected} '{word}'")))
    }

    fn label(&mut self) -> Result<BlockId> {
        let at = self.cur.at;
        let name = self.cur.ident("a block label")?;
        Ok(match self.labels.get(name) {
            Some(&b) => b,
            None => BlockId(self.defer(Use::Label, name, at)),
        })
    }

    /// `lhs, rhs`.
    fn pair(&mut self) -> Result<(Value, Value)> {
        let lhs = self.value()?;
        self.cur.expect(b',')?;
        Ok((lhs, self.value()?))
    }

    /// The instruction whose opcode `op` (at `op_at`) was just consumed,
    /// appended to `block` of `f`. Each kind is pushed where it is built,
    /// so that it is written once, into the arena.
    fn inst(&mut self, f: &mut Function, block: BlockId, op: &str, op_at: At) -> Result<InstId> {
        let mut push = |inst| f.push_inst(block, inst);
        Ok(match op {
            "alloca" => {
                let ty = self.ty()?;
                self.cur.expect(b',')?;
                let count = self.value()?;
                push(Inst::Alloca { ty, count })
            }
            "load" => {
                let ty = self.ty()?;
                self.cur.expect(b',')?;
                let ptr = self.value()?;
                push(Inst::Load { ty, ptr })
            }
            "store" => {
                let ty = self.ty()?;
                let (val, ptr) = self.pair()?;
                push(Inst::Store { val, ptr, ty })
            }
            "gep" => {
                let base_ty = self.ty()?;
                self.cur.expect(b',')?;
                let base = self.value()?;
                let mut indices = Vec::new();
                while self.cur.eat(b',') {
                    indices.push(self.value()?);
                }
                if indices.is_empty() {
                    return Err(self.cur.unexpected("',' and a gep index"));
                }
                push(Inst::Gep {
                    base,
                    base_ty,
                    indices,
                })
            }
            "icmp" => {
                let pred = self.pred("icmp predicate", IcmpPred::from_mnemonic)?;
                let ty = self.ty()?;
                let (lhs, rhs) = self.pair()?;
                push(Inst::Icmp { pred, ty, lhs, rhs })
            }
            "fcmp" => {
                let pred = self.pred("fcmp predicate", FcmpPred::from_mnemonic)?;
                let ty = self.ty()?;
                let (lhs, rhs) = self.pair()?;
                push(Inst::Fcmp { pred, ty, lhs, rhs })
            }
            "select" => {
                let ty = self.ty()?;
                let cond = self.value()?;
                self.cur.expect(b',')?;
                let (tval, fval) = self.pair()?;
                push(Inst::Select {
                    ty,
                    cond,
                    tval,
                    fval,
                })
            }
            "phi" => {
                let ty = self.ty()?;
                let mut incomings = Vec::new();
                while self.cur.eat(b'[') {
                    let from = self.label()?;
                    self.cur.expect(b':')?;
                    incomings.push((from, self.value()?));
                    self.cur.expect(b']')?;
                }
                push(Inst::Phi { ty, incomings })
            }
            "call" => {
                let ret_ty = self.ty()?;
                let callee = self.callee()?;
                self.cur.expect(b'(')?;
                let args = self.list(b')', Self::value)?;
                push(Inst::Call {
                    callee,
                    args,
                    ret_ty,
                })
            }
            "ret" => {
                let value = if matches!(self.cur.tok, Tok::Ident("void")) {
                    self.cur.bump();
                    None
                } else {
                    Some(self.value()?)
                };
                push(Inst::Term(Terminator::Ret(value)))
            }
            "br" => {
                let target = self.label()?;
                push(Inst::Term(Terminator::Br(target)))
            }
            "condbr" => {
                let cond = self.value()?;
                self.cur.expect(b',')?;
                let then_bb = self.label()?;
                self.cur.expect(b',')?;
                let else_bb = self.label()?;
                push(Inst::Term(Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                }))
            }
            "switch" => {
                let value = self.value()?;
                self.cur.expect(b',')?;
                let default = self.label()?;
                let mut cases = Vec::new();
                while self.cur.eat(b'[') {
                    let case = self.cur.int()?;
                    self.cur.expect(b':')?;
                    cases.push((case, self.label()?));
                    self.cur.expect(b']')?;
                }
                push(Inst::Term(Terminator::Switch {
                    value,
                    default,
                    cases,
                }))
            }
            "unreachable" => push(Inst::Term(Terminator::Unreachable)),
            _ => {
                if let Some(op) = BinOp::from_mnemonic(op) {
                    let ty = self.ty()?;
                    let (lhs, rhs) = self.pair()?;
                    push(Inst::Bin { op, ty, lhs, rhs })
                } else if let Some(op) = CastOp::from_mnemonic(op) {
                    let from = self.ty()?;
                    let val = self.value()?;
                    self.cur.keyword("to")?;
                    let to = self.ty()?;
                    push(Inst::Cast { op, from, to, val })
                } else {
                    return Err(self.cur.error(op_at, format!("unknown opcode '{op}'")));
                }
            }
        })
    }

    /// The body of `f` after its `{`: `fmeta` lines, labelled blocks, the
    /// closing `}`. Patches the function's own fix-ups and returns the line
    /// of the closing brace.
    fn body(&mut self, f: &mut Function) -> Result<usize> {
        self.labels.clear();
        self.local_fixups.clear();
        while matches!(self.cur.tok, Tok::Ident("fmeta")) {
            self.cur.bump();
            let (key, value) = self.cur.key_value()?;
            f.metadata.insert(key, value);
        }
        let mut block = None;
        let end_line = loop {
            let at = self.cur.start();
            let (name, op, op_at) = match self.cur.tok {
                Tok::Punct(b'}') if block.is_some() => {
                    self.cur.bump();
                    break at.line;
                }
                Tok::Punct(b'}') => return Err(self.cur.error(at, "function body has no blocks")),
                Tok::Ident(word) => {
                    self.cur.bump();
                    if self.cur.eat(b':') {
                        let id = f.add_block(word);
                        if self.labels.insert(word, id).is_some() {
                            let message = format!("duplicate block label '{word}'");
                            return Err(self.cur.error(at, message));
                        }
                        block = Some(id);
                        continue;
                    }
                    (None, word, at)
                }
                Tok::Local(_) | Tok::Numbered(_) => {
                    let local = self.cur.local();
                    self.cur.bump();
                    self.cur.expect(b'=')?;
                    let op_at = self.cur.start();
                    (local, self.cur.ident("an opcode")?, op_at)
                }
                Tok::Eof => {
                    return Err(self
                        .cur
                        .error(at, "unexpected end of input in function body"))
                }
                _ => return Err(self.cur.unexpected("a block label, an instruction or '}'")),
            };
            let Some(block) = block else {
                return Err(self.cur.error(at, "instruction before first block label"));
            };
            self.inst = InstId(f.inst_arena_len() as u32);
            if let Some((name, number)) = name {
                if !self.bind(name, number, Value::Inst(self.inst)) {
                    let message = format!("duplicate SSA name '%{name}' in @{}", f.name);
                    return Err(self.cur.error(at, message));
                }
            }
            let id = self.inst(f, block, op, op_at)?;
            if let Some((name, _)) = name.filter(|_| !f.inst(id).has_result()) {
                return Err(self
                    .cur
                    .error(at, format!("%{name}: '{op}' produces no value")));
            }
            // `%v<i>` at arena index `i` is how the printer spells an
            // instruction without a name, so it is not stored.
            if let Some((name, number)) = name {
                let index = number
                    .map(usize::from)
                    .or_else(|| generated_index(name, "v"));
                if index != Some(id.index()) {
                    f.set_inst_name(id, name);
                }
            }
            // Optional metadata suffix: !{"k"="v", ...}
            if self.cur.eat(b'!') {
                self.cur.expect(b'{')?;
                self.list(b'}', |p| {
                    let (key, value) = p.cur.key_value()?;
                    f.set_inst_metadata(id, key, value);
                    Ok(())
                })?;
            }
        };
        f.close_blocks();
        for (k, fix) in self.local_fixups.iter().enumerate() {
            let unknown = || self.unresolved(fix.kind, fix.name, fix.at, &f.name);
            if let Use::Local(number) = fix.kind {
                let value = self.lookup(fix.name, number).ok_or_else(unknown)?;
                let hole = Value::Inst(InstId(hole(k)));
                f.inst_mut(fix.inst)
                    .map_operands(|v| if v == hole { value } else { v });
            } else {
                let block = *self.labels.get(fix.name).ok_or_else(unknown)?;
                let hole = BlockId(hole(k));
                match f.inst_mut(fix.inst) {
                    Inst::Phi { incomings, .. } => {
                        for (from, _) in incomings.iter_mut().filter(|(from, _)| *from == hole) {
                            *from = block;
                        }
                    }
                    Inst::Term(t) => t.replace_successor(hole, block),
                    _ => unreachable!("only phis and terminators name labels"),
                }
            }
        }
        Ok(end_line)
    }
}

/// Parse a whole module from text.
///
/// # Errors
/// Returns [`ParseError`] on malformed input or unresolved references.
pub fn parse_module(src: &str) -> std::result::Result<Module, ParseError> {
    parse(src, None).map_err(|e| *e)
}

/// Parse a whole module, also reporting the source span of every `define`.
///
/// Spans cover function *definitions* only (declarations and globals are
/// single-line and never need incremental reparse). Span order matches
/// definition order, i.e. `FuncId` order restricted to defined functions.
///
/// # Errors
/// Returns [`ParseError`] on malformed input or unresolved references.
pub fn parse_module_spanned(src: &str) -> std::result::Result<(Module, Vec<FuncSpan>), ParseError> {
    let mut spans = Vec::new();
    let module = parse(src, Some(&mut spans)).map_err(|e| *e)?;
    Ok((module, spans))
}

/// A whole module, pushing the span of every `define` onto `spans` when
/// the caller asked for them.
fn parse(src: &str, mut spans: Option<&mut Vec<FuncSpan>>) -> Result<Module> {
    let mut p = Parser::new(src, None);
    p.cur.keyword("module")?;
    let mut module = Module::new(p.cur.text()?);
    p.cur.expect(b'{')?;
    // Every body is built in this one arena, then moved out at its exact
    // size: one allocation per body, not a doubling series.
    let mut arena = Vec::new();
    loop {
        let at = p.cur.at;
        match p.cur.tok {
            Tok::Punct(b'}') => {
                p.cur.bump();
                break;
            }
            Tok::Ident("meta") => {
                p.cur.bump();
                let (key, value) = p.cur.key_value()?;
                module.metadata.insert(key, value);
            }
            Tok::Ident(word @ ("global" | "const")) => {
                p.cur.bump();
                let is_const = word == "const";
                if is_const {
                    p.cur.keyword("global")?;
                }
                let name = p.cur.sym()?;
                p.cur.expect(b':')?;
                let ty = p.ty()?;
                p.cur.expect(b'=')?;
                let init = p.global_init()?;
                let id = module.add_global(Global {
                    name: name.to_string(),
                    ty,
                    init,
                    is_const,
                });
                p.globals.entry(name).or_insert(id);
            }
            Tok::Ident("declare") => {
                p.cur.bump();
                let (name, f) = p.signature()?;
                let id = module.add_function(f);
                p.funcs.entry(name).or_insert(id);
            }
            Tok::Ident("define") => {
                p.cur.bump();
                let (name, mut f) = p.signature()?;
                p.cur.expect(b'{')?;
                let id = FuncId(module.functions.len() as u32);
                p.func = *p.funcs.entry(name).or_insert(id);
                f.insts = std::mem::take(&mut arena);
                let end_line = p.body(&mut f)?;
                arena = std::mem::take(&mut f.insts);
                f.insts = Vec::with_capacity(arena.len());
                f.insts.append(&mut arena);
                if let Some(spans) = spans.as_deref_mut() {
                    spans.push(FuncSpan {
                        name: f.name.clone(),
                        start_line: at.line,
                        end_line,
                    });
                }
                if p.func == id {
                    module.add_function(f);
                } else {
                    // An earlier item owns the name (a forward `declare`,
                    // say): the body goes where calls by that name land,
                    // and this slot stays a declaration.
                    let decl = Function::new(name, f.params.clone(), f.ret_ty.clone());
                    module.add_function(decl);
                    *module.func_mut(p.func) = f;
                }
            }
            _ => {
                return Err(p
                    .cur
                    .unexpected("'meta', 'global', 'const', 'declare', 'define' or '}'"))
            }
        }
    }
    for (k, fix) in p.symbol_fixups.iter().enumerate() {
        let hole = FuncId(hole(k));
        let unknown = || p.unresolved(fix.kind, fix.name, fix.at, "");
        // `get_mut`: a later `define` of the same name replaces the body
        // this record points into, and may be shorter.
        let insts = &mut module.functions[fix.func.index()].insts;
        let inst = insts.get_mut(fix.inst.index()).map(|data| &mut data.inst);
        let value = p.resolve(fix.kind, fix.name, true);
        match (inst, value.ok_or_else(unknown)?) {
            (Some(Inst::Call { callee, .. }), Value::Func(f))
                if *callee == Callee::Direct(hole) =>
            {
                *callee = Callee::Direct(f)
            }
            (Some(inst), value) => {
                inst.map_operands(|v| if v == Value::Func(hole) { value } else { v })
            }
            (None, _) => {}
        }
    }
    Ok(module)
}

/// Parse one `define ... { ... }` snippet against an existing module's
/// symbol table.
///
/// The incremental half of the IDE diff-parser: when an edit is confined to
/// one function's [`FuncSpan`], only that snippet is re-parsed; symbols
/// (`@globals`, called functions) resolve against `module`, so any
/// reference valid in the full text is valid here. The returned function is
/// *not* installed; the caller swaps it in via its editing API.
///
/// # Errors
/// Returns [`ParseError`] on malformed input, unresolved references, or
/// trailing tokens after the closing `}`.
pub fn parse_function_text(
    module: &Module,
    src: &str,
) -> std::result::Result<Function, ParseError> {
    function_text(module, src).map_err(|e| *e)
}

fn function_text(module: &Module, src: &str) -> Result<Function> {
    let mut p = Parser::new(src, Some(module));
    p.cur.keyword("define")?;
    let (_, mut f) = p.signature()?;
    p.cur.expect(b'{')?;
    p.body(&mut f)?;
    if !matches!(p.cur.tok, Tok::Eof) {
        return Err(p.cur.unexpected("end of input after the function body"));
    }
    Ok(f)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    const LOOP_SRC: &str = r#"
module "demo" {
meta "k" = "v"

global @counter : i64 = i64 0
const global @table : [4 x i64] = [i64 1, i64 2, i64 3, i64 4]

declare i8* @malloc(i64 %n)

define i64 @sum(i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %s2 = add i64 %s, %i
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;

    #[test]
    fn parses_loop_module() {
        let m = parse_module(LOOP_SRC).expect("parses");
        assert_eq!(m.metadata.get("k").map(String::as_str), Some("v"));
        assert_eq!(m.globals().len(), 2);
        assert!(m.globals()[1].is_const);
        let sum = m.func_by_name("sum").unwrap();
        assert_eq!(sum.num_insts(), 9);
        crate::verifier::verify_module(&m).expect("verifies");
    }

    #[test]
    fn round_trips_through_printer() {
        let m1 = parse_module(LOOP_SRC).unwrap();
        let text = print_module(&m1);
        let m2 = parse_module(&text).expect("reparses");
        assert_eq!(print_module(&m2), text);
    }

    #[test]
    fn parses_calls_direct_and_indirect() {
        let src = r#"
module "c" {
define i64 @id(i64 %x) {
entry:
  ret %x
}
define i64 @caller(i64 %x) {
entry:
  %a = call i64 @id(%x)
  %fp = bitcast fn i64(i64)* @id to fn i64(i64)*
  %b = call i64 %fp(%a)
  ret %b
}
}
"#;
        let m = parse_module(src).expect("parses");
        let caller = m.func_by_name("caller").unwrap();
        let calls: Vec<_> = caller
            .inst_ids()
            .into_iter()
            .filter(|&i| matches!(caller.inst(i), Inst::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(matches!(
            caller.inst(calls[0]),
            Inst::Call {
                callee: Callee::Direct(_),
                ..
            }
        ));
        assert!(matches!(
            caller.inst(calls[1]),
            Inst::Call {
                callee: Callee::Indirect(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_gep_store_switch_and_metadata() {
        let src = r#"
module "g" {
global @buf : [8 x i64] = zero
define void @f(i64 %i) {
entry:
  %p = gep [8 x i64], @buf, i64 0, %i !{"noelle.id"="3"}
  store i64 i64 7, %p
  switch %i, done [1: one] [2: two]
one:
  br done
two:
  br done
done:
  ret void
}
}
"#;
        let m = parse_module(src).expect("parses");
        let f = m.func_by_name("f").unwrap();
        let gep = f.inst_ids()[0];
        assert_eq!(f.inst_metadata(gep, "noelle.id"), Some("3"));
        assert!(matches!(f.inst(gep), Inst::Gep { indices, .. } if indices.len() == 2));
        crate::verifier::verify_module(&m).expect("verifies");
    }

    /// `parse_module` of `module "t" { <items> }`, one item per line from
    /// line 2 on, as `(line, column, message)` of the error it must give.
    fn error_of(items: &[&str]) -> (usize, usize, String) {
        let src = format!("module \"t\" {{\n{}\n}}\n", items.join("\n"));
        let e = parse_module(&src).expect_err("must not parse");
        (e.line, e.column, e.message)
    }

    #[test]
    fn errors_carry_the_position_of_the_offending_token() {
        let at = |line, col, msg: &str| (line, col, msg.to_string());
        // Resolution errors point at the use, not at line 0.
        let f = |body: &[&str]| {
            let mut items = vec!["define i64 @f(i64 %p) {", "entry:"];
            items.extend(body);
            items.push("}");
            error_of(&items)
        };
        assert_eq!(f(&["  ret %nope"]), at(4, 7, "unknown value '%nope' in @f"));
        assert_eq!(
            f(&["  br nowhere"]),
            at(4, 6, "unknown label 'nowhere' in @f")
        );
        assert_eq!(
            f(&["  %a = load i64, @gone", "  ret %a"]),
            at(4, 18, "unknown symbol '@gone'")
        );
        assert_eq!(
            f(&["  %a = call i64 @gone()", "  ret %a"]),
            at(4, 17, "call to unknown function '@gone'")
        );
        assert_eq!(
            f(&["  %a = add i64 %p, %p", "  %a = add i64 %p, %p", "  ret %a"]),
            at(5, 3, "duplicate SSA name '%a' in @f")
        );
        assert_eq!(
            f(&["  br entry", "entry:", "  ret %p"]),
            at(5, 1, "duplicate block label 'entry'")
        );
        // A name on an instruction without a result would vanish in print.
        assert_eq!(
            f(&[
                "  %x = store i64 i64 1, @g",
                "  %y = add i64 %x, i64 1",
                "  ret %y"
            ]),
            at(4, 3, "%x: 'store' produces no value")
        );
        assert_eq!(
            f(&["  %x = call void @f(%p)", "  ret %p"]),
            at(4, 3, "%x: 'call' produces no value")
        );
        assert_eq!(
            f(&["  %r = ret %p"]),
            at(4, 3, "%r: 'ret' produces no value")
        );
        // A duplicate is reported where it stands even when the name was
        // first met as a forward use.
        assert_eq!(
            f(&[
                "  br next",
                "next:",
                "  %x = add i64 %y, %p",
                "  %y = add i64 %p, %p",
                "  %y = add i64 %p, %p"
            ]),
            at(8, 3, "duplicate SSA name '%y' in @f")
        );
        // The token that is wrong, in source form, on its own line: `br 5`
        // on line 4 is not blamed on the `}` of line 5.
        assert_eq!(
            f(&["  br 5"]),
            at(4, 6, "expected a block label, found '5'")
        );
        assert_eq!(
            f(&["  frobnicate i64 %p"]),
            at(4, 3, "unknown opcode 'frobnicate'")
        );
        assert_eq!(
            f(&["  store i64 i64 1"]),
            at(5, 1, "expected ',', found '}'")
        );
        assert_eq!(
            error_of(&["  garbage here"]),
            at(
                2,
                3,
                "expected 'meta', 'global', 'const', 'declare', 'define' or '}', found 'garbage'"
            )
        );
        assert_eq!(
            error_of(&["global @g : i64 = i64 0", "define i64 @f() {"]),
            at(4, 1, "function body has no blocks")
        );
        let e = parse_module("module \"t\" {\ndefine i64 @f() {\nentry:\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at 4:1: unexpected end of input in function body"
        );
        let e = parse_module("module \"t\" {\n  meta \"é\" = é").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at 2:14: unexpected character 'é'"
        );
    }

    #[test]
    fn the_first_error_in_the_text_wins() {
        // A stray byte further down no longer pre-empts the syntax error.
        let (line, _, message) = error_of(&["define void @f() {", "entry:", "  br 5", "}", "#"]);
        assert_eq!(
            (line, message.as_str()),
            (4, "expected a block label, found '5'")
        );
        let (line, _, message) = error_of(&["global @g : i64 = i64 #", "  garbage"]);
        assert_eq!((line, message.as_str()), (2, "unexpected character '#'"));
    }

    #[test]
    fn forward_references_resolve_at_the_closing_brace() {
        let src = r#"
module "fwd" {
declare i64 @both()
define i64 @first(i64 %n) {
entry:
  br later
later:
  %p = phi i64 [entry: i64 0] [later: %q]
  %q = call i64 @second(%p)
  %t = load i64, @tab
  %b = load i64, @both
  %c = icmp slt i64 %q, %n
  condbr %c, later, done
done:
  ret %q
}
define i64 @second(i64 %x) {
entry:
  ret %x
}
global @tab : i64 = i64 0
global @both : i64 = i64 0
}
"#;
        let m = parse_module(src).expect("parses");
        crate::verifier::verify_module(&m).expect("verifies");
        let f = m.func_by_name("first").unwrap();
        let ids = f.inst_ids();
        let later = f.block_order()[1];
        assert_eq!(f.inst(ids[0]), &Inst::Term(Terminator::Br(later)));
        let Inst::Phi { incomings, .. } = f.inst(ids[1]) else {
            panic!("phi expected");
        };
        assert_eq!(incomings[1], (later, Value::Inst(ids[2])));
        let second = m.func_id_by_name("second").unwrap();
        assert!(
            matches!(f.inst(ids[2]), Inst::Call { callee: Callee::Direct(c), .. } if *c == second)
        );
        let tab = m.global_id_by_name("tab").unwrap();
        assert!(matches!(f.inst(ids[3]), Inst::Load { ptr: Value::Global(g), .. } if *g == tab));
        // `@both` names a function when it is used, but a global by the end
        // of the module, and a global wins.
        let both = m.global_id_by_name("both").unwrap();
        assert!(matches!(f.inst(ids[4]), Inst::Load { ptr: Value::Global(g), .. } if *g == both));
    }

    #[test]
    fn a_forward_declaration_receives_the_body() {
        let src = "module \"d\" {\ndeclare i64 @f(i64 %x)\ndefine i64 @g() {\nentry:\n  \
                   %r = call i64 @f(i64 1)\n  ret %r\n}\ndefine i64 @f(i64 %x) {\nentry:\n  ret %x\n}\n}";
        let m = parse_module(src).expect("parses");
        assert_eq!(m.functions().len(), 3);
        assert!(!m.functions()[0].is_declaration() && m.functions()[2].is_declaration());
        crate::verifier::verify_module(&m).expect("verifies");
        // Redefinition replaces the body; uses recorded in the old one go.
        let twice = "module \"d\" {\ndefine i64 @f() {\nentry:\n  %a = call i64 @late()\n  \
                     %b = call i64 @late()\n  ret %b\n}\ndefine i64 @f() {\nentry:\n  ret i64 1\n}\n\
                     declare i64 @late()\n}";
        let m = parse_module(twice).expect("parses");
        assert_eq!(m.functions()[0].num_insts(), 1);
    }

    #[test]
    fn type_nesting_is_bounded() {
        let global = |ty: &str| format!("module \"t\" {{\nglobal @g : {ty} = zero\n}}\n");
        let nested = |n: usize| format!("{}i64{}", "[1 x ".repeat(n), "]".repeat(n));
        parse_module(&global(&nested(MAX_TYPE_DEPTH as usize - 1))).expect("within the bound");
        for ty in [
            nested(MAX_TYPE_DEPTH as usize),
            nested(200_000),
            format!("i8{}", "*".repeat(200_000)),
            format!("{}{}", nested(40), "*".repeat(40)),
            format!("{}i8", "fn ".repeat(200_000)),
        ] {
            let e = parse_module(&global(&ty)).unwrap_err();
            assert_eq!((e.message.as_str(), e.line), ("type nesting too deep", 2));
        }
    }

    #[test]
    fn lexical_corners() {
        let src = "module \"λ \\\"q\\\" \\\\ \\n\" { ; commentaire é\r\n\
                   meta \"clé\" = \"värde\"\r\n\
                   define f64 @f() {\r\nentry:\u{a0}\u{2003}\r\n  \
                   %a = fadd f64 f64 inf, f64 -inf\r\n  %b = fadd f64 %a, f64 NaN\r\n  \
                   %c = fadd f64 %b, f64 -2\r\n  ret %c\r\n}\r\n} ; no newline at the end";
        let m = parse_module(src).expect("parses");
        assert_eq!(m.name, "λ \"q\" \\ \n");
        assert_eq!(m.metadata["clé"], "värde");
        let f = m.func_by_name("f").unwrap();
        let operands = |i: usize| {
            let mut ops = Vec::new();
            f.inst(f.inst_ids()[i]).for_each_operand(|v| ops.push(v));
            ops
        };
        assert_eq!(
            operands(0),
            [f64::INFINITY, f64::NEG_INFINITY].map(Value::const_f64)
        );
        assert!(matches!(operands(1)[1], Value::Const(c) if c.as_f64().unwrap().is_nan()));
        assert_eq!(operands(2)[1], Value::const_f64(-2.0));
        for (bad, message) in [
            ("module \"a\\qb\" {}", "bad escape '\\q'"),
            ("module \"open\n\" {}", "unterminated string"),
            ("module \"m\" { meta \"k\" = - }", "dangling '-'"),
            (
                "module \"m\" { meta \"k\" = -infinity }",
                "unexpected '-infinity'",
            ),
            ("module \"m\" { global @ }", "empty name after '@'"),
            (
                "module \"m\" { global @g : [99999999999999999999 x i8] = zero }",
                "bad integer literal '99999999999999999999'",
            ),
            (
                "module \"m\" { global @g : f64 = f64 1.2.3 }",
                "bad float literal '1.2.3'",
            ),
        ] {
            assert_eq!(parse_module(bad).unwrap_err().message, message, "{bad}");
        }
    }

    #[test]
    fn integers_read_in_place_agree_with_str_parse() {
        for literal in [
            "0",
            "007",
            "-0",
            "-12",
            "999999999999999999",
            "-999999999999999999",
            "123456789012345678",
            "1234567890123456789",
            "1000000000000000000",
            "9223372036854775807",
            "-9223372036854775808",
        ] {
            let src = format!("module \"m\" {{ global @g : i64 = i64 {literal} }}");
            let m = parse_module(&src).expect(literal);
            let expected = Constant::Int(literal.parse().unwrap(), crate::types::IntWidth::I64);
            assert_eq!(
                m.globals()[0].init,
                GlobalInit::Scalar(expected),
                "{literal}"
            );
        }
        for literal in [
            "9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
        ] {
            let src = format!("module \"m\" {{ global @g : i64 = i64 {literal} }}");
            assert_eq!(
                parse_module(&src).unwrap_err().message,
                format!("bad integer literal '{literal}'")
            );
        }
    }

    #[test]
    fn spans_cover_each_define() {
        // Lines end in `\n` or `\r\n`, and a `;` comment runs to the end of
        // its line, on a line of its own or after the code.
        let crlf = LOOP_SRC.replace('\n', "\r\n");
        let trailing = LOOP_SRC.replace('\n', " ; a note {\n");
        let own_lines = LOOP_SRC.replace('\n', "\n; } define\n");
        let both = LOOP_SRC.replace('\n', "\r\n  ;\u{a0}x\r\n");
        for (src, start_line, end_line) in [
            (LOOP_SRC, 10, 24),
            (crlf.as_str(), 10, 24),
            (trailing.as_str(), 10, 24),
            (own_lines.as_str(), 19, 47),
            (both.as_str(), 19, 47),
        ] {
            let (m, spans) = parse_module_spanned(src).expect("parses");
            assert_eq!(spans.len(), 1);
            let s = &spans[0];
            assert_eq!(
                (s.name.as_str(), s.start_line, s.end_line),
                ("sum", start_line, end_line)
            );
            let lines: Vec<&str> = src.split('\n').collect();
            assert!(lines[s.start_line - 1].starts_with("define i64 @sum"));
            assert!(lines[s.end_line - 1].starts_with('}'));
            // Re-parsing exactly the spanned lines yields the same function.
            let snippet = lines[s.start_line - 1..s.end_line].join("\n");
            let f = parse_function_text(&m, &snippet).expect("snippet parses");
            assert_eq!(
                m.func_by_name("sum").map(Function::fingerprints),
                Some(f.fingerprints()),
                "snippet reparse is content-identical"
            );
        }
    }

    #[test]
    fn function_text_resolves_module_symbols_and_rejects_trailing() {
        let m = parse_module(LOOP_SRC).unwrap();
        // References @counter (a module global) from a fresh snippet.
        let f = parse_function_text(
            &m,
            "define i64 @peek() {\nentry:\n  %v = load i64, @counter\n  ret %v\n}",
        )
        .expect("resolves global");
        assert_eq!(f.name, "peek");
        let err = parse_function_text(&m, "define void @f() {\nentry:\n  ret void\n}\ngarbage")
            .unwrap_err();
        assert_eq!(
            err.message,
            "expected end of input after the function body, found 'garbage'"
        );
        assert_eq!((err.line, err.column), (5, 1));
        let err = parse_function_text(&m, "define i64 @f() {\nentry:\n  ret %gone\n}").unwrap_err();
        assert_eq!(err.message, "unknown value '%gone' in @f");
        let err = parse_function_text(
            &m,
            "define i64 @f() {\nentry:\n  %p = bitcast i64* @gone to i8*\n  ret i64 0\n}",
        )
        .unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.line),
            ("unknown symbol '@gone'", 3)
        );
    }

    #[test]
    fn parses_float_specials() {
        let src = r#"
module "f" {
define f64 @f() {
entry:
  %a = fadd f64 f64 1.5, f64 -2.25
  %b = fmax f64 %a, f64 inf
  %c = fmin f64 %b, f64 -inf
  ret %c
}
}
"#;
        let m = parse_module(src).expect("parses");
        let text = print_module(&m);
        let m2 = parse_module(&text).expect("round trips");
        assert_eq!(print_module(&m2), text);
    }
}
