//! A minimal JSON value model, parser and writer.
//!
//! Replaces `serde`/`serde_json` where the workspace writes or reads
//! JSON: the trace file (`fgcs generate` writes it, every trace-reading
//! command loads it), the `fgcs chaos` report, the metrics snapshot and
//! the serve protocol's lines. Design points:
//!
//! - Objects keep **insertion order** (`Vec<(String, Json)>`), so writing is
//!   deterministic: the same value always serializes to the same bytes.
//! - Numbers are kept as `i64`/`u64` when they are exact integers and `f64`
//!   otherwise. Floats are written with Rust's `Display`, which since 1.0
//!   produces the shortest representation that round-trips exactly.
//! - Typed serialization is via the [`ToJson`] / [`FromJson`] traits,
//!   implemented only for the types a file or reply carries (see
//!   [`crate::impl_json_struct`] for the struct case).
//! - Text is read by one recursive descent, one rule per production, in two
//!   modes: the build mode makes the tree for [`Json::parse`]; the validate
//!   mode allocates nothing. [`JsonSlice`], the serve request view, runs
//!   the validate mode once over a line and captures, in that one pass, the
//!   first value of each [`Field`] the protocol reads. Both modes accept
//!   the same texts, and the view's captures read as the tree's values do.
//!   Every descent adds the bytes it walked to the
//!   `runtime.json.walked_bytes` counter, once per call.

use std::borrow::Cow;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

use crate::block;

/// A parse or conversion error, carrying a human-readable message with
/// enough context (byte offset or field name) to locate the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }

    /// Prefixes the error with a field name, building a path as conversion
    /// errors propagate outwards.
    #[must_use]
    pub fn in_field(self, name: &str) -> JsonError {
        JsonError(format!("{name}: {}", self.0))
    }
}

/// A JSON document: the usual six shapes, with integers kept exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Negative integers (parsed from literals without `.`/`e`).
    I64(i64),
    /// Non-negative integers.
    U64(u64),
    /// Everything else numeric.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Numeric coercion: any number variant as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::I64(v) => Some(v as f64),
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric coercion: exact non-negative integers only.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v <= 2f64.powi(53) && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// Looks up a key in an object.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field `{name}`"))),
            other => Err(JsonError::new(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Looks up `name` and converts it, prefixing errors with the field name.
    pub fn get<T: FromJson>(&self, name: &str) -> Result<T, JsonError> {
        T::from_json(self.field(name)?).map_err(|e| e.in_field(name))
    }

    /// Looks up `name` and converts it if present; a missing field (or an
    /// explicit `null`) is `Ok(None)` rather than an error.
    ///
    /// This is the wire-protocol helper: request fields with defaults
    /// (`day_index`, `points`, …) parse through here so clients can omit
    /// them, while a present-but-malformed value still fails loudly.
    pub fn get_opt<T: FromJson>(&self, name: &str) -> Result<Option<T>, JsonError> {
        match self {
            Json::Obj(pairs) => match pairs.iter().find(|(k, _)| k == name) {
                None | Some((_, Json::Null)) => Ok(None),
                Some((_, v)) => T::from_json(v).map(Some).map_err(|e| e.in_field(name)),
            },
            other => Err(JsonError::new(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// A short noun for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::I64(_) | Json::U64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Parses a JSON document from text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut d = Descent::<Build>::new(text, 0);
        let tree = d.document(Descent::value);
        walked(d.pos);
        tree.map_err(|fail| fail.error(text))
    }
}

/// Compact serialization; deterministic for a given value. The same
/// routine renders [`JsonWriter::json`].
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_json(f, self)
    }
}

/// Writes `value` as compact JSON: the one renderer behind both [`Json`]'s
/// `Display` and [`JsonWriter`].
fn write_json<W: fmt::Write>(out: &mut W, value: &Json) -> fmt::Result {
    match value {
        Json::Null => out.write_str("null"),
        Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Json::I64(v) => write!(out, "{v}"),
        Json::U64(v) => write!(out, "{v}"),
        Json::F64(v) => write_f64(out, *v),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_json(out, item)?;
            }
            out.write_char(']')
        }
        Json::Obj(pairs) => {
            out.write_char('{')?;
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_string(out, k)?;
                out.write_char(':')?;
                write_json(out, v)?;
            }
            out.write_char('}')
        }
    }
}

/// The float rule: shortest round-trip `Display` when finite (plain
/// digits, never an exponent); `null` otherwise, since JSON has no
/// NaN/Inf — the lossy-but-valid choice of most writers.
fn write_f64<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_str("null")
    }
}

/// `s` as a quoted JSON string.
fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    escape_into(out, s)?;
    out.write_char('"')
}

/// Whether a string byte is one the string rule stops at and the escape
/// table rewrites: `"`, `\` or a control byte. No byte of a multi-byte
/// character is.
fn escapes(&c: &u8) -> bool {
    (c == b'"') | (c == b'\\') | (c < 0x20)
}

/// The escape table: `s`'s characters, escaped, without quotes.
fn escape_into<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{08}' => out.write_str("\\b")?,
            '\u{0C}' => out.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

const MAX_DEPTH: usize = 512;

/// Counts the bytes one descent walked: one counter add per call, never
/// per byte (DESIGN §6b).
fn walked(bytes: usize) {
    crate::counter_add!("runtime.json.walked_bytes", bytes as u64);
}

/// Why the descent stopped, and where. Only [`Json::parse`] words it (as a
/// [`JsonError`]); the validate mode drops it, so failing costs nothing.
#[derive(Debug, Clone, Copy)]
struct Fail {
    at: usize,
    why: Why,
}

#[derive(Debug, Clone, Copy)]
enum Why {
    /// `{0} at byte {at}`.
    Said(&'static str),
    /// ``expected `{0}` at byte {at}``.
    Expected(&'static str),
    /// ``unexpected character `{c}` at byte {at}``, `c` the byte there.
    Unexpected,
    /// ``invalid number `{text}` at byte {at}``, the text ending at `end`.
    Number { end: usize },
}

impl Fail {
    /// The error text for a failure on `text`.
    fn error(self, text: &str) -> JsonError {
        let at = self.at;
        JsonError::new(match self.why {
            Why::Said(msg) => format!("{msg} at byte {at}"),
            Why::Expected(token) => format!("expected `{token}` at byte {at}"),
            Why::Unexpected => format!(
                "unexpected character `{}` at byte {at}",
                text.as_bytes()[at] as char
            ),
            Why::Number { end } => format!("invalid number `{}` at byte {at}", &text[at..end]),
        })
    }
}

/// What the descent makes of the text it accepts: the [`Json`] tree
/// ([`Build`]) or nothing ([`Validate`]).
trait Mode {
    /// An accepted value.
    type Value;
    /// An accepted string's decoded text.
    type Text: Default;
    /// Appends `src[piece]` to a string's decoded text. It takes the range,
    /// not the slice, so the validate mode never pays the slice's checks.
    fn append(text: &mut Self::Text, src: &str, piece: Range<usize>);
    /// A `null`, bool or number.
    fn scalar(value: Json) -> Self::Value;
    fn string(text: Self::Text) -> Self::Value;
    fn array(items: Vec<Self::Value>) -> Self::Value;
    fn object(members: Vec<(Self::Text, Self::Value)>) -> Self::Value;
}

/// The build mode, behind [`Json::parse`]: the tree, in one pass.
enum Build {}

impl Mode for Build {
    type Value = Json;
    type Text = String;
    fn append(text: &mut String, src: &str, piece: Range<usize>) {
        text.push_str(&src[piece]);
    }
    fn scalar(value: Json) -> Json {
        value
    }
    fn string(text: String) -> Json {
        Json::Str(text)
    }
    fn array(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
    fn object(members: Vec<(String, Json)>) -> Json {
        Json::Obj(members)
    }
}

/// The validate mode, behind [`JsonSlice`]: values and texts are `()`, and
/// a `Vec` of `()` never allocates, so validating allocates nothing. The
/// caller keeps the raw text a rule accepted ([`Descent::raw`]).
enum Validate {}

impl Mode for Validate {
    type Value = ();
    type Text = ();
    fn append(_: &mut (), _: &str, _: Range<usize>) {}
    fn scalar(_: Json) {}
    fn string(_: ()) {}
    fn array(_: Vec<()>) {}
    fn object(_: Vec<((), ())>) {}
}

/// The one recursive descent over JSON text, one rule per production.
///
/// Its number rule is lax: it takes the bytes of the number alphabet and
/// lets the integer and float parsers arbitrate (so `01` reads as 1).
struct Descent<'a, M> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Set when a string rule met an escape (never cleared here).
    escaped: bool,
    mode: PhantomData<M>,
}

impl<'a, M: Mode> Descent<'a, M> {
    fn new(text: &'a str, pos: usize) -> Self {
        Descent {
            text,
            pos,
            depth: 0,
            escaped: false,
            mode: PhantomData,
        }
    }

    fn fail(&self, msg: &'static str) -> Fail {
        Fail {
            at: self.pos,
            why: Why::Said(msg),
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps past `token`.
    fn eat(&mut self, token: &'static str) -> Result<(), Fail> {
        let end = self.pos + token.len();
        if self.text.as_bytes().get(self.pos..end) == Some(token.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(Fail {
                at: self.pos,
                why: Why::Expected(token),
            })
        }
    }

    /// The document: one value, read by `rule`, with nothing but
    /// whitespace around it.
    fn document<T>(&mut self, rule: impl FnOnce(&mut Self) -> Result<T, Fail>) -> Result<T, Fail> {
        self.skip_ws();
        let value = rule(self)?;
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(value)
        } else {
            Err(self.fail("trailing characters after document"))
        }
    }

    fn value(&mut self) -> Result<M::Value, Fail> {
        if self.depth >= MAX_DEPTH {
            return Err(self.fail("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(M::string),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.number().map(|n| M::scalar(n.into()))
            }
            Some(_) => Err(Fail {
                at: self.pos,
                why: Why::Unexpected,
            }),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<M::Value, Fail> {
        self.eat(word)?;
        Ok(M::scalar(value))
    }

    fn array(&mut self) -> Result<M::Value, Fail> {
        self.pos += 1; // '['
        self.depth += 1;
        let mut items = Vec::new();
        while self.next_member(items.is_empty(), b']')? {
            items.push(self.value()?);
        }
        self.depth -= 1;
        Ok(M::array(items))
    }

    fn object(&mut self) -> Result<M::Value, Fail> {
        self.pos += 1; // '{'
        self.depth += 1;
        let mut members = Vec::new();
        while self.next_member(members.is_empty(), b'}')? {
            let key = self.string()?;
            self.colon()?;
            members.push((key, self.value()?));
        }
        self.depth -= 1;
        Ok(M::object(members))
    }

    /// Steps to an array's or object's next member: past whitespace, and
    /// past the `,` before every member but the `first`. `Ok(false)` once
    /// the container has closed with `close` (`]` or `}`).
    fn next_member(&mut self, first: bool, close: u8) -> Result<bool, Fail> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        if !first {
            if self.peek() != Some(b',') {
                return Err(self.fail(if close == b']' {
                    "expected `,` or `]` in array"
                } else {
                    "expected `,` or `}` in object"
                }));
            }
            self.pos += 1;
            self.skip_ws();
        }
        Ok(true)
    }

    /// The `:` between an object member's key and value, with the
    /// whitespace around it.
    fn colon(&mut self) -> Result<(), Fail> {
        self.skip_ws();
        self.eat(":")?;
        self.skip_ws();
        Ok(())
    }

    /// The string rule, escape decoder included. Plain text is skipped a
    /// block at a time up to the next `"`, `\` or control byte; bytes from
    /// 0x80 are plain, since the input is a `&str`.
    fn string(&mut self) -> Result<M::Text, Fail> {
        self.eat("\"")?;
        let mut text = M::Text::default();
        loop {
            let run = self.pos;
            let rest = self.rest();
            let plain = block::position(rest, escapes);
            self.pos += plain.unwrap_or(rest.len());
            M::append(&mut text, self.text, run..self.pos);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.escaped = true;
                    self.pos += 1;
                    let c = self.escape()?;
                    let mut utf8 = [0; 4];
                    let c = c.encode_utf8(&mut utf8);
                    M::append(&mut text, c, 0..c.len());
                }
                Some(_) => return Err(self.fail("control character in string")),
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    /// The character an escape stands for, read after its `\`.
    fn escape(&mut self) -> Result<char, Fail> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            _ => return Err(self.fail("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// A `\u` escape after its `u`; a high surrogate takes the low half's
    /// escape with it.
    fn unicode(&mut self) -> Result<char, Fail> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi).ok_or_else(|| self.fail("invalid \\u escape"));
        }
        if !self.rest().starts_with(b"\\u") {
            return Err(self.fail("unpaired high surrogate"));
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(self.fail("invalid low surrogate"));
        }
        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, Fail> {
        let digits = self
            .rest()
            .get(..4)
            .ok_or_else(|| self.fail("truncated \\u escape"))?;
        let hex = std::str::from_utf8(digits).map_err(|_| self.fail("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.fail("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// The number rule: the bytes of the number alphabet, read as an exact
    /// `u64` or `i64` when they hold none of `.eE+` and no `-` after the
    /// first byte, else as `f64`. Text that starts outside the alphabet
    /// (any other kind of value) fails.
    fn number(&mut self) -> Result<Number, Fail> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Number::I64(v));
            }
        }
        text.parse::<f64>().map(Number::F64).map_err(|_| Fail {
            at: start,
            why: Why::Number { end: self.pos },
        })
    }
}

impl<'a> Descent<'a, Validate> {
    /// Runs `rule` and returns the text it accepted.
    fn raw(&mut self, rule: impl FnOnce(&mut Self) -> Result<(), Fail>) -> Result<&'a str, Fail> {
        let start = self.pos;
        rule(self)?;
        Ok(&self.text[start..self.pos])
    }

    /// The value at `pos` as a captured object view; any other kind of
    /// value fails unread.
    // lint: no-alloc
    fn captured_object(&mut self) -> Result<JsonSlice<'a>, Fail> {
        if self.peek() != Some(b'{') {
            return Err(self.fail("expected an object"));
        }
        self.pos += 1;
        self.depth += 1;
        let mut view = JsonSlice {
            fields: [None; Field::NAMES.len()],
        };
        let mut first = true;
        while self.next_member(first, b'}')? {
            first = false;
            self.escaped = false;
            let key = self.raw(Descent::string)?;
            let field = Field::of(&decode(key, self.escaped));
            self.colon()?;
            let value = self.captured_value()?;
            if let Some(field) = field {
                view.fields[field as usize].get_or_insert(value);
            }
        }
        self.depth -= 1;
        Ok(view)
    }

    /// One member value, validated, as what its field keeps: a number
    /// already read, a string's raw text, or any other value's raw text.
    // lint: no-alloc
    fn captured_value(&mut self) -> Result<Capture<'a>, Fail> {
        let start = self.pos;
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Capture::Number),
            Some(b'"') => {
                self.escaped = false;
                self.string()?;
                Ok(Capture::Str {
                    raw: &self.text[start..self.pos],
                    escaped: self.escaped,
                })
            }
            _ => {
                self.value()?;
                Ok(Capture::Other(&self.text[start..self.pos]))
            }
        }
    }
}

/// A number as the number rule reads it: exact when the text allows.
#[derive(Debug, Clone, Copy)]
enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl From<Number> for Json {
    fn from(n: Number) -> Json {
        match n {
            Number::U64(v) => Json::U64(v),
            Number::I64(v) => Json::I64(v),
            Number::F64(v) => Json::F64(v),
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

fn type_err<T>(expected: &str, v: &Json) -> Result<T, JsonError> {
    Err(JsonError::new(format!(
        "expected {expected}, found {}",
        v.kind()
    )))
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => type_err("bool", other),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().map_or_else(|| type_err("number", v), Ok)
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(u64::try_from(*self).expect("non-negative"))
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| JsonError::new(format!(
                        "expected unsigned integer, found {}",
                        v.kind()
                    )))?;
                <$ty>::try_from(raw)
                    .map_err(|_| JsonError::new(format!("integer {raw} out of range")))
            }
        }
    )+};
}

impl_json_uint!(u32, u64, usize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item).map_err(|e| e.in_field(&format!("[{i}]"))))
                .collect(),
            other => type_err("array", other),
        }
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields, using
/// the field names as object keys (the layout `serde` derives produced).
///
/// Invoke it in the module that defines the struct so private fields are in
/// scope:
///
/// ```ignore
/// impl_json_struct!(LoadSample { host_cpu, free_mem_mb, alive });
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $( $field: v.get(stringify!($field))?, )+
                })
            }
        }
    };
}

/// The object keys a [`JsonSlice`] captures: every field the serve
/// protocol reads, and the fields of the registry's WAL records and
/// snapshot frames. Each variant is its key in snake case (`DayIndex` is
/// `day_index`); `Days`, `I` and `S` are a snapshot frame's stored days
/// and each day's index and run text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    Op,
    Host,
    DayIndex,
    States,
    Start,
    Hours,
    DayType,
    Init,
    Points,
    Ops,
    Days,
    I,
    S,
}

impl Field {
    /// Every field, in variant order.
    const ALL: [Field; 13] = [
        Field::Op,
        Field::Host,
        Field::DayIndex,
        Field::States,
        Field::Start,
        Field::Hours,
        Field::DayType,
        Field::Init,
        Field::Points,
        Field::Ops,
        Field::Days,
        Field::I,
        Field::S,
    ];

    /// The key of each field in [`ALL`](Field::ALL), at the same index:
    /// the one key-to-field table.
    const NAMES: [&'static str; 13] = [
        "op",
        "host",
        "day_index",
        "states",
        "start",
        "hours",
        "day_type",
        "init",
        "points",
        "ops",
        "days",
        "i",
        "s",
    ];

    /// The key's text.
    #[must_use]
    pub fn name(self) -> &'static str {
        Field::NAMES[self as usize]
    }

    /// The field a decoded key names, if any.
    fn of(key: &str) -> Option<Field> {
        let at = Field::NAMES.iter().position(|&name| name == key)?;
        Some(Field::ALL[at])
    }
}

/// A borrowed, zero-copy view over one JSON **object** in a `&str` line.
///
/// This is the serve request parser: where [`Json::parse`] builds a heap
/// tree (a `String` per key and string value, a `Vec` per container),
/// `JsonSlice::scan` runs the same descent in its validate mode, which
/// builds nothing, and captures the first value of each [`Field`] as it
/// walks: a number read by the number rule, a string or any other value
/// as its slice of the line. The typed getters read those captures with
/// the tree's own coercions, so they return what [`Json::get`] returns,
/// errors worded alike, and no getter walks the line again. An array
/// field's elements are captured in the walk that finds each one's end
/// ([`JsonSlice::array`]).
///
/// String getters return a [`Cow`] that stays borrowed (no allocation)
/// for escape-free text and is decoded by the string rule otherwise. Keys
/// are matched after decoding; with duplicate keys the first one wins, as
/// in [`Json::field`]. `scan` returns `None` exactly for the texts on
/// which [`Json::parse`] fails or yields something other than an object.
#[derive(Debug, Clone)]
pub struct JsonSlice<'a> {
    /// The first value under each [`Field`], by the field's index.
    fields: [Option<Capture<'a>>; Field::NAMES.len()],
}

/// A captured field's value, as the validating pass met it.
#[derive(Debug, Clone, Copy)]
enum Capture<'a> {
    /// A number, read by the number rule.
    Number(Number),
    /// A string's raw text, quotes included, and whether it holds a `\`
    /// escape (so escape-free text is never searched again).
    Str { raw: &'a str, escaped: bool },
    /// Any other value's raw text: `null`, a bool, an array or an object.
    Other(&'a str),
}

/// A field-access error from [`JsonSlice`], formatting its message
/// (identical to the [`Json::get`] text) on the error path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError {
    /// The field is absent: `missing field \`name\``.
    Missing {
        /// The field read.
        field: Field,
    },
    /// The field holds the wrong shape: `name: expected WANT, found KIND`.
    Type {
        /// The field read.
        field: Field,
        /// What the getter required (`"number"`, `"unsigned integer"`, …).
        want: &'static str,
        /// The [`Json::kind`] noun of what was found.
        found: &'static str,
    },
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `JsonError`'s Display (`json error: …`) over the same texts.
        match self {
            SliceError::Missing { field } => {
                write!(f, "json error: missing field `{}`", field.name())
            }
            SliceError::Type { field, want, found } => {
                write!(
                    f,
                    "json error: {}: expected {want}, found {found}",
                    field.name()
                )
            }
        }
    }
}

impl<'a> Capture<'a> {
    /// The [`Json::kind`] noun of the value.
    fn kind(self) -> &'static str {
        match self {
            Capture::Number(_) => "number",
            Capture::Str { .. } => "string",
            Capture::Other(raw) => match raw.as_bytes().first() {
                Some(b'{') => "object",
                Some(b'[') => "array",
                Some(b't' | b'f') => "bool",
                _ => "null",
            },
        }
    }

    fn type_error(self, field: Field, want: &'static str) -> SliceError {
        SliceError::Type {
            field,
            want,
            found: self.kind(),
        }
    }

    /// A string's text, decoded: [`Json::get::<String>`]'s value.
    fn text(self, field: Field) -> Result<Cow<'a, str>, SliceError> {
        match self {
            Capture::Str { raw, escaped } => Ok(decode(raw, escaped)),
            other => Err(other.type_error(field, "string")),
        }
    }

    /// A number converted by one of [`Json`]'s coercions, or the type
    /// error naming `want`.
    fn number<T>(
        self,
        field: Field,
        want: &'static str,
        coercion: impl FnOnce(&Json) -> Option<T>,
    ) -> Result<T, SliceError> {
        let value = match self {
            Capture::Number(n) => coercion(&n.into()),
            _ => None,
        };
        value.ok_or_else(|| self.type_error(field, want))
    }
}

impl<'a> JsonSlice<'a> {
    /// Validates `text` as a single JSON object, capturing its fields in
    /// the same pass, and returns the borrowed view, or `None` when it is
    /// malformed or not an object ([`Json::parse`] words the reason).
    // lint: no-alloc
    #[must_use]
    pub fn scan(text: &'a str) -> Option<JsonSlice<'a>> {
        let mut d = Descent::<Validate>::new(text, 0);
        let view = d.document(Descent::captured_object);
        walked(d.pos);
        view.ok()
    }

    fn capture(&self, field: Field) -> Result<Capture<'a>, SliceError> {
        self.fields[field as usize].ok_or(SliceError::Missing { field })
    }

    /// An optional field's capture: missing or `null` is `None`.
    fn present(&self, field: Field) -> Option<Capture<'a>> {
        self.fields[field as usize].filter(|v| !matches!(v, Capture::Other("null")))
    }

    /// String field with escapes decoded (exact [`Json::get::<String>`]
    /// semantics); borrowed unless the text holds an escape.
    pub fn str(&self, field: Field) -> Result<Cow<'a, str>, SliceError> {
        self.capture(field)?.text(field)
    }

    /// Optional string field: missing or `null` is `Ok(None)`.
    pub fn opt_str(&self, field: Field) -> Result<Option<Cow<'a, str>>, SliceError> {
        self.present(field).map(|v| v.text(field)).transpose()
    }

    /// Numeric field as `f64`: [`Json::get::<f64>`]'s value, bit for bit.
    pub fn f64(&self, field: Field) -> Result<f64, SliceError> {
        self.capture(field)?.number(field, "number", Json::as_f64)
    }

    /// Numeric field as `u64`: [`Json::get::<u64>`]'s value (exact
    /// non-negative integers only, floats accepted up to 2⁵³).
    pub fn u64(&self, field: Field) -> Result<u64, SliceError> {
        self.capture(field)?
            .number(field, "unsigned integer", Json::as_u64)
    }

    /// Optional `u64` field: missing or `null` is `Ok(None)`.
    pub fn opt_u64(&self, field: Field) -> Result<Option<u64>, SliceError> {
        self.present(field)
            .map(|v| v.number(field, "unsigned integer", Json::as_u64))
            .transpose()
    }

    /// Array field as an iterator over its elements.
    pub fn array(&self, field: Field) -> Result<JsonSliceArray<'a>, SliceError> {
        match self.capture(field)? {
            Capture::Other(raw) if raw.starts_with('[') => Ok(JsonSliceArray { src: raw, pos: 1 }),
            other => Err(other.type_error(field, "array")),
        }
    }
}

/// Iterator over the elements of a captured array. Each element is walked
/// once, by the step that finds its end, and comes out as its captured
/// view when it is an object (`Ok`) or as its raw text otherwise (`Err`).
#[derive(Debug, Clone)]
pub struct JsonSliceArray<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Iterator for JsonSliceArray<'a> {
    type Item = Result<JsonSlice<'a>, &'a str>;

    // lint: no-alloc
    fn next(&mut self) -> Option<Self::Item> {
        let mut d = Descent::<Validate>::new(self.src, self.pos);
        let element = match d.next_member(self.pos == 1, b']') {
            Ok(true) if d.peek() == Some(b'{') => d.captured_object().ok().map(Ok),
            Ok(true) => d.raw(Descent::value).ok().map(Err),
            _ => None,
        };
        walked(d.pos - self.pos);
        self.pos = d.pos;
        element
    }
}

/// The text of a validated raw string (quotes included): borrowed when
/// escape-free, else decoded by the string rule. `escaped` is the
/// validation's verdict on whether the text holds a `\`.
fn decode(raw: &str, escaped: bool) -> Cow<'_, str> {
    if !escaped {
        return Cow::Borrowed(&raw[1..raw.len() - 1]);
    }
    walked(raw.len());
    let text = Descent::<Build>::new(raw, 0).string();
    Cow::Owned(text.expect("JsonSlice::scan validated this string"))
}

/// A reusable append buffer that writes compact JSON byte-identically to
/// [`Json`]'s `Display` — the serve hot path's reply formatter.
///
/// One pooled `JsonWriter` per connection replaces the build-a-`Json`-then-
/// `to_string` reply path: [`clear`](JsonWriter::clear) between requests
/// keeps the grown capacity, so a warm reply costs zero heap allocations.
/// The primitive writers and [`json`](JsonWriter::json) go through the
/// same routines as `Json`'s `Display` (shortest round-trip floats, `null`
/// for non-finite, one escape table).
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    /// An empty writer; the first replies size it.
    #[must_use]
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The accumulated text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether anything has been written since the last clear.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current heap capacity (the pooled-buffer high-water mark).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Rolls the buffer back to a previously observed [`len`](JsonWriter::len),
    /// discarding everything written since — the containment primitive for
    /// callers that must replace a half-written reply (e.g. after catching
    /// a panic mid-request). No-op when `len` is not on a char boundary or
    /// exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        if len <= self.buf.len() && self.buf.is_char_boundary(len) {
            self.buf.truncate(len);
        }
    }

    /// Appends pre-serialized JSON text verbatim (the caller vouches for
    /// its validity — punctuation, keys, whole sub-documents).
    pub fn raw(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Appends one character verbatim.
    pub fn raw_char(&mut self, c: char) {
        self.buf.push(c);
    }

    /// Appends `s` as a quoted, escaped JSON string.
    pub fn string(&mut self, s: &str) {
        // Infallible: writing into a String cannot fail.
        let _ = write_string(&mut self.buf, s);
    }

    /// Appends a whole tree document, as its `Display` renders it.
    pub fn json(&mut self, value: &Json) {
        let _ = write_json(&mut self.buf, value);
    }

    /// Appends `v`'s `Display` text as a quoted, escaped JSON string
    /// without materializing it first. The text is written as is and then
    /// searched a block at a time; only a text holding a byte the escape
    /// table rewrites is written again, through the escaping sink.
    pub fn display_string(&mut self, v: &dyn fmt::Display) {
        use fmt::Write;
        self.buf.push('"');
        let start = self.buf.len();
        // Infallible: writing into a String cannot fail.
        let _ = write!(self.buf, "{v}");
        if block::position(&self.buf.as_bytes()[start..], escapes).is_some() {
            self.buf.truncate(start);
            let mut sink = EscapingSink { buf: &mut self.buf };
            let _ = write!(sink, "{v}");
        }
        self.buf.push('"');
    }

    /// Appends an unsigned integer (as `Json::U64` renders).
    pub fn u64(&mut self, v: u64) {
        use fmt::Write;
        let _ = write!(self.buf, "{v}");
    }

    /// Appends a float exactly as `Json::F64` renders: shortest round-trip
    /// `Display` when finite, `null` otherwise.
    pub fn f64(&mut self, v: f64) {
        let _ = write_f64(&mut self.buf, v);
    }

    /// Appends a bool (as `Json::Bool` renders).
    pub fn bool(&mut self, v: bool) {
        self.buf.push_str(if v { "true" } else { "false" });
    }
}

/// `fmt::Write` adapter that escapes into the underlying buffer with the
/// same table as [`Json`]'s string writer.
struct EscapingSink<'b> {
    buf: &'b mut String,
}

impl fmt::Write for EscapingSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.buf, s)
    }
}

/// Serializes a value to its compact JSON text.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string()
}

/// Parses JSON text and converts it into `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, ensure, CaseResult, Gen};

    #[test]
    fn get_opt_missing_null_present_malformed() {
        let v = Json::parse(r#"{"a":7,"b":null,"c":"x"}"#).unwrap();
        assert_eq!(v.get_opt::<u64>("a").unwrap(), Some(7));
        assert_eq!(v.get_opt::<u64>("b").unwrap(), None);
        assert_eq!(v.get_opt::<u64>("missing").unwrap(), None);
        assert!(v.get_opt::<u64>("c").is_err());
        assert!(Json::U64(1).get_opt::<u64>("a").is_err());
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::F64(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_nested() {
        let v = Json::parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get::<Vec<Json>>("a").unwrap().len(), 3);
        assert_eq!(v.field("b").unwrap().field("c").unwrap(), &Json::Null);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "1 2", "{\"a\" 1}", "\"\\q\"", "nan"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nwith \"quotes\", backslash \\ tab\t and ünïcode 🦀";
        let json = Json::Str(s.to_string()).to_string();
        assert_eq!(Json::parse(&json).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83e\udd80""#).unwrap(),
            Json::Str("Aé🦀".into())
        );
        assert!(Json::parse(r#""\ud83e""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn float_round_trip_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            std::f64::consts::PI,
            123_456_789.123_456_79,
        ] {
            let text = Json::F64(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = u64::MAX;
        let text = Json::U64(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big));
        let neg = i64::MIN;
        let text = Json::I64(neg).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::I64(neg));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::Obj(vec![("z".into(), Json::U64(1)), ("a".into(), Json::U64(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn serialization_is_deterministic() {
        let v = Json::parse(r#"{"a":[1,2,{"b":0.25}],"c":"x"}"#).unwrap();
        assert_eq!(v.to_string(), v.clone().to_string());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn primitive_conversions() {
        assert_eq!(u32::from_json(&Json::U64(7)).unwrap(), 7);
        assert!(u32::from_json(&Json::U64(u64::MAX)).is_err());
        assert!(u32::from_json(&Json::F64(1.5)).is_err());
        assert_eq!(f64::from_json(&Json::U64(7)).unwrap(), 7.0);
        assert_eq!(
            Vec::<f64>::from_json(&Json::parse("[1,2,3]").unwrap()).unwrap(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u64,
        ratio: f64,
        tags: Vec<String>,
    }
    impl_json_struct!(Demo { id, ratio, tags });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            id: 9,
            ratio: 0.125,
            tags: vec!["a".into(), "b".into()],
        };
        let text = to_string(&d);
        assert_eq!(text, r#"{"id":9,"ratio":0.125,"tags":["a","b"]}"#);
        assert_eq!(from_str::<Demo>(&text).unwrap(), d);
        let missing = r#"{"id":9,"ratio":0.125}"#;
        let err = from_str::<Demo>(missing).unwrap_err();
        assert!(err.0.contains("tags"), "{err}");
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut doc = String::new();
        for _ in 0..600 {
            doc.push('[');
        }
        assert!(Json::parse(&doc).is_err());
    }

    // ---- JsonSlice: the borrowed fast path must agree with the tree ----

    #[test]
    fn slice_accepts_plain_objects_and_borrows_fields() {
        let line = r#"{"op":"predict","host":42,"start":9.5,"init":"S1","day_type":null}"#;
        let s = JsonSlice::scan(line).expect("fast path");
        assert!(matches!(s.str(Field::Op), Ok(Cow::Borrowed("predict"))));
        assert_eq!(s.u64(Field::Host), Ok(42));
        assert_eq!(s.f64(Field::Start), Ok(9.5));
        assert!(matches!(
            s.opt_str(Field::Init),
            Ok(Some(Cow::Borrowed("S1")))
        ));
        assert_eq!(s.opt_str(Field::DayType), Ok(None));
        assert_eq!(s.opt_str(Field::States), Ok(None));
        assert_eq!(s.opt_u64(Field::Points), Ok(None));
    }

    #[test]
    fn slice_rejects_malformed_and_non_object_text() {
        // `scan` refuses exactly what the tree parser refuses, plus valid
        // documents that are not objects.
        for bad in [
            "[1,2]",               // non-object top level
            "42",                  // scalar top level
            r#"{"a":1"#,           // truncated
            r#"{"a":1} trailing"#, // trailing garbage
            r#"{"a":tru}"#,        // bad literal
            r#"{"a":1e}"#,         // unparseable number
            r#"{"a" 1}"#,          // missing colon
            r#"{"a":"\q"}"#,       // unknown escape
            r#"{"a":"\ud800"}"#,   // unpaired surrogate
            "{\"a\":\"\t\"}",      // raw control character
            r#"{"op":1e}"#,        // unparseable captured number
            r#"{"op":"\q"}"#,      // bad escape in a captured string
        ] {
            assert!(JsonSlice::scan(bad).is_none(), "accepted: {bad}");
            assert!(
                !matches!(Json::parse(bad), Ok(Json::Obj(_))),
                "tree parser takes {bad} as an object"
            );
        }
    }

    #[test]
    fn slice_decodes_escapes_like_the_tree_parser() {
        let line =
            "{\"o\\u0070\":\"p\\u0069ng\",\"s\":\"a\\\"b\\n\\u00e9\\ud83e\\udd80\",\"op\":\"x\"}";
        let s = JsonSlice::scan(line).expect("escapes are in scope");
        let tree = Json::parse(line).expect("tree");
        // An escaped key matches its decoded name; the first duplicate wins.
        let op = s.str(Field::Op).expect("op");
        assert!(matches!(op, Cow::Owned(_)));
        assert_eq!(op, tree.get::<String>("op").expect("tree op"));
        assert_eq!(op, "ping");
        let text = s.opt_str(Field::S).expect("s").expect("present");
        assert_eq!(text, tree.get::<String>("s").expect("tree s"));
        assert_eq!(text, "a\"b\n\u{e9}\u{1f980}");
        // Escapes inside nested values only need to validate.
        let nested = "{\"x\":[\"\\u0041\",{\"\\n\":1}],\"op\":\"ping\"}";
        let s = JsonSlice::scan(nested).expect("nested escapes are in scope");
        assert!(matches!(s.str(Field::Op), Ok(Cow::Borrowed("ping"))));
        // A captured key inside a nested object is not the outer field.
        let inner = r#"{"x":{"op":"stats"},"host":1}"#;
        let s = JsonSlice::scan(inner).expect("nested object");
        assert_eq!(
            s.str(Field::Op).unwrap_err().to_string(),
            "json error: missing field `op`"
        );
    }

    #[test]
    fn slice_string_skip_agrees_with_the_tree_parser_at_every_offset() {
        // One special piece of text — a bare quote, an escape (valid or
        // not), a control byte, a multibyte char, or nothing — at each
        // offset of a long key and of a long captured value, so it lands at
        // every position of a skipped block and in the tail after the last
        // one.
        let specials = [
            "", "\"", "\\", "\\\"", "\\\\", "\\n", "\\q", "\\u00e9", "\u{1}", "\t", "\u{1f}",
            "\u{7f}", "é", "😀",
        ];
        let tree_object = |line: &str| match Json::parse(line) {
            Ok(tree @ Json::Obj(_)) => Some(tree),
            _ => None,
        };
        for at in 0..=96 {
            for special in specials {
                let long = format!("{}{special}{}", "a".repeat(at), "b".repeat(97 - at));
                let key_line = format!("{{\"{long}\":\"v\",\"op\":\"w\"}}");
                let value_line = format!("{{\"z\":1,\"states\":\"{long}\"}}");
                for line in [&key_line, &value_line] {
                    let slice = JsonSlice::scan(line);
                    let tree = tree_object(line);
                    assert_eq!(
                        slice.is_some(),
                        tree.is_some(),
                        "scan and parse disagree on {special:?} at {at}: {line:?}"
                    );
                    let (Some(slice), Some(tree)) = (slice, tree) else {
                        continue;
                    };
                    for field in [Field::Op, Field::States] {
                        let got = slice.opt_str(field).map(|v| v.map(Cow::into_owned));
                        let want = tree.get_opt::<String>(field.name()).ok();
                        assert_eq!(got.ok(), want, "{special:?} at {at}: {line:?}");
                    }
                }
                // A line cut anywhere inside the long value is unterminated.
                for cut in (value_line.len() - long.len() - 2)..value_line.len() {
                    if let Some(head) = value_line.get(..cut) {
                        assert!(JsonSlice::scan(head).is_none(), "{head:?}");
                        assert!(tree_object(head).is_none(), "{head:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn slice_u64_coercions_match_tree_parser() {
        for (raw, want) in [
            ("7", Some(7u64)),
            ("7.0", Some(7)),
            ("9007199254740992", Some(1u64 << 53)),
            ("-1", None),
            ("1.5", None),
            ("1e3", Some(1000)),
        ] {
            let line = format!("{{\"host\":{raw}}}");
            let s = JsonSlice::scan(&line).expect("fast path");
            let tree = Json::parse(&line).expect("tree");
            let got = s.u64(Field::Host).ok();
            assert_eq!(got, want, "raw {raw}");
            assert_eq!(got, tree.get::<u64>("host").ok(), "tree agreement on {raw}");
        }
    }

    #[test]
    fn slice_errors_match_tree_error_text() {
        let line = r#"{"host":"nope","start":"x","day_type":7}"#;
        let s = JsonSlice::scan(line).expect("fast path");
        let tree = Json::parse(line).expect("tree");
        assert_eq!(
            s.u64(Field::Host).unwrap_err().to_string(),
            tree.get::<u64>("host").unwrap_err().to_string()
        );
        assert_eq!(
            s.f64(Field::Start).unwrap_err().to_string(),
            tree.get::<f64>("start").unwrap_err().to_string()
        );
        assert_eq!(
            s.str(Field::DayType).unwrap_err().to_string(),
            tree.get::<String>("day_type").unwrap_err().to_string()
        );
        assert_eq!(
            s.u64(Field::Points).unwrap_err().to_string(),
            tree.get::<u64>("points").unwrap_err().to_string()
        );
    }

    #[test]
    fn slice_array_captures_each_element_in_one_walk() {
        let line = r#"{"ops":[{"op":"ping"},{"op":"predict","host":3},7,[1,2],[]]}"#;
        let s = JsonSlice::scan(line).expect("fast path");
        let elems: Vec<Result<JsonSlice<'_>, &str>> = s.array(Field::Ops).expect("array").collect();
        assert_eq!(elems.len(), 5);
        let ops: Vec<Option<String>> = elems
            .iter()
            .filter_map(|e| e.as_ref().ok())
            .map(|el| el.str(Field::Op).ok().map(Cow::into_owned))
            .collect();
        assert_eq!(ops, [Some("ping".into()), Some("predict".into())]);
        let hosts: Vec<Option<u64>> = elems
            .iter()
            .filter_map(|e| e.as_ref().ok())
            .map(|el| el.u64(Field::Host).ok())
            .collect();
        assert_eq!(hosts, [None, Some(3)]);
        let others: Vec<&str> = elems
            .iter()
            .filter_map(|e| e.as_ref().err().copied())
            .collect();
        assert_eq!(others, ["7", "[1,2]", "[]"]);
        let empty = JsonSlice::scan(r#"{"ops":[]}"#).expect("fast path");
        assert_eq!(empty.array(Field::Ops).expect("array").count(), 0);
        let not_array = JsonSlice::scan(r#"{"ops":3}"#).expect("fast path");
        assert_eq!(
            not_array.array(Field::Ops).unwrap_err().to_string(),
            "json error: ops: expected array, found number"
        );
    }

    #[test]
    fn slice_reads_minus_zero_as_the_tree_does() {
        let line = r#"{"start":-0,"hours":-0.0,"points":-0e0}"#;
        let s = JsonSlice::scan(line).expect("object");
        let tree = Json::parse(line).expect("tree");
        assert_eq!(s.f64(Field::Start).map(f64::to_bits), Ok(0.0f64.to_bits()));
        for field in [Field::Start, Field::Hours, Field::Points] {
            let key = field.name();
            let want = tree.get::<f64>(key).expect("number").to_bits();
            assert_eq!(s.f64(field).map(f64::to_bits), Ok(want), "{key}");
            assert_eq!(s.u64(field).ok(), tree.get::<u64>(key).ok(), "{key}");
        }
    }

    /// The request lines of the serve crate's hostile-line table
    /// (`tests/serve.rs::hostile_lines_get_pinned_replies`), plus one valid
    /// ingest and one valid predict line.
    fn request_corpus() -> Vec<String> {
        let deep = format!("{}{}", "[".repeat(600), "]".repeat(600));
        let mut lines: Vec<String> = [
            "{\"op\":\"p\\u0069ng\"}",
            "{\"o\\u0070\":\"ping\"}",
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"\\u0053\\u0032\"}",
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"day_type\":\"week\\u0065nd\"}",
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"S\\u0033\"}",
            "{\"op\":\"n\\u00f6pe\\n\"}",
            "{\"op\":\"\\u0000\"}",
            "{\"op\":\"sweep\",\"host\":3,\"start\":9.0,\"hours\":1.0,\"points\":3,\"init\":\"\\/S2\"}",
            "{\"op\":\"sweep\",\"host\":3,\"start\":9.0,\"hours\":1.0,\"points\":3,\"init\":\"s\\u0032\"}",
            "{\"op\":\"ingest\",\"host\":4,\"day_index\":0,\"states\":\"1\\u00329\"}",
            "{\"op\":\"ingest\",\"host\":1,\"states\":\"1é\"}",
            "{\"op\":\"ingest\",\"host\":1,\"states\":\"12😀\"}",
            "[1,2]",
            "5",
            "\"ping\"",
            "null",
            "not json",
            "{\"op\":\"ping\"}x",
            "{\"op\":\"ping\",}",
            "{\"op\":\"\\ud800\"}",
            "{\"op\":\"\\q\"}",
            "{\"op\":\"pi\tng\"}",
            "{\"op\":\"ping\",\"op\":\"shutdown\"}",
            "{\"op\":\"host\",\"host\":3,\"host\":\"three\"}",
            "{\"op\":\"predict\",\"host\":3,\"start\":-0,\"hours\":2.0}",
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":1e309}",
            "{\"op\":\"host\",\"host\":18446744073709551616}",
            "{\"op\":\"host\",\"host\":-0}",
            "{\"op\":\"b\\u0061tch\",\"ops\":[]}",
            "{\"op\":\"batch\",\"ops\":\"\\u005b\\u005d\"}",
            "{\"op\":\"batch\",\"ops\":[{\"op\":\"p\\u0069ng\"},[1],5,\"x\",null,{\"op\":\"st\\u0061ts\"},{\"op\":\"shutdown\"},{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"\\u0053\\u0031\"},{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0},{}]}",
            "{\"o\\u0070\":\"batch\",\"ops\":[{\"op\":\"ping\"},{\"op\":\"ingest\",\"host\":4,\"states\":\"\\u0031\"},{\"\\u006fp\":\"predict\",\"h\\u006fst\":3,\"start\":9.5,\"hours\":1.0,\"init\":\"S2\"},{\"op\":\"batch\",\"ops\":[]}]}",
            "{\"op\":\"batch\",\"ops\":[{\"op\":\"ping\"},]}",
            "{\"op\":\"ingest\",\"host\":9,\"day_index\":18446744073709551615,\"states\":\"12\"}",
            "{\"op\":\"ingest\",\"host\":9,\"states\":\"12\"}",
            "{\"op\":\"sh\\u0075tdown\"}",
            "{\"op\":\"predict\",\"host\":7,\"start\":9.5,\"hours\":2.0,\"day_type\":\"weekday\",\"init\":\"S1\"}",
        ]
        .map(String::from)
        .to_vec();
        // 8-op batches: the `day_rollover` shape (four windows, S1 and S2
        // each), and one that mixes every op with field errors.
        let predicts: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    "{{\"op\":\"predict\",\"host\":{},\"start\":{}.0,\"hours\":2.0,\"init\":\"S{}\"}}",
                    40 + i,
                    6 + i / 2 * 3,
                    1 + i % 2
                )
            })
            .collect();
        lines.push(format!(
            "{{\"op\":\"batch\",\"ops\":[{}]}}",
            predicts.join(",")
        ));
        lines.push(
            "{\"op\":\"batch\",\"ops\":[{\"op\":\"ingest\",\"host\":4,\"day_index\":2,\"states\":\"1\\u00322\"},\
             {\"op\":\"sweep\",\"host\":3,\"start\":9.0,\"hours\":1.0,\"points\":null},\
             {\"h\\u006fst\":3,\"op\":\"predict\",\"hours\":2.0,\"start\":9.5,\"day_type\":\"weekend\"},\
             {\"op\":\"predict\",\"host\":\"3\",\"host\":3,\"start\":9.0},\
             {\"op\":\"host\",\"host\":1},[1,{\"op\":\"ping\"}],\"ping\",{\"op\":\"ping\",\"x\":{\"op\":1}}]}"
                .into(),
        );
        lines.push(format!("{{\"op\":\"ping\",\"x\":{deep}}}"));
        lines.push(deep);
        let digits: String = (0..600)
            .map(|i| char::from(b'1' + (i / 37 % 5) as u8))
            .collect();
        lines.push(format!(
            "{{\"op\":\"ingest\",\"host\":12,\"day_index\":3,\"states\":\"{digits}\"}}"
        ));
        lines
    }

    /// Number texts at the edges of the number rule and the coercions.
    const EDGE_NUMBERS: [&str; 16] = [
        "-0",
        "-0.0",
        "0",
        "1e309",
        "-1e309",
        "18446744073709551615",
        "18446744073709551616",
        "9223372036854775807",
        "-9223372036854775808",
        "-9223372036854775809",
        "9007199254740992",
        "9007199254740993",
        "1e3",
        "01",
        "1.",
        "2.5e-324",
    ];

    /// One random damage to a request line.
    fn mutate(g: &mut Gen, line: &str) -> String {
        let mut bytes = line.as_bytes().to_vec();
        let at = g.usize_in(0, bytes.len() + 1);
        match g.usize_in(0, 8) {
            0 if !bytes.is_empty() => {
                let i = g.usize_in(0, bytes.len());
                bytes[i] ^= 1 << g.u32_in(0, 8);
            }
            1 => bytes.truncate(at),
            2 => {
                let escape = *g.pick(&[
                    "\\n",
                    "\\\"",
                    "\\\\",
                    "\\/",
                    "\\u0041",
                    "\\ud83d\\ude00",
                    "\\ud800",
                    "\\udc00",
                    "\\q",
                    "\\u00",
                    "\\u+041",
                    "\\",
                ]);
                bytes.splice(at..at, escape.bytes());
            }
            3 => {
                // Swap one number for an edge number.
                let starts: Vec<usize> = (1..bytes.len())
                    .filter(|&i| bytes[i - 1] == b':' && matches!(bytes[i], b'-' | b'0'..=b'9'))
                    .collect();
                if !starts.is_empty() {
                    let start = *g.pick(&starts);
                    let len = bytes[start..]
                        .iter()
                        .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                        .unwrap_or(bytes.len() - start);
                    let edge = *g.pick(&EDGE_NUMBERS);
                    bytes.splice(start..start + len, edge.bytes());
                }
            }
            4 | 5 => {
                // A duplicate key in front: the first occurrence wins.
                let key = *g.pick(&["op", "host", "start", "hours", "states", "init", "ops"]);
                let value = match g.usize_in(0, 3) {
                    0 => (*g.pick(&EDGE_NUMBERS)).to_string(),
                    1 => "\"ping\"".to_string(),
                    _ => (*g.pick(&["null", "true", "[]", "{}", "[1,\"\\u0031\"]"])).to_string(),
                };
                if let Some(open) = bytes.iter().position(|&b| b == b'{') {
                    let member = format!("\"{key}\":{value},");
                    bytes.splice(open + 1..open + 1, member.bytes());
                }
            }
            _ => bytes.insert(at, b'\r'),
        }
        String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into())
    }

    /// The view's answer against the tree's: equal values (floats bit for
    /// bit) or equal error texts.
    fn agree<S: PartialEq<T> + fmt::Debug, T: fmt::Debug>(
        what: &str,
        slice: Result<S, SliceError>,
        tree: Result<T, JsonError>,
    ) -> CaseResult {
        let same = match (&slice, &tree) {
            (Ok(s), Ok(t)) => s == t,
            (Err(s), Err(t)) => s.to_string() == t.to_string(),
            _ => false,
        };
        ensure(same, format!("{what}: slice {slice:?} vs tree {tree:?}"))
    }

    /// Every getter of the view against `Json::get` for every captured
    /// field, present or not. An array's elements are compared one by
    /// one: an object element's captures the same way, any other element
    /// by its raw text.
    fn captures_agree(slice: &JsonSlice<'_>, tree: &Json) -> CaseResult {
        for (at, field) in Field::ALL.into_iter().enumerate() {
            let key = field.name();
            ensure(
                field as usize == at && Field::of(key) == Some(field),
                format!("{field:?} is not at {at} or not found by {key:?}"),
            )?;
            agree(
                &format!("str {key:?}"),
                slice.str(field),
                tree.get::<String>(key),
            )?;
            agree(
                &format!("opt_str {key:?}"),
                slice.opt_str(field).map(|v| v.map(Cow::into_owned)),
                tree.get_opt::<String>(key),
            )?;
            agree(
                &format!("f64 {key:?}"),
                slice.f64(field).map(f64::to_bits),
                tree.get::<f64>(key).map(f64::to_bits),
            )?;
            agree(
                &format!("u64 {key:?}"),
                slice.u64(field),
                tree.get::<u64>(key),
            )?;
            agree(
                &format!("opt_u64 {key:?}"),
                slice.opt_u64(field),
                tree.get_opt::<u64>(key),
            )?;
            let elements = slice.array(field).map(Iterator::count);
            let tree_elements = tree.get::<Vec<Json>>(key);
            agree(
                &format!("array {key:?}"),
                elements,
                tree_elements.as_ref().map(Vec::len).map_err(Clone::clone),
            )?;
            let (Ok(elements), Ok(tree_elements)) = (slice.array(field), tree_elements) else {
                continue;
            };
            for (element, tree_element) in elements.zip(&tree_elements) {
                match (element, tree_element) {
                    (Ok(view), Json::Obj(_)) => captures_agree(&view, tree_element)?,
                    (Err(raw), other) if !matches!(other, Json::Obj(_)) => ensure(
                        Json::parse(raw).as_ref() == Ok(other),
                        format!("{key:?} element {raw:?} vs tree {other:?}"),
                    )?,
                    (element, other) => {
                        return Err(format!("{key:?} element {element:?} vs tree {other:?}"))
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn slice_and_tree_agree_on_damaged_request_lines() {
        let corpus = request_corpus();
        let mut case = 0;
        check("slice_and_tree_agree_on_damaged_request_lines", 3000, |g| {
            // The corpus as it is first, then damaged copies.
            let mut line = corpus[case % corpus.len()].clone();
            if case >= corpus.len() {
                for _ in 0..g.usize_in(1, 4) {
                    line = mutate(g, &line);
                }
            }
            case += 1;
            let outcome = std::panic::catch_unwind(|| -> CaseResult {
                let slice = JsonSlice::scan(&line);
                let tree = Json::parse(&line);
                let is_object = matches!(tree, Ok(Json::Obj(_)));
                ensure(
                    slice.is_some() == is_object,
                    format!("scan {} but parse {tree:?}", slice.is_some()),
                )?;
                match (slice, &tree) {
                    (Some(slice), Ok(tree)) => captures_agree(&slice, tree),
                    _ => Ok(()),
                }
            });
            outcome
                .unwrap_or_else(|_| Err("panicked".into()))
                .map_err(|msg| format!("{msg}\nline: {line:?}"))
        });
    }

    // ---- JsonWriter: the tree writer's bytes ----

    #[test]
    fn writer_matches_tree_display_for_primitives() {
        for (v, text) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (0.25, "0.25"),
            (-3.5e-9, "-0.0000000035"),
            (1e21, "1000000000000000000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            let mut w = JsonWriter::new();
            w.f64(v);
            assert_eq!(w.as_str(), text, "f64 {v}");
            assert_eq!(Json::F64(v).to_string(), text, "f64 {v}");
        }
        let huge = format!("1{}", "0".repeat(300));
        let mut w = JsonWriter::new();
        w.f64(1e300);
        assert_eq!(w.as_str(), huge);
        assert_eq!(Json::F64(1e300).to_string(), huge);
        for (v, text) in [(0u64, "0"), (7, "7"), (u64::MAX, "18446744073709551615")] {
            let mut w = JsonWriter::new();
            w.u64(v);
            assert_eq!(w.as_str(), text, "u64 {v}");
            assert_eq!(Json::U64(v).to_string(), text, "u64 {v}");
        }
        for (s, text) in [
            ("plain", r#""plain""#),
            ("quo\"te", r#""quo\"te""#),
            ("back\\slash", r#""back\\slash""#),
            ("line\nfeed", r#""line\nfeed""#),
            ("tab\there", r#""tab\there""#),
            ("\u{1}\u{8}\u{c}", r#""\u0001\b\f""#),
        ] {
            let mut w = JsonWriter::new();
            w.string(s);
            assert_eq!(w.as_str(), text, "str {s:?}");
            assert_eq!(Json::Str(s.into()).to_string(), text, "str {s:?}");
        }
    }

    #[test]
    fn writer_builds_objects_identical_to_tree() {
        let text = r#"{"ok":true,"op":"predict","host":9,"tr":0.8125}"#;
        let tree = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::Str("predict".into())),
            ("host".into(), Json::U64(9)),
            ("tr".into(), Json::F64(0.8125)),
        ]);
        let mut w = JsonWriter::new();
        w.raw("{\"ok\":");
        w.bool(true);
        w.raw(",\"op\":");
        w.string("predict");
        w.raw(",\"host\":");
        w.u64(9);
        w.raw(",\"tr\":");
        w.f64(0.8125);
        w.raw_char('}');
        assert_eq!(w.as_str(), text);
        assert_eq!(tree.to_string(), text);
        w.clear();
        w.json(&tree);
        assert_eq!(w.as_str(), text);
    }

    #[test]
    fn writer_clear_keeps_capacity() {
        let mut w = JsonWriter::new();
        w.string("a fairly long string to size the buffer up front");
        let cap = w.capacity();
        assert!(cap > 0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.capacity(), cap);
    }

    #[test]
    fn writer_display_string_escapes_on_the_fly() {
        struct Tricky;
        impl fmt::Display for Tricky {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a\"b\\c\nd")
            }
        }
        let mut w = JsonWriter::new();
        w.display_string(&Tricky);
        assert_eq!(w.as_str(), Json::Str("a\"b\\c\nd".into()).to_string());

        // Plain texts, multi-byte ones and texts with one byte to escape
        // before, inside and after a whole search block.
        let long = "09:00+2.00h weekday S1 ".repeat(3);
        let mut texts = vec![
            String::new(),
            "09:00+2.00h".into(),
            "S1".into(),
            "héllo ✓ 𝄞".into(),
            long.clone(),
        ];
        for at in [0, 1, 31, 32, 33, long.len()] {
            for c in ['"', '\\', '\n', '\u{1}', '\u{1f}', '\u{7f}'] {
                let mut text = long.clone();
                text.insert(at, c);
                texts.push(text);
            }
        }
        for text in &texts {
            w.clear();
            w.display_string(&format_args!("{text}"));
            assert_eq!(w.as_str(), Json::Str(text.clone()).to_string(), "{text:?}");
        }
    }
}
