//! A minimal JSON value model, parser and writer.
//!
//! Replaces `serde`/`serde_json` for the workspace's persistence needs
//! (traces, histories, simulation records). Design points:
//!
//! - Objects keep **insertion order** (`Vec<(String, Json)>`), so writing is
//!   deterministic: the same value always serializes to the same bytes.
//! - Numbers are kept as `i64`/`u64` when they are exact integers and `f64`
//!   otherwise. Floats are written with Rust's `Display`, which since 1.0
//!   produces the shortest representation that round-trips exactly.
//! - Serialization is via the [`ToJson`] / [`FromJson`] traits, implemented
//!   per type (see [`crate::impl_json_struct`] for the common struct case).

use std::borrow::Cow;
use std::fmt;

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

    /// Numeric coercion: exact signed integers only.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            Json::F64(v) if v.abs() <= 2f64.powi(53) && v.fract() == 0.0 => Some(v as i64),
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
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Compact serialization; deterministic for a given value.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::I64(v) => write!(f, "{v}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest round-trip repr; `1e300` style stays parseable.
                    write!(f, "{v}")
                } else {
                    // JSON has no NaN/Inf; mirror the lossy-but-valid choice
                    // of most writers.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
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

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: `bytes` is the byte view of the input `&str`,
                    // and `pos` only ever advances past ASCII bytes or whole
                    // scalars (`c.len_utf8()` below), so `rest` starts on a
                    // char boundary of valid UTF-8.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::new(format!("invalid number `{text}` at byte {start}")))
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

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::I64(i64::from(*self))
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v
                    .as_i64()
                    .ok_or_else(|| JsonError::new(format!(
                        "expected integer, found {}",
                        v.kind()
                    )))?;
                <$ty>::try_from(raw)
                    .map_err(|_| JsonError::new(format!("integer {raw} out of range")))
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
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

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + std::fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| JsonError::new(format!("expected array of length {N}, found {n}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => Ok((
                A::from_json(&items[0]).map_err(|e| e.in_field("[0]"))?,
                B::from_json(&items[1]).map_err(|e| e.in_field("[1]"))?,
            )),
            other => type_err("2-element array", other),
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

/// Implements [`ToJson`]/[`FromJson`] for a C-like enum as its variant name,
/// matching serde's unit-variant representation (`"S1"`, `"Weekday"`, …).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $( $ty::$variant => stringify!($variant), )+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $crate::json::Json::Str(s) => match s.as_str() {
                        $( stringify!($variant) => Ok($ty::$variant), )+
                        other => Err($crate::json::JsonError(format!(
                            "unknown {} variant `{other}`",
                            stringify!($ty)
                        ))),
                    },
                    other => Err($crate::json::JsonError(format!(
                        "expected string for {}, found {}",
                        stringify!($ty),
                        other.kind()
                    ))),
                }
            }
        }
    };
}

/// A borrowed, zero-copy view over one JSON **object** in a `&str` line.
///
/// This is the serve request parser: where [`Json::parse`] builds a heap
/// tree (a `String` per key and string value, a `Vec` per container),
/// `JsonSlice::scan` only *validates* the text and hands out slices of the
/// original line on demand. Field lookups rescan the object — requests are
/// a handful of fields, so the rescan is cheaper than materializing a map
/// — and typed getters reproduce the exact coercion rules (and error
/// texts) of [`Json::get`].
///
/// Strings may contain `\` escapes: the tree parser's own string rule
/// validates them during the scan and decodes them on access, so string
/// getters return a [`Cow`] that stays borrowed (no allocation) for
/// escape-free text. Keys are matched after decoding; with duplicate keys
/// the first one wins, as in [`Json::field`]. `scan` returns `None` for
/// malformed syntax and for a non-object top level — exactly the texts for
/// which [`Json::parse`] fails or yields something other than an object.
#[derive(Debug, Clone, Copy)]
pub struct JsonSlice<'a> {
    /// The full object text, trimmed: `src[0] == '{'`.
    src: &'a str,
}

/// A field-access error from [`JsonSlice`]: carries only borrowed names,
/// formatting the message (identical to the [`Json::get`] text) on the
/// error path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError<'a> {
    /// The field is absent: `missing field \`name\``.
    Missing {
        /// The field looked up.
        field: &'a str,
    },
    /// The field holds the wrong shape: `name: expected WANT, found KIND`.
    Type {
        /// The field looked up.
        field: &'a str,
        /// What the getter required (`"number"`, `"unsigned integer"`, …).
        want: &'static str,
        /// The [`Json::kind`] noun of what was found.
        found: &'static str,
    },
}

impl fmt::Display for SliceError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirrors `JsonError`'s Display (`json error: …`) so fast-path and
        // tree-path error replies are byte-identical.
        match self {
            SliceError::Missing { field } => write!(f, "json error: missing field `{field}`"),
            SliceError::Type { field, want, found } => {
                write!(f, "json error: {field}: expected {want}, found {found}")
            }
        }
    }
}

/// The kind noun for a raw value slice (first byte is decisive after
/// validation).
fn raw_kind(raw: &str) -> &'static str {
    match raw.as_bytes().first() {
        Some(b'"') => "string",
        Some(b'{') => "object",
        Some(b'[') => "array",
        Some(b't' | b'f') => "bool",
        Some(b'n') => "null",
        _ => "number",
    }
}

/// Bytes [`Scan`] tests per step while skipping plain string text.
const STRING_BLOCK: usize = 32;

/// Validating scanner over the raw bytes: checks JSON syntax without
/// building values, rejecting (`None`) what the tree parser rejects.
/// Mirrors `Parser`'s grammar, including its lax number scan backed by an
/// `f64` parse, and hands escaped strings to `Parser::string` itself.
struct Scan<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
    /// Set when a scanned string held an escape (never cleared here).
    escaped: bool,
}

impl<'a> Scan<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Validates one string and returns its raw slice, quotes included
    /// and escapes still encoded. The first `\` hands the whole string to
    /// the tree parser's string rule, so escapes are accepted exactly when
    /// [`Json::parse`] accepts them.
    fn string(&mut self) -> Option<&'a str> {
        if self.peek() != Some(b'"') {
            return None;
        }
        let open = self.i;
        self.i += 1;
        // Skip whole blocks of plain text (no `"`, `\` or control byte)
        // with a branch-free fold that LLVM vectorizes; the byte loop then
        // walks only the block holding the first such byte. Bytes >= 0x80
        // are plain: the input is a `&str`, so multibyte chars are valid.
        while let Some(block) = self.b.get(self.i..self.i + STRING_BLOCK) {
            let special = block.iter().fold(0u8, |hit, &c| {
                hit | u8::from(c == b'"') | u8::from(c == b'\\') | u8::from(c < 0x20)
            });
            if special != 0 {
                break;
            }
            self.i += STRING_BLOCK;
        }
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\\' => {
                    self.escaped = true;
                    let mut p = Parser {
                        bytes: self.b,
                        pos: open,
                        depth: 0,
                    };
                    p.string().ok()?;
                    self.i = p.pos;
                    break;
                }
                c if c < 0x20 => return None,
                _ => self.i += 1,
            }
        }
        // SAFETY: `b` is the byte view of the input `&str`, and the slice
        // runs from an ASCII `"` through the matching closing `"`, so it
        // spans whole scalars of already-valid UTF-8.
        Some(unsafe { std::str::from_utf8_unchecked(&self.b[open..self.i]) })
    }

    /// Validates one value and returns its raw trimmed slice.
    fn value(&mut self) -> Option<&'a str> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        let start = self.i;
        match self.peek()? {
            b'n' => self.literal(b"null")?,
            b't' => self.literal(b"true")?,
            b'f' => self.literal(b"false")?,
            b'"' => {
                self.string()?;
            }
            b'[' => {
                self.i += 1;
                self.depth += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                } else {
                    loop {
                        self.skip_ws();
                        self.value()?;
                        self.skip_ws();
                        match self.peek()? {
                            b',' => self.i += 1,
                            b']' => {
                                self.i += 1;
                                break;
                            }
                            _ => return None,
                        }
                    }
                }
                self.depth -= 1;
            }
            b'{' => {
                self.i += 1;
                self.depth += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                } else {
                    loop {
                        self.skip_ws();
                        self.string()?;
                        self.skip_ws();
                        if self.peek()? != b':' {
                            return None;
                        }
                        self.i += 1;
                        self.skip_ws();
                        self.value()?;
                        self.skip_ws();
                        match self.peek()? {
                            b',' => self.i += 1,
                            b'}' => {
                                self.i += 1;
                                break;
                            }
                            _ => return None,
                        }
                    }
                }
                self.depth -= 1;
            }
            c if c == b'-' || c.is_ascii_digit() => {
                // The tree parser's lax scan: consume number-ish bytes and
                // let the f64 parse arbitrate validity.
                self.i += 1;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.i += 1;
                }
                // SAFETY: every byte consumed since `start` matched the
                // ASCII number alphabet above, so the slice is all-ASCII
                // and trivially valid UTF-8 on char boundaries.
                let text = unsafe { std::str::from_utf8_unchecked(&self.b[start..self.i]) };
                text.parse::<f64>().ok()?;
            }
            _ => return None,
        }
        let raw = &self.b[start..self.i];
        // SAFETY: `b` is the byte view of the input `&str`; `start` and `i`
        // both sit at ASCII structural delimiters (or the ends of nested
        // values validated above), so the raw slice spans whole scalars of
        // already-valid UTF-8.
        Some(unsafe { std::str::from_utf8_unchecked(raw) })
    }

    fn literal(&mut self, word: &[u8]) -> Option<()> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Some(())
        } else {
            None
        }
    }
}

impl<'a> JsonSlice<'a> {
    /// Validates `text` as a single JSON object and returns the borrowed
    /// view, or `None` when it is malformed or not an object ([`Json::parse`]
    /// words the reason).
    #[must_use]
    pub fn scan(text: &'a str) -> Option<JsonSlice<'a>> {
        let mut s = Scan {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
            escaped: false,
        };
        s.skip_ws();
        if s.peek() != Some(b'{') {
            return None;
        }
        let raw = s.value()?;
        s.skip_ws();
        if s.i != s.b.len() {
            return None;
        }
        Some(JsonSlice { src: raw })
    }

    /// Wraps a raw object slice already validated by an enclosing
    /// [`scan`](JsonSlice::scan) (e.g. an element of [`array`]).
    ///
    /// [`array`]: JsonSlice::array
    fn from_validated(raw: &'a str) -> Option<JsonSlice<'a>> {
        raw.starts_with('{').then_some(JsonSlice { src: raw })
    }

    /// The first value stored under `name`, as its raw text slice.
    #[must_use]
    pub fn get_raw(&self, name: &str) -> Option<&'a str> {
        self.lookup(name).map(|(raw, _)| raw)
    }

    /// [`get_raw`](JsonSlice::get_raw), plus whether the value's text holds
    /// a `\` escape (so an escape-free string is never searched again).
    fn lookup(&self, name: &str) -> Option<(&'a str, bool)> {
        let mut s = Scan {
            b: self.src.as_bytes(),
            i: 1, // past '{'
            depth: 0,
            escaped: false,
        };
        s.skip_ws();
        if s.peek() == Some(b'}') {
            return None;
        }
        loop {
            s.skip_ws();
            s.escaped = false;
            let key = s.string()?;
            let hit = decode(key, s.escaped) == name;
            s.skip_ws();
            s.i += 1; // ':' (validated by scan)
            s.skip_ws();
            s.escaped = false;
            let value = s.value()?;
            if hit {
                return Some((value, s.escaped));
            }
            s.skip_ws();
            match s.peek()? {
                b',' => s.i += 1,
                _ => return None, // '}' — exhausted
            }
        }
    }

    /// String field with escapes decoded (exact [`Json::get::<String>`]
    /// semantics); borrowed unless the text holds an escape.
    pub fn get_str(&self, name: &'a str) -> Result<Cow<'a, str>, SliceError<'a>> {
        let (raw, escaped) = self
            .lookup(name)
            .ok_or(SliceError::Missing { field: name })?;
        if raw.starts_with('"') {
            Ok(decode(raw, escaped))
        } else {
            Err(SliceError::Type {
                field: name,
                want: "string",
                found: raw_kind(raw),
            })
        }
    }

    /// Optional string field: missing or `null` is `Ok(None)`.
    pub fn get_opt_str(&self, name: &'a str) -> Result<Option<Cow<'a, str>>, SliceError<'a>> {
        match self.lookup(name) {
            None | Some(("null", _)) => Ok(None),
            Some((raw, escaped)) if raw.starts_with('"') => Ok(Some(decode(raw, escaped))),
            Some((raw, _)) => Err(SliceError::Type {
                field: name,
                want: "string",
                found: raw_kind(raw),
            }),
        }
    }

    /// Numeric field as `f64` (exact [`Json::get::<f64>`] coercions).
    pub fn get_f64(&self, name: &'a str) -> Result<f64, SliceError<'a>> {
        let raw = self
            .get_raw(name)
            .ok_or(SliceError::Missing { field: name })?;
        parse_raw_f64(raw).ok_or(SliceError::Type {
            field: name,
            want: "number",
            found: raw_kind(raw),
        })
    }

    /// Numeric field as `u64` (exact [`Json::get::<u64>`] coercions: exact
    /// non-negative integers only, floats accepted up to 2⁵³).
    pub fn get_u64(&self, name: &'a str) -> Result<u64, SliceError<'a>> {
        let raw = self
            .get_raw(name)
            .ok_or(SliceError::Missing { field: name })?;
        parse_raw_u64(raw).ok_or(SliceError::Type {
            field: name,
            want: "unsigned integer",
            found: raw_kind(raw),
        })
    }

    /// Optional `u64` field: missing or `null` is `Ok(None)`.
    pub fn get_opt_u64(&self, name: &'a str) -> Result<Option<u64>, SliceError<'a>> {
        match self.get_raw(name) {
            None | Some("null") => Ok(None),
            Some(raw) => parse_raw_u64(raw).map(Some).ok_or(SliceError::Type {
                field: name,
                want: "unsigned integer",
                found: raw_kind(raw),
            }),
        }
    }

    /// Array field as an iterator of raw element slices.
    pub fn array(&self, name: &'a str) -> Result<JsonSliceArray<'a>, SliceError<'a>> {
        let raw = self
            .get_raw(name)
            .ok_or(SliceError::Missing { field: name })?;
        if raw.starts_with('[') {
            Ok(JsonSliceArray { src: raw, pos: 1 })
        } else {
            Err(SliceError::Type {
                field: name,
                want: "array",
                found: raw_kind(raw),
            })
        }
    }

    /// An element of [`array`](JsonSlice::array) as a nested object view,
    /// or `None` when the element is not an object.
    #[must_use]
    pub fn element_object(raw: &'a str) -> Option<JsonSlice<'a>> {
        JsonSlice::from_validated(raw)
    }
}

/// Iterator over the raw element slices of a validated JSON array.
#[derive(Debug, Clone)]
pub struct JsonSliceArray<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Iterator for JsonSliceArray<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let mut s = Scan {
            b: self.src.as_bytes(),
            i: self.pos,
            depth: 0,
            escaped: false,
        };
        s.skip_ws();
        match s.peek()? {
            b']' => return None,
            b',' => {
                s.i += 1;
                s.skip_ws();
            }
            _ => {}
        }
        let raw = s.value()?;
        self.pos = s.i;
        Some(raw)
    }
}

/// The text of a string slice validated by `Scan::string` (quotes
/// included): borrowed when escape-free, else decoded by the tree parser's
/// string rule. `escaped` is the scan's verdict on whether the text holds
/// a `\`.
fn decode(raw: &str, escaped: bool) -> Cow<'_, str> {
    if !escaped {
        return Cow::Borrowed(&raw[1..raw.len() - 1]);
    }
    let mut p = Parser {
        bytes: raw.as_bytes(),
        pos: 0,
        depth: 0,
    };
    Cow::Owned(p.string().expect("JsonSlice::scan validated this string"))
}

/// `f64` from a raw number slice, mirroring `as_f64` over parsed numbers.
fn parse_raw_f64(raw: &str) -> Option<f64> {
    let first = *raw.as_bytes().first()?;
    if first != b'-' && !first.is_ascii_digit() {
        return None;
    }
    raw.parse::<f64>().ok()
}

/// `u64` from a raw number slice, mirroring `as_u64` over parsed numbers:
/// plain integers parse exactly; float-looking text coerces only when
/// non-negative, integral and at most 2⁵³ (the tree parser's rule).
fn parse_raw_u64(raw: &str) -> Option<u64> {
    let first = *raw.as_bytes().first()?;
    if first != b'-' && !first.is_ascii_digit() {
        return None;
    }
    if let Ok(v) = raw.parse::<u64>() {
        return Some(v);
    }
    let v = raw.parse::<f64>().ok()?;
    (v >= 0.0 && v <= 2f64.powi(53) && v.fract() == 0.0).then_some(v as u64)
}

/// A reusable append buffer that writes compact JSON byte-identically to
/// [`Json`]'s `Display` — the serve hot path's reply formatter.
///
/// One pooled `JsonWriter` per connection replaces the build-a-`Json`-then-
/// `to_string` reply path: [`clear`](JsonWriter::clear) between requests
/// keeps the grown capacity, so a warm reply costs zero heap allocations.
/// The primitive writers reproduce `Json`'s exact byte choices (shortest
/// round-trip floats, `null` for non-finite, the same escape table), which
/// unit tests pin against the tree writer.
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
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
    }

    /// Appends `v`'s `Display` text as a quoted, escaped JSON string
    /// without materializing it first.
    pub fn display_string(&mut self, v: &dyn fmt::Display) {
        use fmt::Write;
        self.buf.push('"');
        let mut sink = EscapingSink { buf: &mut self.buf };
        // Infallible: writing into a String cannot fail.
        let _ = write!(sink, "{v}");
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
        use fmt::Write;
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
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
        escape_into(self.buf, s);
        Ok(())
    }
}

/// The escape table of `write_escaped`, appending into a `String`.
fn escape_into(buf: &mut String, s: &str) {
    use fmt::Write;
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            '\u{08}' => buf.push_str("\\b"),
            '\u{0C}' => buf.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// Serializes a value to its compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Parses JSON text and converts it into `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Json::parse(&text).unwrap().as_i64(), Some(neg));
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
        assert_eq!(
            <[f64; 2]>::from_json(&Json::parse("[1,2]").unwrap()).unwrap(),
            [1.0, 2.0]
        );
        assert!(<[f64; 2]>::from_json(&Json::parse("[1]").unwrap()).is_err());
        assert_eq!(
            <(u32, f64)>::from_json(&Json::parse("[3,0.5]").unwrap()).unwrap(),
            (3, 0.5)
        );
        assert_eq!(Option::<u32>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_json(&Json::U64(1)).unwrap(), Some(1));
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

    #[derive(Debug, PartialEq)]
    enum Colour {
        Red,
        Green,
    }
    impl_json_enum!(Colour { Red, Green });

    #[test]
    fn enum_macro_round_trips() {
        assert_eq!(to_string(&Colour::Red), r#""Red""#);
        assert_eq!(from_str::<Colour>(r#""Green""#).unwrap(), Colour::Green);
        assert!(from_str::<Colour>(r#""Blue""#).is_err());
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
        let line = r#"{"op":"predict","host":42,"start":9.5,"init":"S1","flag":null}"#;
        let s = JsonSlice::scan(line).expect("fast path");
        assert!(matches!(s.get_str("op"), Ok(Cow::Borrowed("predict"))));
        assert_eq!(s.get_u64("host"), Ok(42));
        assert_eq!(s.get_f64("start"), Ok(9.5));
        assert!(matches!(
            s.get_opt_str("init"),
            Ok(Some(Cow::Borrowed("S1")))
        ));
        assert_eq!(s.get_opt_str("flag"), Ok(None));
        assert_eq!(s.get_opt_str("absent"), Ok(None));
        assert_eq!(s.get_opt_u64("absent"), Ok(None));
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
        let op = s.get_str("op").expect("op");
        assert!(matches!(op, Cow::Owned(_)));
        assert_eq!(op, tree.get::<String>("op").expect("tree op"));
        assert_eq!(op, "ping");
        let text = s.get_opt_str("s").expect("s").expect("present");
        assert_eq!(text, tree.get::<String>("s").expect("tree s"));
        assert_eq!(text, "a\"b\n\u{e9}\u{1f980}");
        // Escapes inside nested values only need to validate.
        let nested = "{\"x\":[\"\\u0041\",{\"\\n\":1}],\"op\":\"ping\"}";
        let s = JsonSlice::scan(nested).expect("nested escapes are in scope");
        assert!(matches!(s.get_str("op"), Ok(Cow::Borrowed("ping"))));
    }

    #[test]
    fn slice_string_skip_agrees_with_the_tree_parser_at_every_offset() {
        // One special piece of text — a bare quote, an escape (valid or
        // not), a control byte, a multibyte char, or nothing — at each
        // offset of a long key and of a long value, so it lands at every
        // position of a skipped block and in the tail after the last one.
        let specials = [
            "", "\"", "\\", "\\\"", "\\\\", "\\n", "\\q", "\\u00e9", "\u{1}", "\t", "\u{1f}",
            "\u{7f}", "é", "😀",
        ];
        let tree_object = |line: &str| match Json::parse(line) {
            Ok(Json::Obj(pairs)) => Some(pairs),
            _ => None,
        };
        for at in 0..=96 {
            for special in specials {
                let long = format!("{}{special}{}", "a".repeat(at), "b".repeat(97 - at));
                let key_line = format!("{{\"{long}\":\"v\",\"k\":\"w\"}}");
                let value_line = format!("{{\"z\":1,\"k\":\"{long}\"}}");
                for line in [&key_line, &value_line] {
                    let slice = JsonSlice::scan(line);
                    let tree = tree_object(line);
                    assert_eq!(
                        slice.is_some(),
                        tree.is_some(),
                        "scan and parse disagree on {special:?} at {at}: {line:?}"
                    );
                    let (Some(slice), Some(pairs)) = (slice, tree) else {
                        continue;
                    };
                    for (key, value) in &pairs {
                        if let Json::Str(text) = value {
                            let got = slice.get_str(key).expect("string field");
                            assert_eq!(got, text.as_str(), "{special:?} at {at}: {line:?}");
                        }
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
            let line = format!("{{\"v\":{raw}}}");
            let s = JsonSlice::scan(&line).expect("fast path");
            let tree = Json::parse(&line).expect("tree");
            let got = s.get_u64("v").ok();
            assert_eq!(got, want, "raw {raw}");
            assert_eq!(got, tree.get::<u64>("v").ok(), "tree agreement on {raw}");
        }
    }

    #[test]
    fn slice_errors_match_tree_error_text() {
        let line = r#"{"host":"nope","start":"x","day_type":7}"#;
        let s = JsonSlice::scan(line).expect("fast path");
        let tree = Json::parse(line).expect("tree");
        assert_eq!(
            s.get_u64("host").unwrap_err().to_string(),
            tree.get::<u64>("host").unwrap_err().to_string()
        );
        assert_eq!(
            s.get_f64("start").unwrap_err().to_string(),
            tree.get::<f64>("start").unwrap_err().to_string()
        );
        assert_eq!(
            s.get_str("day_type").unwrap_err().to_string(),
            tree.get::<String>("day_type").unwrap_err().to_string()
        );
        assert_eq!(
            s.get_u64("gone").unwrap_err().to_string(),
            tree.get::<u64>("gone").unwrap_err().to_string()
        );
    }

    #[test]
    fn slice_array_iterates_raw_elements() {
        let line = r#"{"ops":[{"op":"ping"},{"op":"predict","host":3},7,[1,2],[]]}"#;
        let s = JsonSlice::scan(line).expect("fast path");
        let elems: Vec<&str> = s.array("ops").expect("array").collect();
        assert_eq!(
            elems,
            [
                r#"{"op":"ping"}"#,
                r#"{"op":"predict","host":3}"#,
                "7",
                "[1,2]",
                "[]"
            ]
        );
        let nested = JsonSlice::element_object(elems[1]).expect("object elem");
        assert_eq!(nested.get_u64("host"), Ok(3));
        assert!(JsonSlice::element_object(elems[2]).is_none());
        let empty = JsonSlice::scan(r#"{"ops":[]}"#).expect("fast path");
        assert_eq!(empty.array("ops").expect("array").count(), 0);
        let not_array = JsonSlice::scan(r#"{"ops":3}"#).expect("fast path");
        assert_eq!(
            not_array.array("ops").unwrap_err().to_string(),
            "json error: ops: expected array, found number"
        );
    }

    // ---- JsonWriter: byte-identical to the tree writer ----

    #[test]
    fn writer_matches_tree_display_for_primitives() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.25,
            -3.5e-9,
            1e300,
            f64::NAN,
            f64::INFINITY,
        ] {
            let mut w = JsonWriter::new();
            w.f64(v);
            assert_eq!(w.as_str(), Json::F64(v).to_string(), "f64 {v}");
        }
        for v in [0u64, 7, u64::MAX] {
            let mut w = JsonWriter::new();
            w.u64(v);
            assert_eq!(w.as_str(), Json::U64(v).to_string(), "u64 {v}");
        }
        for s in [
            "plain",
            "quo\"te",
            "back\\slash",
            "line\nfeed",
            "tab\there",
            "\u{1}\u{8}\u{c}",
        ] {
            let mut w = JsonWriter::new();
            w.string(s);
            assert_eq!(w.as_str(), Json::Str(s.into()).to_string(), "str {s:?}");
        }
    }

    #[test]
    fn writer_builds_objects_identical_to_tree() {
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
        assert_eq!(w.as_str(), tree.to_string());
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
    }
}
