//! A minimal, dependency-free JSON reader/writer: the workspace's one
//! JSON codec.
//!
//! The workspace is hermetic (no external crates), so it hand-rolls the
//! small JSON subset its files need: objects, arrays, strings, numbers
//! and booleans. It lives in `simnet`, which depends on nothing, so every
//! crate above can read through it: `collectives` persists tuning tables
//! (and re-exports this module as `collectives::json`), `msim::mcheck`
//! reads and writes schedule certificates and violation descriptions,
//! and `bench` writes and checks its `BENCH_*.json` artifacts. Escapes
//! beyond `\" \\ \/ \n \r \t \u` are not produced and not accepted;
//! this is a data format for our own files, not a general-purpose
//! parser. The files are still outside input (certificates, tuning
//! tables, artifacts passed to `--verify`), so malformed text is an
//! `Err`, never a panic: the recursive-descent parser refuses nesting
//! beyond [`MAX_DEPTH`] instead of recursing until the stack overflows.
//!
//! Both serializers write the canonical form (object keys sorted, one
//! number and string encoding) through one writer: [`Json::pretty`]
//! indents, [`Json::compact`] writes no whitespace outside strings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Our own
/// files nest five or six levels; 128 leaves room and keeps the parser's
/// (and the serializer's and `Drop`'s) recursion a few kilobytes of stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`) so that
/// serialization is canonical: parse → write is byte-stable, which the
/// golden-file round-trip check in CI relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as usize, if this is a non-negative integer a
    /// usize can hold.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // `usize::MAX as f64` rounds up to 2^64, the first integer out of range.
            Json::Num(n) if (0.0..usize::MAX as f64).contains(n) && n.fract() == 0.0 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Parse a JSON document. Errors name the byte offset; a document
    /// nested deeper than [`MAX_DEPTH`] is an error like any other.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Serialize with 2-space indentation and a trailing newline
    /// (canonical form: object keys sorted, floats via `{}`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(0), &mut out);
        out.push('\n');
        out
    }

    /// Serialize on one line with no whitespace outside strings (the
    /// same canonical form as [`Json::pretty`], without the layout).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        write_value(self, None, &mut out);
        out
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut s = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(s),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
            _ => {
                // Re-decode multi-byte UTF-8 sequences from the raw bytes.
                let ch_start = *pos - 1;
                let width = utf8_width(c);
                let chunk = b
                    .get(ch_start..ch_start + width)
                    .ok_or("truncated UTF-8 sequence")?;
                let chunk = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                s.push_str(chunk);
                *pos = ch_start + width;
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // {
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// Write `v`, laid out at `indent` levels (`None`: compact, no layout).
fn write_value(v: &Json, indent: Option<usize>, out: &mut String) {
    let inner = indent.map(|d| d + 1);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(inner, out);
                write_value(item, inner, out);
            }
            newline(indent, out);
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(inner, out);
                write_str(k, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(val, inner, out);
            }
            newline(indent, out);
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Start a new line at `indent` levels; nothing in the compact form.
fn newline(indent: Option<usize>, out: &mut String) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nbreak \"quote\" \\ tab\t µ".into());
        let text = original.pretty();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn canonical_round_trip_is_byte_stable() {
        let text = r#"{"z": 1, "a": [true, null, 3.25], "m": {"k": "v"}}"#;
        let once = Json::parse(text).unwrap().pretty();
        let twice = Json::parse(&once).unwrap().pretty();
        assert_eq!(once, twice, "pretty form must be a fixed point");
    }

    #[test]
    fn compact_is_the_pretty_form_without_layout() {
        let text = r#"{"z": [1, "a b", {"k": []}], "a": {}, "m": -2.5}"#;
        let v = Json::parse(text).unwrap();
        let compact = v.compact();
        assert_eq!(compact, r#"{"a":{},"m":-2.5,"z":[1,"a b",{"k":[]}]}"#);
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&compact).unwrap().pretty(), v.pretty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
    }

    /// Nesting is capped, with a positioned error, instead of recursing
    /// until the stack overflows (which aborts the process).
    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        // Hostile: far past any stack, never closed.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        // Exactly at the cap parses (and serializes, and drops) ...
        let at_cap = Json::parse(&nested("[", "]", MAX_DEPTH)).unwrap();
        assert_eq!(Json::parse(&at_cap.pretty()).unwrap(), at_cap);
        // ... one level past it does not, arrays and objects alike.
        let err = Json::parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        let objects = r#"{"k":"#.repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than 128 levels at byte {}", 5 * MAX_DEPTH)
        );
        assert!(Json::parse(&objects[5..objects.len() - 1]).is_ok());
    }

    #[test]
    fn usize_accessor_guards_fractions() {
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Num(7.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }

    #[test]
    fn usize_accessor_refuses_what_a_usize_cannot_hold() {
        assert_eq!(Json::Num(1e20).as_usize(), None);
        assert_eq!(Json::Num(usize::MAX as f64).as_usize(), None);
        let half = usize::MAX / 2 + 1;
        assert_eq!(Json::Num(half as f64).as_usize(), Some(half));
        assert_eq!(Json::Num(f64::INFINITY).as_usize(), None);
    }
}
