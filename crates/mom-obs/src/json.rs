//! The workspace's one JSON module: the [`Json`] value, its typed
//! accessors, the pretty emitter, the strict parser and the string
//! escaper.
//!
//! The build environment has no network access for a serialisation crate,
//! and the documents are small, so this hand-rolled value tree is all that
//! is needed.  Every JSON byte the workspace writes goes through
//! [`write_string`] and [`Json::pretty`] — the `BENCH_*.json` reports, the
//! daemon's wire documents, the Chrome trace export — and every byte it
//! reads goes through [`parse`]: submissions, job documents on the client
//! side, the committed `BENCH_perf.json` that `momsim bench --check`
//! compares against.
//!
//! The parser favours clear, positioned errors over leniency: duplicate
//! object keys, trailing content, bad escapes, lone surrogates, leading
//! zeros and non-finite numbers are all rejected with the line and column
//! of the offence.  Everything the emitter produces parses back to an
//! equal tree and re-emits byte-identically (pinned by
//! `tests/json_roundtrip.rs` over the committed `BENCH_*.json` documents).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// 2^53: the first integer a JSON number (an IEEE double) cannot hold
/// exactly next to its neighbour, so [`Json::as_u64`] stops below it.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer value.
    pub fn int<N: Into<i64>>(n: N) -> Json {
        Json::Num(n.into() as f64)
    }

    /// Looks a key up in an object (first match; emitted and parsed
    /// documents both have unique keys).  `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when the value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer, when the value
    /// is a number holding one below 2^53.  Larger numbers are `None`: the
    /// double they parsed to may already be a neighbour of the integer the
    /// document spelled, so such values travel as decimal strings.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n == n.trunc() && *n < EXACT_INTEGER_LIMIT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, when the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when the value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when the value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    // JSON has no NaN/Infinity.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0);
        f.write_str(&s)
    }
}

/// Nesting limit: deeper documents are rejected instead of overflowing the
/// parser's stack.  The deepest emitted document is 4 levels.
const MAX_DEPTH: usize = 128;

/// A positioned parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offence in the input.
    pub offset: usize,
    /// 1-based line of the offence.
    pub line: usize,
    /// 1-based column (in bytes) of the offence.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing content after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        let offset = self.pos.min(self.bytes.len());
        let line = 1 + self.bytes[..offset].iter().filter(|&&b| b == b'\n').count();
        let column = 1 + offset
            - self.bytes[..offset]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |nl| nl + 1);
        ParseError {
            offset,
            line,
            column,
            message: message.into(),
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
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("document deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!(
                "unexpected byte 0x{other:02x} where a value was expected"
            ))),
            None => Err(self.error("unexpected end of input where a value was expected")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                self.pos = key_pos;
                return Err(self.error(format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error(format!("unescaped control byte 0x{b:02x} in string")));
                }
                Some(_) => {
                    // Consume one complete UTF-8 scalar (the input is &str,
                    // so the boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("valid input"));
                    self.pos += len;
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let escape_pos = self.pos - 1;
        let code = match self.peek() {
            None => return Err(self.error("unterminated escape")),
            Some(b) => b,
        };
        self.pos += 1;
        match code {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&unit) {
                    // A high surrogate must be followed by \uDC00-\uDFFF.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            self.pos = escape_pos;
                            return Err(self.error("unpaired high surrogate in \\u escape"));
                        }
                        let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(scalar).expect("valid surrogate pair")
                    } else {
                        self.pos = escape_pos;
                        return Err(self.error("lone high surrogate in \\u escape"));
                    }
                } else if (0xDC00..0xE000).contains(&unit) {
                    self.pos = escape_pos;
                    return Err(self.error("lone low surrogate in \\u escape"));
                } else {
                    char::from_u32(unit).expect("non-surrogate BMP scalar")
                };
                out.push(c);
            }
            other => {
                self.pos = escape_pos;
                return Err(self.error(format!("bad escape '\\{}'", other as char)));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.error("\\u needs four hex digits")),
            };
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit run (no leading zeros).
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos = start;
                    return Err(self.error("number has a leading zero"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let n: f64 = text.parse().map_err(|e| {
            self.pos = start;
            self.error(format!("bad number '{text}': {e}"))
        })?;
        if !n.is_finite() {
            self.pos = start;
            return Err(self.error(format!("number '{text}' overflows an f64")));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_formats() {
        let doc = Json::obj([
            ("name", Json::str("line\nbreak \"quoted\"")),
            ("count", Json::int(42)),
            ("ratio", Json::Num(2.5)),
            ("bad", Json::Num(f64::NAN)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\\n"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"count\": 42"));
        assert!(text.contains("\"ratio\": 2.5"));
        assert!(text.contains("\"bad\": null"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn integers_do_not_grow_decimal_points() {
        assert_eq!(Json::Num(1234.0).to_string(), "1234");
        assert_eq!(Json::Num(0.125).to_string(), "0.125");
    }

    #[test]
    fn accessors_walk_a_tree() {
        let doc = Json::obj([
            ("name", Json::str("idct")),
            ("count", Json::int(42)),
            ("ratio", Json::Num(2.5)),
            ("ok", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::Null])),
        ]);
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("idct"));
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("ratio").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("ratio").and_then(Json::as_u64), None);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("name"), None);
        assert_eq!(doc.as_obj().map(<[(String, Json)]>::len), Some(5));
    }

    #[test]
    fn as_u64_stops_below_two_to_the_53() {
        let exact = parse("9007199254740991").unwrap();
        assert_eq!(exact.as_u64(), Some(9_007_199_254_740_991));
        // Both spellings parse to the same double; neither is exact.
        for text in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Obj(vec![]).to_string(), "{}");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(
            parse("{\"k\": [1, {\"n\": null}]}").unwrap(),
            Json::obj([(
                "k",
                Json::Arr(vec![Json::Num(1.0), Json::obj([("n", Json::Null)])])
            )])
        );
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\ude00\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\ud83d\\u0041\"").is_err(), "unpaired high");
    }

    #[test]
    fn rejections_carry_positions() {
        let err = parse("{\"a\": 1,\n \"a\": 2}").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        assert_eq!((err.line, err.column), (2, 2), "{err}");

        let err = parse("01").unwrap_err();
        assert!(err.message.contains("leading zero"), "{err}");

        let err = parse("[1] trailing").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");

        let err = parse("\"\\q\"").unwrap_err();
        assert!(err.message.contains("bad escape"), "{err}");

        let mut deep = String::new();
        for _ in 0..200 {
            deep.push('[');
        }
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deeper"), "{err}");
    }
}
