//! The minimal JSON dialect the server speaks.
//!
//! A strict recursive-descent parser for request bodies plus the one
//! escaping routine responses need. Hand-rolled for the same reason as
//! `mphpc-telemetry`'s JSONL writer: the subset is tiny and the crate
//! must stay dependency-free. Numbers parse as `f64` (the only numeric
//! type `/predict` traffics in), and objects keep insertion order so
//! rendering is stable.

use mphpc_errors::MphpcError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<JsonValue, MphpcError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Nesting depth bound: `/predict` bodies are depth 2, model uploads
/// depth ~6; 64 rejects pathological inputs without recursing the stack
/// away.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> MphpcError {
        MphpcError::Serde(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), MphpcError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), MphpcError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, MphpcError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_literal("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null").map(|_| JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, MphpcError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, MphpcError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, MphpcError> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves pos past the digits; undo the
                            // generic advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; copy the whole sequence).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, MphpcError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, MphpcError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Fast zero-allocation scanner for the canonical one-row `/predict`
/// body `{"model": "...", "features": [n, n, ...]}` (either key order,
/// JSON whitespace anywhere, `model` optional).
///
/// On success returns `Some(model)` — `None` inside meaning no `model`
/// key — with the numbers appended to `features` (cleared first). The
/// number token grammar and `str::parse::<f64>` conversion are exactly
/// the recursive-descent parser's, so the fast path computes the same
/// values [`JsonValue::parse`] would.
///
/// Returns `None` for *anything* else — the multi-row form
/// ([`scan_predict_rows`] takes that one), escapes in the model string,
/// extra keys, nested values, trailing garbage, malformed numbers — and
/// the caller falls back to [`JsonValue::parse`], which either accepts
/// the body (allocating, cold path) or produces the canonical error
/// message. The fast path therefore never changes observable behaviour,
/// only allocation counts.
pub fn scan_predict_body<'a>(text: &'a str, features: &mut Vec<f64>) -> Option<Option<&'a str>> {
    features.clear();
    let b = text.as_bytes();
    scan_predict_object(text, "features", |i| {
        scan_array(b, i, |i| scan_number(text, i, features)).map(|_| ())
    })
}

/// [`scan_predict_body`] for the multi-row form
/// `{"model": "...", "rows": [[n, ...], [n, ...], ...]}`: the numbers of
/// every row land in `rows` (cleared first), row-major, and the result
/// is `(model, n_rows)` with `n_rows >= 1`, each row
/// `rows.len() / n_rows` numbers wide.
///
/// Ragged rows and an empty `rows` array are `None` like everything
/// else the scanner does not take: the slow path words the 400.
pub fn scan_predict_rows<'a>(
    text: &'a str,
    rows: &mut Vec<f64>,
) -> Option<(Option<&'a str>, usize)> {
    rows.clear();
    let b = text.as_bytes();
    let mut n_rows = 0;
    let mut width = None;
    let model = scan_predict_object(text, "rows", |i| {
        n_rows = scan_array(b, i, |i| {
            let n = scan_array(b, i, |i| scan_number(text, i, rows))?;
            (*width.get_or_insert(n) == n).then_some(())
        })?;
        (n_rows > 0).then_some(())
    })?;
    Some((model, n_rows))
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while matches!(b.get(*i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *i += 1;
    }
}

/// A plain (escape-free) string starting at `b[*i]`; leaves `i` past
/// the closing quote. `'"'` is ASCII, so slicing the `&str` at these
/// byte offsets stays on char boundaries.
fn scan_plain_str<'a>(text: &'a str, i: &mut usize) -> Option<&'a str> {
    let b = text.as_bytes();
    if b.get(*i) != Some(&b'"') {
        return None;
    }
    let start = *i + 1;
    let mut j = start;
    while matches!(b.get(j), Some(c) if *c != b'"' && *c != b'\\') {
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    *i = j + 1;
    Some(&text[start..j])
}

/// The array loop both scanners share: `[e, e, ...]` starting at
/// `b[*i]`, each element read by `element` with the cursor on its first
/// byte; returns the element count.
fn scan_array(
    b: &[u8],
    i: &mut usize,
    mut element: impl FnMut(&mut usize) -> Option<()>,
) -> Option<usize> {
    if b.get(*i) != Some(&b'[') {
        return None;
    }
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Some(0);
    }
    let mut n = 0usize;
    loop {
        skip_ws(b, i);
        element(i)?;
        n += 1;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Some(n);
            }
            _ => return None,
        }
    }
}

/// One number starting at `b[*i]`, appended to `out`. Same first-byte
/// dispatch and token charset as `Parser::number`.
fn scan_number(text: &str, i: &mut usize, out: &mut Vec<f64>) -> Option<()> {
    let b = text.as_bytes();
    if !matches!(b.get(*i), Some(c) if *c == b'-' || c.is_ascii_digit()) {
        return None;
    }
    let tok_start = *i;
    if b[*i] == b'-' {
        *i += 1;
    }
    while matches!(
        b.get(*i),
        Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *i += 1;
    }
    out.push(text[tok_start..*i].parse::<f64>().ok()?);
    Some(())
}

/// The object both `/predict` forms share: an optional `"model"` string
/// and exactly one `array_key` member, whose value `scan_array` reads
/// with the cursor on its first byte. Any other or repeated key, and
/// anything after the closing brace, is `None`.
fn scan_predict_object<'a>(
    text: &'a str,
    array_key: &str,
    mut scan_array: impl FnMut(&mut usize) -> Option<()>,
) -> Option<Option<&'a str>> {
    let b = text.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;

    let mut model: Option<&str> = None;
    let mut saw_array = false;
    loop {
        skip_ws(b, &mut i);
        let key = scan_plain_str(text, &mut i)?;
        skip_ws(b, &mut i);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(b, &mut i);

        if key == "model" && model.is_none() {
            model = Some(scan_plain_str(text, &mut i)?);
        } else if key == array_key && !saw_array {
            saw_array = true;
            scan_array(&mut i)?;
        } else {
            return None; // unknown or duplicate key → slow path
        }

        skip_ws(b, &mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return None,
        }
    }
    skip_ws(b, &mut i);
    if i != b.len() || !saw_array {
        return None;
    }
    Some(model)
}

/// The `/predict` 200 body, appended to `out` without allocating:
/// `{"model":"name@vN","batch_rows":N,"outputs":[...]}`. A `features`
/// request (`rows: None`) gets its outputs as one flat array; a `rows`
/// request of `n` rows (`Some(n)`, also for one row) gets one array per
/// row.
pub fn write_predict_reply(
    out: &mut Vec<u8>,
    model_tag: &str,
    batch_rows: usize,
    outputs: &[f64],
    rows: Option<usize>,
) {
    use std::io::Write as _;
    out.extend_from_slice(b"{\"model\":");
    write_json_str(out, model_tag);
    let _ = write!(out, ",\"batch_rows\":{batch_rows},\"outputs\":");
    let write_row = |out: &mut Vec<u8>, row: &[f64]| {
        out.push(b'[');
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_json_num(out, *v);
        }
        out.push(b']');
    };
    match rows {
        None => write_row(out, outputs),
        Some(n) => {
            let width = outputs.len() / n.max(1);
            out.push(b'[');
            for r in 0..n {
                if r > 0 {
                    out.push(b',');
                }
                write_row(out, &outputs[r * width..(r + 1) * width]);
            }
            out.push(b']');
        }
    }
    out.push(b'}');
}

/// Streaming [`json_str`]: escape `s` into `out` without an
/// intermediate `String`. Byte-identical output (unit-tested).
pub fn write_json_str(out: &mut Vec<u8>, s: &str) {
    use std::io::Write as _;
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    out.push(b'"');
}

/// Streaming [`json_num`]: render `v` into `out` without an
/// intermediate `String` (std's `f64` Display formats on the stack).
pub fn write_json_num(out: &mut Vec<u8>, v: f64) {
    use std::io::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Escape a string per RFC 8259 and wrap it in quotes.
pub fn json_str(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render a number, emitting `null` for non-finite values (which JSON
/// cannot represent), matching the telemetry JSONL convention.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_predict_body() {
        let v = JsonValue::parse(r#"{"model":"default","features":[1, -2.5, 3e2]}"#).unwrap();
        assert_eq!(v.get("model").and_then(JsonValue::as_str), Some("default"));
        let feats: Vec<f64> = v
            .get("features")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(feats, vec![1.0, -2.5, 300.0]);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("[[],[[1]]]").unwrap(),
            JsonValue::Array(vec![
                JsonValue::Array(vec![]),
                JsonValue::Array(vec![JsonValue::Array(vec![JsonValue::Num(1.0)])]),
            ])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = JsonValue::parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair for U+1F600.
        let v = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Escaping is the inverse on the control/quote set.
        assert_eq!(json_str("a\"b\\\n\t\u{1}"), r#""a\"b\\\n\t\u0001""#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\x\"",
            "\"",
            "nul",
            "[1]]",
            "{\"a\":1,}",
        ] {
            assert!(
                JsonValue::parse(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn streaming_writers_match_allocating_ones() {
        for s in ["plain", "with \"quotes\" and \\", "tabs\tnl\n\u{1}", "名前"] {
            let mut out = Vec::new();
            write_json_str(&mut out, s);
            assert_eq!(out, json_str(s).as_bytes(), "for {s:?}");
        }
        for v in [
            0.0,
            -0.0,
            1.5,
            -2.75e300,
            1.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut out = Vec::new();
            write_json_num(&mut out, v);
            assert_eq!(out, json_num(v).as_bytes(), "for {v:?}");
        }
    }

    #[test]
    fn fast_scan_accepts_canonical_bodies_and_matches_slow_parse() {
        let mut feats = Vec::new();
        for body in [
            r#"{"model":"default","features":[1, -2.5, 3e2]}"#,
            r#"{"features":[0.125]}"#,
            r#" { "features" : [ 1 , 2 ] , "model" : "m-1" } "#,
            r#"{"model":"x","features":[]}"#,
            r#"{"features":[1e999]}"#, // overflows to inf, like the slow path
        ] {
            let fast = scan_predict_body(body, &mut feats)
                .unwrap_or_else(|| panic!("fast path rejected {body:?}"));
            let slow = JsonValue::parse(body).unwrap();
            assert_eq!(fast, slow.get("model").and_then(JsonValue::as_str));
            let slow_feats: Vec<f64> = slow
                .get("features")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            assert_eq!(feats.len(), slow_feats.len());
            for (a, b) in feats.iter().zip(&slow_feats) {
                assert_eq!(a.to_bits(), b.to_bits(), "value mismatch in {body:?}");
            }
        }
    }

    #[test]
    fn fast_scan_defers_everything_else_to_the_slow_path() {
        let mut feats = Vec::new();
        for body in [
            "not json",
            "{}",                                 // missing features
            r#"{"model":"a\"b","features":[1]}"#, // escaped string
            r#"{"features":[1,"x"]}"#,            // non-number element
            r#"{"features":[1],"extra":2}"#,      // unknown key
            r#"{"features":[1]} trailing"#,       // trailing garbage
            r#"{"features":[1],"features":[2]}"#, // duplicate key
            r#"{"features":[--1]}"#,              // malformed number
            r#"{"features":{"a":1}}"#,            // wrong type
            r#"{"model":null,"features":[1]}"#,   // non-string model
            r#"{"model":"m","rows":[[1,2]]}"#,    // the multi-row form
        ] {
            assert!(
                scan_predict_body(body, &mut feats).is_none(),
                "fast path must defer {body:?}"
            );
        }
    }

    #[test]
    fn rows_scan_reads_row_major_values_and_defers_the_rest() {
        let mut rows = Vec::new();
        for (body, model, n_rows, want) in [
            (
                r#"{"model":"m","rows":[[1,-2.5],[3e2,0.125]]}"#,
                Some("m"),
                2,
                vec![1.0, -2.5, 300.0, 0.125],
            ),
            (r#" { "rows" : [ [ 7 ] ] } "#, None, 1, vec![7.0]),
            (
                r#"{"rows":[[1e999,1]],"model":"x"}"#,
                Some("x"),
                1,
                vec![f64::INFINITY, 1.0],
            ),
            (r#"{"rows":[[],[]]}"#, None, 2, vec![]),
        ] {
            let got = scan_predict_rows(body, &mut rows)
                .unwrap_or_else(|| panic!("rows scan rejected {body:?}"));
            assert_eq!(got, (model, n_rows), "{body:?}");
            assert_eq!(rows, want, "{body:?}");
        }
        for body in [
            r#"{"rows":[]}"#,                    // no rows
            r#"{"rows":[[1,2],[3]]}"#,           // ragged
            r#"{"rows":[1,2]}"#,                 // rows of numbers, not of rows
            r#"{"rows":[[1]],"features":[1]}"#,  // both forms
            r#"{"rows":[[1]],"rows":[[2]]}"#,    // duplicate key
            r#"{"rows":[[1],]}"#,                // trailing comma
            r#"{"rows":[[1]]} x"#,               // trailing garbage
            r#"{"model":"m","features":[1,2]}"#, // the one-row form
        ] {
            assert!(
                scan_predict_rows(body, &mut rows).is_none(),
                "rows scan must defer {body:?}"
            );
        }
    }

    #[test]
    fn predict_reply_is_flat_for_features_and_nested_for_rows() {
        let mut out = Vec::new();
        write_predict_reply(&mut out, "m@v2", 3, &[1.5, -2.0, 0.1, 4.0], None);
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            r#"{"model":"m@v2","batch_rows":3,"outputs":[1.5,-2,0.1,4]}"#
        );
        out.clear();
        write_predict_reply(&mut out, "m@v2", 64, &[1.5, -2.0, 0.1, 4.0], Some(2));
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            r#"{"model":"m@v2","batch_rows":64,"outputs":[[1.5,-2],[0.1,4]]}"#
        );
        out.clear();
        write_predict_reply(&mut out, "m@v2", 1, &[0.25], Some(1));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            r#"{"model":"m@v2","batch_rows":1,"outputs":[[0.25]]}"#
        );
    }
}
