//! The minimal JSON dialect the server speaks.
//!
//! A strict recursive-descent parser for request bodies plus the one
//! escaping routine responses — and `mphpc-telemetry`'s JSONL — need.
//! Hand-rolled because the subset is tiny and the crate must stay
//! std-only. Numbers parse as `f64` (the only numeric type `/predict`
//! traffics in), and objects keep insertion order so rendering is stable.

use std::borrow::Cow;

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
        Parser { text, pos: 0 }.document(|p| p.value(0))
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

/// The one JSON grammar: [`JsonValue::parse`] builds a tree from these
/// rules and [`read_predict_body`] reads a `/predict` body through the
/// same ones, so the two agree on every token and every error position.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> MphpcError {
        MphpcError::Serde(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// A whole document: `root`, whitespace around it, nothing after.
    fn document<T>(
        mut self,
        root: impl FnOnce(&mut Self) -> Result<T, MphpcError>,
    ) -> Result<T, MphpcError> {
        self.skip_ws();
        let value = root(&mut self)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, MphpcError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|p, key| {
                    members.push((key.into_owned(), p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(JsonValue::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.eat_literal("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null").map(|_| JsonValue::Null),
            Some(_) if self.at_number() => self.number().map(JsonValue::Num),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `{"key": member, ...}` with the cursor on the brace; `member`
    /// reads each value with the cursor on its first byte.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), MphpcError>,
    ) -> Result<(), MphpcError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// `[element, ...]` with the cursor on the bracket; `element` reads
    /// each one with the cursor on its first byte. Returns the count.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), MphpcError>,
    ) -> Result<usize, MphpcError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        let mut n = 0;
        loop {
            self.skip_ws();
            element(self)?;
            n += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(n);
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A string; borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, MphpcError> {
        self.eat(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so a run between them starts and
            // ends on char boundaries of the `&str`.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(c);
                }
            }
        }
    }

    /// The character an escape stands for, cursor just past the `\`.
    fn escape(&mut self) -> Result<char, MphpcError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // an escaped low surrogate.
                let c = if (0xd800..0xdc00).contains(&code) {
                    self.eat(b'\\')?;
                    self.eat(b'u')?;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                } else {
                    char::from_u32(code)
                };
                return c.ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, MphpcError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let code = self
            .text
            .get(self.pos..end)
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    /// Whether the cursor is on the first byte of a number token.
    fn at_number(&self) -> bool {
        matches!(self.peek(), Some(b'-' | b'0'..=b'9'))
    }

    fn number(&mut self) -> Result<f64, MphpcError> {
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
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }

    /// `[n, ...]` appended to `values`: how many elements it has, and
    /// whether all were numbers (one that is not is read as whatever it
    /// is, at `depth`, and dropped).
    fn numbers(
        &mut self,
        depth: usize,
        values: &mut Vec<f64>,
    ) -> Result<(usize, bool), MphpcError> {
        let mut all = true;
        let n = self.array(|p| {
            if p.at_number() {
                values.push(p.number()?);
            } else {
                p.value(depth)?;
                all = false;
            }
            Ok(())
        })?;
        Ok((n, all))
    }

    /// The document [`read_predict_body`] reads. Members it does not
    /// know, repeats of ones it does (the first wins, as with
    /// [`JsonValue::get`]) and a `model` that is not a string are read
    /// by [`Parser::value`] and dropped; a document that is not an
    /// object has no members at all.
    fn predict_body(
        &mut self,
        values: &mut Vec<f64>,
    ) -> Result<Meaning<PredictBody<'a>>, MphpcError> {
        let mut model = None;
        let mut features = None;
        let mut rows = None;
        if self.peek() == Some(b'{') {
            self.object(|p, key| {
                match &*key {
                    "model" if model.is_none() => {
                        model = Some(if p.peek() == Some(b'"') {
                            Some(p.string()?)
                        } else {
                            p.value(1)?;
                            None
                        });
                    }
                    "features" if features.is_none() => features = Some(p.features(values)?),
                    "rows" if rows.is_none() => rows = Some(p.rows(values)?),
                    _ => drop(p.value(1)?),
                }
                Ok(())
            })?;
        } else {
            self.value(0)?;
        }
        let rows = match (features, rows) {
            (Some(_), Some(_)) => Err("give either \"features\" or \"rows\", not both"),
            (None, Some(rows)) => rows.map(Some),
            (Some(features), None) => features.map(|()| None),
            (None, None) => Err(FEATURES_MISSING),
        };
        Ok(rows.and_then(|rows| {
            if values.iter().all(|x| x.is_finite()) {
                Ok(PredictBody {
                    model: model.flatten(),
                    rows,
                })
            } else if rows.is_some() {
                Err(ROWS_NOT_NUMBERS)
            } else {
                Err(FEATURES_NOT_NUMBERS)
            }
        }))
    }

    /// The value of a `features` member.
    fn features(&mut self, values: &mut Vec<f64>) -> Result<Meaning<()>, MphpcError> {
        if self.peek() != Some(b'[') {
            return self.value(1).map(|_| Err(FEATURES_MISSING));
        }
        let (_, numbers) = self.numbers(2, values)?;
        Ok(numbers.then_some(()).ok_or(FEATURES_NOT_NUMBERS))
    }

    /// The value of a `rows` member: the row count, each row as wide as
    /// the first. What is wrong with a row is decided at its end, in the
    /// order not an array, wrong width, not numbers, and the first row
    /// with something wrong names the error.
    fn rows(&mut self, values: &mut Vec<f64>) -> Result<Meaning<usize>, MphpcError> {
        const ROWS_EMPTY: &str = "\"rows\" must be a non-empty array of rows";
        if self.peek() != Some(b'[') {
            return self.value(1).map(|_| Err(ROWS_EMPTY));
        }
        let mut meaning = Ok(());
        let mut width = None;
        let n_rows = self.array(|p| {
            let row = if p.peek() == Some(b'[') {
                let (n, numbers) = p.numbers(3, values)?;
                if *width.get_or_insert(n) != n {
                    Err("\"rows\" must all have the same length")
                } else if numbers {
                    Ok(())
                } else {
                    Err(ROWS_NOT_NUMBERS)
                }
            } else {
                p.value(2).map(|_| Err(ROWS_NOT_NUMBERS))?
            };
            meaning = meaning.and(row);
            Ok(())
        })?;
        Ok(if n_rows == 0 {
            Err(ROWS_EMPTY)
        } else {
            meaning.map(|()| n_rows)
        })
    }
}

/// What a syntactically valid `/predict` body means: what it asks for,
/// or the 400 text saying why it asks for nothing. Kept apart from the
/// syntax errors because those win wherever they are — a body is read to
/// its end before what it means is looked at.
type Meaning<T> = Result<T, &'static str>;

const FEATURES_MISSING: &str = "missing \"features\" array";
const FEATURES_NOT_NUMBERS: &str = "\"features\" must be finite numbers";
const ROWS_NOT_NUMBERS: &str = "\"rows\" must be arrays of finite numbers";

/// A `/predict` request body, its numbers already in the caller's
/// buffer.
#[derive(Debug, PartialEq)]
pub struct PredictBody<'a> {
    /// The `model` member (`None`: absent, the caller's default).
    pub model: Option<Cow<'a, str>>,
    /// `None` for the one-row `features` form; `Some(n)` for the `rows`
    /// form with its `n >= 1` rows, all of one width.
    pub rows: Option<usize>,
}

/// Read a `/predict` body in either form — `{"model": "...",
/// "features": [n, ...]}` or `{"model": "...", "rows": [[n, ...], ...]}`,
/// `model` optional, members in any order — into `values` (cleared
/// first; row-major for `rows`). `Err` is the text of the 400.
///
/// One pass of the grammar [`JsonValue::parse`] uses, and no allocation
/// for a body that has no escape in a string, only the members above
/// and nothing wrong with it.
pub fn read_predict_body<'a>(
    text: &'a str,
    values: &mut Vec<f64>,
) -> Result<PredictBody<'a>, String> {
    values.clear();
    match (Parser { text, pos: 0 }).document(|p| p.predict_body(values)) {
        Ok(Ok(body)) => Ok(body),
        Ok(Err(msg)) => Err(msg.to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// [`read_predict_body`] for callers that handle only the `features`
/// form and borrow the model name: `Some(model)` with the numbers in
/// `features`, `None` for every other body, a refused one included.
pub fn scan_predict_body<'a>(text: &'a str, features: &mut Vec<f64>) -> Option<Option<&'a str>> {
    match read_predict_body(text, features) {
        Ok(PredictBody {
            model: None,
            rows: None,
        }) => Some(None),
        Ok(PredictBody {
            model: Some(Cow::Borrowed(name)),
            rows: None,
        }) => Some(Some(name)),
        _ => None,
    }
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

/// Escape `s` per RFC 8259 into `out`, quotes included, without an
/// intermediate `String`.
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

/// Render `v` into `out` without an intermediate `String` (std's `f64`
/// Display formats on the stack), emitting `null` for non-finite values
/// (which JSON cannot represent), matching the telemetry JSONL
/// convention.
pub fn write_json_num(out: &mut Vec<u8>, v: f64) {
    use std::io::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// [`write_json_str`] into a fresh `String`.
pub fn json_str(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    String::from_utf8(out).expect("escaping UTF-8 yields UTF-8")
}

/// [`write_json_num`] into a fresh `String`.
pub fn json_num(v: f64) -> String {
    let mut out = Vec::new();
    write_json_num(&mut out, v);
    String::from_utf8(out).expect("JSON numbers are ASCII")
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
        assert_eq!(json_str("a\"b\\\n\t\u{1}名"), r#""a\"b\\\n\t\u0001名""#);
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

    /// Model name, row count (`None`: the `features` form) and numbers
    /// of a body, read off the tree [`JsonValue::parse`] builds.
    fn from_tree(body: &str) -> (Option<String>, Option<usize>, Vec<f64>) {
        let tree = JsonValue::parse(body).unwrap();
        let numbers = |v: &JsonValue| -> Vec<f64> {
            let items = v.as_array().unwrap().iter();
            items.map(|x| x.as_f64().unwrap()).collect()
        };
        let model = tree.get("model").and_then(JsonValue::as_str);
        let model = model.map(str::to_string);
        match tree.get("rows").map(|rows| rows.as_array().unwrap()) {
            Some(rows) => (
                model,
                Some(rows.len()),
                rows.iter().flat_map(numbers).collect(),
            ),
            None => (model, None, numbers(tree.get("features").unwrap())),
        }
    }

    #[test]
    fn the_predict_reader_agrees_with_the_tree_and_words_every_refusal() {
        let mut values = Vec::new();
        // An unknown member nested `n` arrays deep; the member is depth 1.
        let nested = |n| {
            format!(
                "{{\"rows\":[[1]],\"x\":{}{}}}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        let (deepest, too_deep) = (nested(64), nested(65));

        for body in [
            r#"{"model":"default","features":[1, -2.5, 3e2]}"#,
            r#"{"features":[0.125]}"#,
            r#" { "features" : [ 1 , 2 ] , "model" : "m-1" } "#,
            r#"{"model":"x","features":[]}"#,
            r#"{"model":"a\"bé","features":[1]}"#, // escapes in the name
            r#"{"features":[1],"extra":{"deep":[[null]]}}"#, // unknown member
            r#"{"features":[1],"features":["x"]}"#, // the first wins
            r#"{"model":null,"features":[1],"model":"m"}"#, // also when it is no string
            r#"{"model":"m","rows":[[1,-2.5],[3e2,0.125]]}"#,
            r#" { "rows" : [ [ 7 ] ] } "#,
            r#"{"rows":[[],[]]}"#,
            r#"{"rows":[[1]],"rows":[[2],[3]]}"#,
            deepest.as_str(),
        ] {
            let got = read_predict_body(body, &mut values)
                .unwrap_or_else(|msg| panic!("{body:?} refused: {msg}"));
            let (model, rows, want) = from_tree(body);
            assert_eq!(
                (got.model.as_deref(), got.rows),
                (model.as_deref(), rows),
                "{body:?}"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&values), bits(&want), "{body:?}");
        }

        // Bodies that are JSON and ask for nothing: the reader's words.
        // The first row with something wrong decides, and in a row the
        // width is looked at before the elements.
        let refused: [(&str, &[&str]); 6] = [
            (
                "missing \"features\" array",
                &["{}", "[1,2]", r#"{"features":{"a":1}}"#],
            ),
            (
                "\"features\" must be finite numbers",
                &[r#"{"features":[1,"x"]}"#, r#"{"features":[1e999]}"#],
            ),
            (
                "\"rows\" must be a non-empty array of rows",
                &[r#"{"rows":[]}"#, r#"{"rows":5}"#],
            ),
            (
                "\"rows\" must be arrays of finite numbers",
                &[
                    r#"{"rows":[1,2]}"#,
                    r#"{"rows":[[1e999,1]]}"#,
                    r#"{"rows":[[1,"x"],[3]]}"#,
                ],
            ),
            (
                "\"rows\" must all have the same length",
                &[
                    r#"{"rows":[[1,2],[3]]}"#,
                    r#"{"rows":[[1,2],["x"]]}"#,
                    r#"{"rows":[[1e999],[1,2]]}"#,
                ],
            ),
            (
                "give either \"features\" or \"rows\", not both",
                &[
                    r#"{"rows":[[1]],"features":[1]}"#,
                    r#"{"features":"x","rows":7}"#,
                ],
            ),
        ];
        for (msg, bodies) in refused {
            for body in bodies {
                assert!(JsonValue::parse(body).is_ok(), "{body:?}");
                let got = read_predict_body(body, &mut values);
                assert_eq!(got, Err(msg.to_string()), "{body:?}");
            }
        }

        // Bodies that are not JSON: the parser's words, wherever the
        // error is and whatever else is wrong with the body.
        for body in [
            "not json",
            r#"{"features":[1]} trailing"#,
            r#"{"features":[--1]}"#,
            r#"{"features":[1,"x"]} trailing"#,
            r#"{"rows":[[1],]}"#,
            r#"{"rows":[[1,2],[3]],}"#,
            r#"{"model":"\x","features":[1]}"#,
            r#"{"features":[1],"model":"m}"#,
            too_deep.as_str(),
        ] {
            let want = JsonValue::parse(body).unwrap_err().to_string();
            assert_eq!(read_predict_body(body, &mut values), Err(want), "{body:?}");
        }
        assert_eq!(
            read_predict_body(r#"{"features":[1]} trailing"#, &mut values),
            Err("serialisation error: json parse error at byte 17: \
                 trailing characters after JSON value"
                .to_string())
        );
        assert!(read_predict_body(&too_deep, &mut values)
            .unwrap_err()
            .ends_with("nesting too deep"));
    }

    #[test]
    fn the_one_row_view_borrows_the_model_and_takes_nothing_else() {
        let mut features = Vec::new();
        for (body, want) in [
            (r#"{"model":"m","features":[1,2]}"#, Some(Some("m"))),
            (r#"{"features":[1,2]}"#, Some(None)),
            (r#"{"model":"\u006d","features":[1,2]}"#, None), // nothing to borrow
            (r#"{"model":"m","rows":[[1,2]]}"#, None),
            (r#"{"features":[1,"x"]}"#, None),
        ] {
            assert_eq!(scan_predict_body(body, &mut features), want, "{body:?}");
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
