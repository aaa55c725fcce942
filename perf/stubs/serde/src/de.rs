//! The JSON cursor `Deserialize` reads from, and `Deserialize` for the
//! standard types.

use crate::Deserialize;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// A parse or shape error, with the byte offset where it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Nesting allowed before the parser refuses the input, so hostile depth
/// cannot overflow the stack.
const MAX_DEPTH: u32 = 128;

/// A cursor over JSON text.
pub struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    pub fn error(&self, what: impl fmt::Display) -> Error {
        Error::msg(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        let b = self.bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\n' | b'\t' | b'\r') {
            self.pos += 1;
        }
    }

    /// The next byte that is not white space, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Succeeds when only white space remains.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    fn enter(&mut self, open: u8) -> Result<(), Error> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Consume `null` if it is next.
    pub fn eat_null(&mut self) -> bool {
        self.eat_literal("null")
    }

    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.enter(b'[')
    }

    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.enter(b'{')
    }

    /// Inside an array: true if another element follows (its separator is
    /// consumed), false once the closing bracket is consumed.
    pub fn next_element(&mut self, first: bool) -> Result<bool, Error> {
        self.next_item(first, b']')
    }

    fn next_item(&mut self, first: bool, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => Err(self.error("expected `,` or a closing bracket")),
        }
    }

    /// Inside an object: the next key (its `:` consumed), or `None` once the
    /// closing brace is consumed.
    pub fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_item(first, b'}')? {
            return Ok(None);
        }
        let key = self.parse_str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// A string literal; borrowed from the input unless it has escapes.
    pub fn parse_str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let b = self.bytes();
        let start = self.pos;
        let mut i = start;
        while i < b.len() && b[i] != b'"' && b[i] != b'\\' && b[i] >= 0x20 {
            i += 1;
        }
        if i < b.len() && b[i] == b'"' {
            self.pos = i + 1;
            return Ok(Cow::Borrowed(&self.src[start..i]));
        }
        let mut out = String::from(&self.src[start..i]);
        self.pos = i;
        loop {
            let Some(&c) = b.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => {
                    let Some(&e) = b.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.parse_unicode_escape()?),
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                0..=0x1f => return Err(self.error("control character in string")),
                _ => {
                    // Copy the run of plain bytes up to the next special one;
                    // the input is a `&str`, so the run is valid UTF-8.
                    let run_start = self.pos - 1;
                    while self.pos < b.len()
                        && b[self.pos] != b'"'
                        && b[self.pos] != b'\\'
                        && b[self.pos] >= 0x20
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[run_start..self.pos]);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("short \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.parse_hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.src[self.pos..].starts_with("\\u") {
                return Err(self.error("lone surrogate"));
            }
            self.pos += 2;
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid surrogate pair"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }

    /// The text of the number at the cursor, consumed.
    fn number_text(&mut self) -> Result<&'a str, Error> {
        self.skip_ws();
        let b = self.bytes();
        let start = self.pos;
        let mut i = start;
        while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            i += 1;
        }
        if i == start {
            return Err(self.error("expected a number"));
        }
        self.pos = i;
        Ok(&self.src[start..i])
    }

    pub fn parse_f64(&mut self) -> Result<f64, Error> {
        let text = self.number_text()?;
        text.parse::<f64>()
            .map_err(|_| self.error(format_args!("invalid number `{text}`")))
    }

    pub fn parse_bool(&mut self) -> Result<bool, Error> {
        if self.eat_literal("true") {
            Ok(true)
        } else if self.eat_literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected a boolean"))
        }
    }

    /// Skip one value of any shape.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.parse_str().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(first)? {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b't' | b'f') => self.parse_bool().map(drop),
            Some(b'n') if self.eat_null() => Ok(()),
            Some(b'-' | b'0'..=b'9') => self.parse_f64().map(drop),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Read an externally tagged enum: `"Unit"` gives `(name, false)`, and
    /// `{"Name": ...` gives `(name, true)` with the cursor at the payload;
    /// the caller then calls [`Parser::end_variant`].
    pub fn begin_variant(&mut self) -> Result<(Cow<'a, str>, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.parse_str()?, false)),
            Some(b'{') => {
                self.begin_object()?;
                match self.next_key(true)? {
                    Some(name) => Ok((name, true)),
                    None => Err(self.error("expected a variant name")),
                }
            }
            _ => Err(self.error("expected an enum")),
        }
    }

    pub fn end_variant(&mut self) -> Result<(), Error> {
        match self.next_key(false)? {
            None => Ok(()),
            Some(_) => Err(self.error("enum object with more than one key")),
        }
    }

    /// Step to element `index` of a fixed-length array, which must exist.
    pub fn tuple_element(&mut self, index: usize) -> Result<(), Error> {
        if self.next_element(index == 0)? {
            Ok(())
        } else {
            Err(self.error(format_args!("tuple ended after {index} elements")))
        }
    }

    pub fn end_tuple(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element(len == 0)? {
            Err(self.error(format_args!("tuple longer than {len} elements")))
        } else {
            Ok(())
        }
    }
}

macro_rules! int_impl {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                let text = p.number_text()?;
                text.parse::<$ty>()
                    .map_err(|_| p.error(format_args!("invalid {} `{text}`", stringify!($ty))))
            }
        }
        impl DeserializeKey for $ty {
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse::<$ty>()
                    .map_err(|_| Error::msg(format!("invalid {} key `{key}`", stringify!($ty))))
            }
        }
    )*};
}
int_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    /// `null` reads as NaN, the inverse of how non-finite values are written.
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.eat_null() {
            return Ok(f64::NAN);
        }
        p.parse_f64()
    }
}

impl Deserialize for f32 {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        f64::deserialize(p).map(|v| v as f32)
    }
}

impl Deserialize for bool {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.parse_bool()
    }
}

impl Deserialize for String {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.parse_str().map(Cow::into_owned)
    }
}

/// The published serde borrows such a field from input that outlives it; this
/// stand-in has no input lifetime, so it leaks the (small, rarely read) text.
impl Deserialize for &'static str {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let owned = p.parse_str()?.into_owned();
        Ok(Box::leak(owned.into_boxed_str()))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.eat_null() {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }

    fn missing(_field: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        T::deserialize(p).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.begin_array()?;
        let mut out = Vec::new();
        while p.next_element(out.is_empty())? {
            out.push(T::deserialize(p)?);
        }
        Ok(out)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(p)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| p.error(format_args!("expected {N} elements, found {n}")))
    }
}

macro_rules! tuple_impl {
    ($(($len:expr; $($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                p.begin_array()?;
                let v = ($({
                    p.tuple_element($idx)?;
                    $name::deserialize(p)?
                },)+);
                p.end_tuple($len)?;
                Ok(v)
            }
        }
    )*};
}
tuple_impl!((1; A 0) (2; A 0, B 1) (3; A 0, B 1, C 2) (4; A 0, B 1, C 2, D 3));

/// A map key parsed back from its JSON string.
pub trait DeserializeKey: Sized {
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl DeserializeKey for String {
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

fn read_map<K: DeserializeKey, V: Deserialize>(
    p: &mut Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    p.begin_object()?;
    let mut first = true;
    while let Some(key) = p.next_key(first)? {
        first = false;
        insert(K::from_key(&key)?, V::deserialize(p)?);
    }
    Ok(())
}

impl<K: DeserializeKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = BTreeMap::new();
        read_map(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<K: DeserializeKey + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = HashMap::with_hasher(S::default());
        read_map(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}
