//! `Serialize` for the standard types, and the helpers derived code calls.

use crate::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

/// Append `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => {
                out.push_str(&s[start..i]);
                let _ = write!(out, "\\u{b:04x}");
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(esc);
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append `"name":`, preceded by a comma unless it is the first key.
pub fn write_key(out: &mut String, first: bool, name: &str) {
    if !first {
        out.push(',');
    }
    write_str(out, name);
    out.push(':');
}

fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
    }
    out.push(']');
}

macro_rules! display_impl {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut String) {
                let _ = write!(out, "{}", self);
            }
        }
    )*};
}
display_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

macro_rules! float_impl {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            /// Shortest text that parses back to the same value; `null` when
            /// not finite, as serde_json writes it.
            fn serialize(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{:?}", self);
                } else {
                    out.push_str("null");
                }
            }
        }
    )*};
}
float_impl!(f32, f64);

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

macro_rules! tuple_impl {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.serialize(out);
                )+
                out.push(']');
            }
        }
    )*};
}
tuple_impl!((A 0) (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

/// A map key: JSON keys are strings, so integers are quoted.
pub trait SerializeKey {
    fn write_key(&self, out: &mut String);
}

impl SerializeKey for String {
    fn write_key(&self, out: &mut String) {
        write_str(out, self);
    }
}

macro_rules! int_key {
    ($($ty:ty),*) => {$(
        impl SerializeKey for $ty {
            fn write_key(&self, out: &mut String) {
                let _ = write!(out, "\"{}\"", self);
            }
        }
    )*};
}
int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn write_map<'a, K: SerializeKey + 'a, V: Serialize + 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        k.write_key(out);
        out.push(':');
        v.serialize(out);
    }
    out.push('}');
}

impl<K: SerializeKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        write_map(out, self.iter());
    }
}

impl<K: SerializeKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut String) {
        write_map(out, self.iter());
    }
}
