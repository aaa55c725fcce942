//! Offline stand-in for `serde_json`: `to_string` and `from_str`, the two
//! calls the `mphpc` workspace makes. The text format is serde_json's
//! (externally tagged enums, shortest round-trip floats, `null` for
//! non-finite floats), so files written by either can be read by the other.

pub use serde::de::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::with_capacity(128);
    value.serialize(&mut out);
    Ok(out)
}

pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let mut p = serde::de::Parser::new(s);
    let v = T::deserialize(&mut p)?;
    p.end()?;
    Ok(v)
}
