//! Offline stand-in for `serde`, reduced to what the `mphpc` workspace uses:
//! `#[derive(Serialize, Deserialize)]` on plain structs and enums (with
//! `#[serde(default)]` and `#[serde(skip)]`), always to and from JSON text.
//! There is no data-model indirection: `Serialize` appends JSON to a
//! `String`, `Deserialize` reads from a byte cursor. The JSON produced is what
//! the published serde + serde_json produce for the same types.

pub mod de;
pub mod ser;

pub use serde_derive::{Deserialize, Serialize};

/// Append `self` as JSON.
pub trait Serialize {
    fn serialize(&self, out: &mut String);
}

/// Read `Self` from JSON at the parser's cursor.
pub trait Deserialize: Sized {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error>;

    /// Value of a struct field absent from the input; only `Option` has one.
    fn missing(field: &'static str) -> Result<Self, de::Error> {
        Err(de::Error::msg(format!("missing field `{field}`")))
    }
}
