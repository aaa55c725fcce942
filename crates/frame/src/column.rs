//! Typed columns and scalar values.

use crate::FrameError;
use serde::{Deserialize, Serialize};

/// The runtime type of a [`Column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit float column.
    F64,
    /// 64-bit signed integer column.
    I64,
    /// Boolean column.
    Bool,
    /// UTF-8 string column.
    Str,
}

impl ColumnType {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::F64 => "f64",
            ColumnType::I64 => "i64",
            ColumnType::Bool => "bool",
            ColumnType::Str => "str",
        }
    }
}

/// A single scalar cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Float cell.
    F64(f64),
    /// Integer cell.
    I64(i64),
    /// Boolean cell.
    Bool(bool),
    /// String cell.
    Str(String),
}

impl Value {
    /// Render the value the way the CSV writer does.
    pub fn render(&self) -> String {
        match self {
            Value::F64(v) => format!("{v}"),
            Value::I64(v) => format!("{v}"),
            Value::Bool(v) => format!("{v}"),
            Value::Str(v) => v.clone(),
        }
    }
}

/// One named-less typed column of a [`crate::Frame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Float data.
    F64(Vec<f64>),
    /// Integer data.
    I64(Vec<i64>),
    /// Boolean data.
    Bool(Vec<bool>),
    /// String data.
    Str(Vec<String>),
}

impl Column {
    /// Build a string column from `&str` slices.
    pub fn from_strs(values: &[&str]) -> Self {
        Column::Str(values.iter().map(|s| s.to_string()).collect())
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runtime type tag.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::F64(_) => ColumnType::F64,
            Column::I64(_) => ColumnType::I64,
            Column::Bool(_) => ColumnType::Bool,
            Column::Str(_) => ColumnType::Str,
        }
    }

    /// Cell at `row` as a [`Value`]; `None` if out of bounds.
    pub fn value(&self, row: usize) -> Option<Value> {
        match self {
            Column::F64(v) => v.get(row).map(|&x| Value::F64(x)),
            Column::I64(v) => v.get(row).map(|&x| Value::I64(x)),
            Column::Bool(v) => v.get(row).map(|&x| Value::Bool(x)),
            Column::Str(v) => v.get(row).map(|x| Value::Str(x.clone())),
        }
    }

    /// Borrow as `&[f64]`, or a type-mismatch error.
    pub fn as_f64(&self) -> Result<&[f64], FrameError> {
        match self {
            Column::F64(v) => Ok(v),
            other => Err(type_err("<unnamed>", ColumnType::F64, other)),
        }
    }

    /// Borrow as `&[i64]`, or a type-mismatch error.
    pub fn as_i64(&self) -> Result<&[i64], FrameError> {
        match self {
            Column::I64(v) => Ok(v),
            other => Err(type_err("<unnamed>", ColumnType::I64, other)),
        }
    }

    /// Borrow as `&[bool]`, or a type-mismatch error.
    pub fn as_bool(&self) -> Result<&[bool], FrameError> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(type_err("<unnamed>", ColumnType::Bool, other)),
        }
    }

    /// Borrow as `&[String]`, or a type-mismatch error.
    pub fn as_str(&self) -> Result<&[String], FrameError> {
        match self {
            Column::Str(v) => Ok(v),
            other => Err(type_err("<unnamed>", ColumnType::Str, other)),
        }
    }

    /// Numeric view: floats as-is, integers and bools widened, strings fail.
    ///
    /// This is what the ML feature-matrix export uses, so integer run
    /// metadata (nodes, cores) and one-hot booleans become features without
    /// per-call-site casts.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>, FrameError> {
        match self {
            Column::F64(v) => Ok(v.clone()),
            Column::I64(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            Column::Bool(v) => Ok(v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect()),
            Column::Str(_) => Err(type_err("<unnamed>", ColumnType::F64, self)),
        }
    }

    /// New column with only the rows in `indices` (in that order).
    pub fn take(&self, indices: &[usize]) -> Result<Self, FrameError> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(FrameError::RowOutOfBounds { index: bad, len });
        }
        Ok(match self {
            Column::F64(v) => Column::F64(indices.iter().map(|&i| v[i]).collect()),
            Column::I64(v) => Column::I64(indices.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
        })
    }

    /// Key string used to tell distinct values apart ([`crate::Frame::unique`]).
    /// Floats are formatted with full round-trip precision so distinct
    /// values never collide.
    pub fn group_key(&self, row: usize) -> String {
        match self {
            Column::F64(v) => format!("{:?}", v[row]),
            Column::I64(v) => v[row].to_string(),
            Column::Bool(v) => v[row].to_string(),
            Column::Str(v) => v[row].clone(),
        }
    }
}

pub(crate) fn type_err(column: &str, expected: ColumnType, found: &Column) -> FrameError {
    FrameError::TypeMismatch {
        column: column.to_string(),
        expected: expected.name(),
        found: found.column_type().name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::I64(vec![10, 20, 30]);
        let t = c.take(&[2, 0, 0]).unwrap();
        assert_eq!(t, Column::I64(vec![30, 10, 10]));
    }

    #[test]
    fn take_out_of_bounds() {
        let c = Column::F64(vec![1.0]);
        assert_eq!(
            c.take(&[1]),
            Err(FrameError::RowOutOfBounds { index: 1, len: 1 })
        );
    }

    #[test]
    fn to_f64_widens_ints_and_bools() {
        assert_eq!(
            Column::I64(vec![1, -2]).to_f64_vec().unwrap(),
            vec![1.0, -2.0]
        );
        assert_eq!(
            Column::Bool(vec![true, false]).to_f64_vec().unwrap(),
            vec![1.0, 0.0]
        );
        assert!(Column::from_strs(&["x"]).to_f64_vec().is_err());
    }

    #[test]
    fn group_key_distinguishes_close_floats() {
        let c = Column::F64(vec![0.1 + 0.2, 0.3]);
        assert_ne!(c.group_key(0), c.group_key(1));
    }
}
