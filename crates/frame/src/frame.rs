//! The [`Frame`] container: named, equal-length typed columns.

use crate::column::{type_err, Column, ColumnType, Value};
use crate::FrameError;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A table of named, typed, equal-length columns.
///
/// Column order is insertion order and is preserved by every operation, so
/// feature matrices exported from a frame have a stable column layout.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    pub(crate) names: Vec<String>,
    pub(crate) columns: Vec<Column>,
}

impl Frame {
    /// Create an empty frame (0 columns, 0 rows).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (0 for a column-less frame).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// `(rows, cols)` shape tuple.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows(), self.n_cols())
    }

    /// Column names in layout order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// True if a column with `name` exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    fn index_of(&self, name: &str) -> Result<usize, FrameError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::UnknownColumn(name.to_string()))
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column, FrameError> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Append a column; must match the frame's row count (unless the frame
    /// is empty) and not duplicate an existing name.
    pub fn push_column<S: Into<String>>(
        &mut self,
        name: S,
        column: Column,
    ) -> Result<(), FrameError> {
        let name = name.into();
        if self.has_column(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                found: column.len(),
            });
        }
        self.names.push(name);
        self.columns.push(column);
        Ok(())
    }

    /// Replace an existing column's data (same length required).
    pub fn replace_column(&mut self, name: &str, column: Column) -> Result<(), FrameError> {
        let idx = self.index_of(name)?;
        if column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                found: column.len(),
            });
        }
        self.columns[idx] = column;
        Ok(())
    }

    /// Remove and return a column.
    pub fn drop_column(&mut self, name: &str) -> Result<Column, FrameError> {
        let idx = self.index_of(name)?;
        self.names.remove(idx);
        Ok(self.columns.remove(idx))
    }

    /// Float cell accessor (errors on wrong type or out-of-bounds row).
    pub fn f64_at(&self, name: &str, row: usize) -> Result<f64, FrameError> {
        let col = self.column(name)?;
        let data = col
            .as_f64()
            .map_err(|_| type_err(name, ColumnType::F64, col))?;
        data.get(row).copied().ok_or(FrameError::RowOutOfBounds {
            index: row,
            len: data.len(),
        })
    }

    /// Integer cell accessor.
    pub fn i64_at(&self, name: &str, row: usize) -> Result<i64, FrameError> {
        let col = self.column(name)?;
        let data = col
            .as_i64()
            .map_err(|_| type_err(name, ColumnType::I64, col))?;
        data.get(row).copied().ok_or(FrameError::RowOutOfBounds {
            index: row,
            len: data.len(),
        })
    }

    /// Boolean cell accessor.
    pub fn bool_at(&self, name: &str, row: usize) -> Result<bool, FrameError> {
        let col = self.column(name)?;
        let data = col
            .as_bool()
            .map_err(|_| type_err(name, ColumnType::Bool, col))?;
        data.get(row).copied().ok_or(FrameError::RowOutOfBounds {
            index: row,
            len: data.len(),
        })
    }

    /// String cell accessor.
    pub fn str_at(&self, name: &str, row: usize) -> Result<&str, FrameError> {
        let col = self.column(name)?;
        let data = col
            .as_str()
            .map_err(|_| type_err(name, ColumnType::Str, col))?;
        data.get(row)
            .map(String::as_str)
            .ok_or(FrameError::RowOutOfBounds {
                index: row,
                len: data.len(),
            })
    }

    /// Arbitrary cell as a [`Value`].
    pub fn value_at(&self, name: &str, row: usize) -> Result<Value, FrameError> {
        self.column(name)?
            .value(row)
            .ok_or(FrameError::RowOutOfBounds {
                index: row,
                len: self.n_rows(),
            })
    }

    /// New frame with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Frame, FrameError> {
        let mut out = Frame::new();
        for &name in names {
            out.push_column(name, self.column(name)?.clone())?;
        }
        Ok(out)
    }

    /// New frame with the rows at `indices`, in that order (duplicates OK).
    pub fn take(&self, indices: &[usize]) -> Result<Frame, FrameError> {
        let mut out = Frame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            out.push_column(name.clone(), col.take(indices)?)?;
        }
        Ok(out)
    }

    /// Keep rows where `pred(row_index)` is true.
    pub fn filter<P: FnMut(usize) -> bool>(&self, mut pred: P) -> Result<Frame, FrameError> {
        let indices: Vec<usize> = (0..self.n_rows()).filter(|&i| pred(i)).collect();
        self.take(&indices)
    }

    /// Distinct rendered values of a column, in first-appearance order.
    pub fn unique(&self, column: &str) -> Result<Vec<String>, FrameError> {
        let col = self.column(column)?;
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in 0..self.n_rows() {
            let key = col.group_key(row);
            if seen.insert(key.clone()) {
                out.push(key);
            }
        }
        Ok(out)
    }

    /// Extract named float-convertible columns as a row-major matrix
    /// (`rows × names.len()`); the workhorse for building ML feature
    /// matrices.
    pub fn to_matrix(&self, names: &[&str]) -> Result<(Vec<f64>, usize, usize), FrameError> {
        let rows = self.n_rows();
        let cols = names.len();
        let mut data = vec![0.0; rows * cols];
        for (j, &name) in names.iter().enumerate() {
            let col = self.column(name)?;
            let vals = col
                .to_f64_vec()
                .map_err(|_| type_err(name, ColumnType::F64, col))?;
            for (i, v) in vals.into_iter().enumerate() {
                data[i * cols + j] = v;
            }
        }
        Ok((data, rows, cols))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A frame of the given columns, for this crate's test fixtures.
    pub(crate) fn frame_of<const N: usize>(columns: [(&str, Column); N]) -> Frame {
        let mut f = Frame::new();
        for (name, column) in columns {
            f.push_column(name, column).unwrap();
        }
        f
    }

    fn sample() -> Frame {
        frame_of([
            ("name", Column::from_strs(&["a", "b", "c", "a"])),
            ("x", Column::F64(vec![1.0, 2.0, 3.0, 4.0])),
            ("n", Column::I64(vec![10, 20, 30, 40])),
            ("gpu", Column::Bool(vec![true, false, true, false])),
        ])
    }

    #[test]
    fn shape_and_names() {
        let f = sample();
        assert_eq!(f.shape(), (4, 4));
        assert_eq!(f.column_names(), &["name", "x", "n", "gpu"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut f = sample();
        assert_eq!(
            f.push_column("x", Column::F64(vec![0.0; 4])),
            Err(FrameError::DuplicateColumn("x".into()))
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut f = sample();
        assert!(matches!(
            f.push_column("bad", Column::F64(vec![1.0])),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn accessors_and_errors() {
        let f = sample();
        assert_eq!(f.f64_at("x", 2).unwrap(), 3.0);
        assert_eq!(f.i64_at("n", 0).unwrap(), 10);
        assert!(f.bool_at("gpu", 0).unwrap());
        assert_eq!(f.str_at("name", 3).unwrap(), "a");
        assert!(matches!(
            f.f64_at("name", 0),
            Err(FrameError::TypeMismatch { .. })
        ));
        assert!(matches!(
            f.f64_at("x", 9),
            Err(FrameError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            f.f64_at("nope", 0),
            Err(FrameError::UnknownColumn(_))
        ));
    }

    #[test]
    fn select_take_filter() {
        let f = sample();
        let s = f.select(&["x", "name"]).unwrap();
        assert_eq!(s.column_names(), &["x", "name"]);
        let t = f.take(&[3, 0]).unwrap();
        assert_eq!(t.str_at("name", 0).unwrap(), "a");
        assert_eq!(t.f64_at("x", 0).unwrap(), 4.0);
        let g = f.filter(|i| f.bool_at("gpu", i).unwrap()).unwrap();
        assert_eq!(g.n_rows(), 2);
    }

    #[test]
    fn to_matrix_row_major() {
        let f = sample();
        let (m, r, c) = f.to_matrix(&["x", "n", "gpu"]).unwrap();
        assert_eq!((r, c), (4, 3));
        assert_eq!(&m[0..3], &[1.0, 10.0, 1.0]);
        assert_eq!(&m[9..12], &[4.0, 40.0, 0.0]);
        assert!(f.to_matrix(&["name"]).is_err());
    }

    #[test]
    fn unique_in_appearance_order() {
        assert_eq!(sample().unique("name").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(sample().unique("gpu").unwrap(), vec!["true", "false"]);
    }

    #[test]
    fn replace_and_drop() {
        let mut f = sample();
        f.replace_column("x", Column::F64(vec![9.0; 4])).unwrap();
        assert_eq!(f.f64_at("x", 1).unwrap(), 9.0);
        assert!(f.replace_column("x", Column::F64(vec![1.0])).is_err());
        let dropped = f.drop_column("n").unwrap();
        assert_eq!(dropped.len(), 4);
        assert!(!f.has_column("n"));
    }
}
