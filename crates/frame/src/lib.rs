//! A minimal columnar dataframe — the workspace's substitute for the
//! Hatchet/pandas layer the paper uses between HPCToolkit profiles and the
//! ML pipeline.
//!
//! [`Frame`] holds named, typed columns ([`Column`]: `f64`, `i64`, `bool`,
//! `String`) of equal length and supports the operations the MP-HPC pipeline
//! needs: column selection, row selection by index or predicate, distinct
//! values, row-major matrix export, and CSV round-tripping. Statistics
//! helpers (mean, std, z-score) live in [`stats`].
//!
//! The implementation favours predictability over generality: all operations
//! are eager, copy row indices rather than data where possible, and return
//! [`FrameError`] instead of panicking on shape or type mismatches.
//!
//! # Example
//! ```
//! use mphpc_frame::{Frame, Column};
//! let mut f = Frame::new();
//! f.push_column("app", Column::from_strs(&["amg", "comd", "amg"])).unwrap();
//! f.push_column("time", Column::F64(vec![1.0, 2.0, 3.0])).unwrap();
//! let amg = f.filter(|row| f.str_at("app", row).unwrap() == "amg").unwrap();
//! assert_eq!(amg.n_rows(), 2);
//! assert_eq!(f.unique("app").unwrap(), vec!["amg", "comd"]);
//! ```

#![warn(missing_docs)]

mod column;
mod csv;
mod error;
mod frame;
pub mod stats;

pub use column::{Column, ColumnType, Value};
pub use csv::{read_csv_str, write_csv_string};
pub use error::FrameError;
pub use frame::Frame;
