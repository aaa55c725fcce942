//! CSV serialisation for [`Frame`], used to persist the MP-HPC dataset.
//!
//! The dialect is deliberately small: comma separator, `"`-quoting with
//! doubled-quote escapes, first row is the header. Types on read are
//! inferred per column (bool → i64 → f64 → str, most restrictive that fits
//! every cell).

use crate::column::Column;
use crate::frame::Frame;
use crate::FrameError;
use std::io::Read;
use std::path::Path;

/// Serialise a frame to a CSV string.
pub fn write_csv_string(frame: &Frame) -> String {
    let mut out = String::new();
    let names = frame.column_names();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&quote_field(name));
    }
    out.push('\n');
    for row in 0..frame.n_rows() {
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rendered = frame
                .value_at(name, row)
                .expect("row within bounds")
                .render();
            out.push_str(&quote_field(&rendered));
        }
        out.push('\n');
    }
    out
}

/// Parse a CSV string into a frame with per-column type inference.
pub fn read_csv_str(input: &str) -> Result<Frame, FrameError> {
    let rows = parse_rows(input)?;
    let mut iter = rows.into_iter();
    let header = match iter.next() {
        Some(h) => h,
        None => return Ok(Frame::new()),
    };
    let n_cols = header.len();
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); n_cols];
    for (line_no, row) in iter.enumerate() {
        if row.len() != n_cols {
            return Err(FrameError::Csv(format!(
                "row {} has {} fields, expected {}",
                line_no + 2,
                row.len(),
                n_cols
            )));
        }
        for (c, field) in row.into_iter().enumerate() {
            cells[c].push(field);
        }
    }
    let mut frame = Frame::new();
    for (name, col_cells) in header.into_iter().zip(cells) {
        frame.push_column(name, infer_column(col_cells))?;
    }
    Ok(frame)
}

impl Frame {
    /// Write the frame as CSV to `path`.
    ///
    /// The write is atomic (temp file + fsync + rename): a reader — or a
    /// process resuming after this writer was killed — sees either the
    /// complete previous file or the complete new one, never a torn
    /// prefix.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        mphpc_storage::atomic_write_file(path, write_csv_string(self).as_bytes())
    }

    /// Read a CSV file into a frame.
    pub fn read_csv<P: AsRef<Path>>(path: P) -> Result<Frame, FrameError> {
        let mut buf = String::new();
        std::fs::File::open(path)
            .map_err(|e| FrameError::Csv(e.to_string()))?
            .read_to_string(&mut buf)
            .map_err(|e| FrameError::Csv(e.to_string()))?;
        read_csv_str(&buf)
    }
}

fn quote_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn parse_rows(input: &str) -> Result<Vec<Vec<String>>, FrameError> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = input.chars().peekable();
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(FrameError::Csv("unterminated quoted field".into()));
    }
    if any && (!field.is_empty() || !row.is_empty()) {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

fn infer_column(cells: Vec<String>) -> Column {
    let all_bool = !cells.is_empty() && cells.iter().all(|c| c == "true" || c == "false");
    if all_bool {
        return Column::Bool(cells.iter().map(|c| c == "true").collect());
    }
    let as_i64: Option<Vec<i64>> = cells.iter().map(|c| c.parse::<i64>().ok()).collect();
    if let Some(v) = as_i64 {
        if !cells.is_empty() {
            return Column::I64(v);
        }
    }
    let as_f64: Option<Vec<f64>> = cells.iter().map(|c| c.parse::<f64>().ok()).collect();
    if let Some(v) = as_f64 {
        if !cells.is_empty() {
            return Column::F64(v);
        }
    }
    Column::Str(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::frame_of;

    fn sample() -> Frame {
        frame_of([
            ("app", Column::from_strs(&["amg", "co,md", "quo\"te"])),
            ("t", Column::F64(vec![1.5, 2.0, -0.25])),
            ("n", Column::I64(vec![1, 2, 3])),
            ("gpu", Column::Bool(vec![true, false, true])),
        ])
    }

    #[test]
    fn round_trip_preserves_types_and_values() {
        let f = sample();
        let csv = write_csv_string(&f);
        let g = read_csv_str(&csv).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn quoting_special_chars() {
        let csv = write_csv_string(&sample());
        assert!(csv.contains("\"co,md\""));
        assert!(csv.contains("\"quo\"\"te\""));
    }

    #[test]
    fn empty_input_gives_empty_frame() {
        let f = read_csv_str("").unwrap();
        assert_eq!(f.shape(), (0, 0));
    }

    #[test]
    fn header_only_gives_zero_rows() {
        let f = read_csv_str("a,b\n").unwrap();
        assert_eq!(f.shape(), (0, 2));
    }

    #[test]
    fn ragged_row_rejected() {
        assert!(matches!(
            read_csv_str("a,b\n1,2\n3\n"),
            Err(FrameError::Csv(_))
        ));
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(matches!(read_csv_str("a\n\"oops"), Err(FrameError::Csv(_))));
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let f = read_csv_str("a,b\n1,2").unwrap();
        assert_eq!(f.shape(), (1, 2));
        assert_eq!(f.i64_at("a", 0).unwrap(), 1);
    }

    #[test]
    fn type_inference_prefers_narrowest() {
        let f = read_csv_str("i,f,s,b\n1,1.5,x,true\n2,2,y,false\n").unwrap();
        assert_eq!(f.i64_at("i", 1).unwrap(), 2);
        assert_eq!(f.f64_at("f", 1).unwrap(), 2.0);
        assert_eq!(f.str_at("s", 0).unwrap(), "x");
        assert!(f.bool_at("b", 0).unwrap());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("mphpc_frame_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let f = sample();
        f.write_csv(&path).unwrap();
        let g = Frame::read_csv(&path).unwrap();
        assert_eq!(f, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_csv_is_never_observably_half_written() {
        // Overwrite the same destination with two different frames while a
        // reader polls it: every read must be one of the two complete CSV
        // renderings — a torn prefix or splice means atomicity is broken.
        let dir = std::env::temp_dir().join(format!("mphpc_frame_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.csv");
        let small = sample();
        let big = frame_of([
            ("app", Column::from_strs(&vec!["padded-row"; 2000])),
            (
                "t",
                Column::F64((0..2000).map(|i| i as f64 * 0.5).collect()),
            ),
        ]);
        let (small_csv, big_csv) = (write_csv_string(&small), write_csv_string(&big));
        small.write_csv(&path).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut seen = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        assert!(
                            text == small_csv || text == big_csv,
                            "torn CSV read of {} bytes",
                            text.len()
                        );
                        seen += 1;
                    }
                }
                seen
            });
            for i in 0..100 {
                let frame = if i % 2 == 0 { &big } else { &small };
                frame.write_csv(&path).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0);
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crlf_handled() {
        let f = read_csv_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(f.shape(), (1, 2));
    }
}
