//! A minimal blocking HTTP/1.1 client for the load generator, the
//! federated scheduler, the CI smoke step, and the integration tests.
//!
//! One [`ClientConn`] holds one keep-alive connection and issues
//! requests serially ([`ClientConn::request`], the closed-loop shape
//! the load generator measures) or pipelined ([`ClientConn::send`] /
//! [`ClientConn::recv`]). A response is bounded the way the server bounds
//! a request — [`http::MAX_HEAD_BYTES`] of head, [`http::DEFAULT_MAX_BODY`]
//! of body — so a garbled or
//! hostile peer is an `InvalidData` error the caller's fallback handles,
//! never an allocation it dictates.
//! [`PredictRequest`] writes the `/predict` bodies [`crate::json`] reads:
//! the wire format lives in this crate on both sides of the socket.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{self, DEFAULT_MAX_BODY};
use crate::json;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header list in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The body of a `rows`-form `POST /predict` for one model, rebuilt in
/// place for every request: `{"model":"m","rows":[[n,...],...]}`.
pub struct PredictRequest {
    body: String,
    /// Length of the `{"model":"m","rows":[` head every body starts with.
    head: usize,
}

impl PredictRequest {
    /// Bodies addressed to `model`. The name is caller input and is
    /// escaped (once, here): a `"` or `\` in it still reaches the server
    /// as the name it is.
    pub fn new(model: &str) -> PredictRequest {
        let body = format!("{{\"model\":{},\"rows\":[", json::json_str(model));
        PredictRequest {
            head: body.len(),
            body,
        }
    }

    /// The body asking for `rows`, valid until the next call. `{}` is
    /// shortest-roundtrip for `f64`: the server's parse recovers the exact
    /// bits, which keeps federated schedules identical to local ones.
    pub fn write(&mut self, rows: &[&[f64]]) -> &str {
        self.body.truncate(self.head);
        for (r, row) in rows.iter().enumerate() {
            self.body.push_str(if r > 0 { ",[" } else { "[" });
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    self.body.push(',');
                }
                let _ = write!(self.body, "{v}");
            }
            self.body.push(']');
        }
        self.body.push_str("]}");
        &self.body
    }
}

/// A keep-alive connection to the server.
pub struct ClientConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused head + body of the request being written.
    wbuf: Vec<u8>,
}

impl ClientConn {
    /// Connect with a read/write timeout (applied to every request).
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ClientConn {
            reader: BufReader::new(stream),
            writer,
            wbuf: Vec::new(),
        })
    }

    /// Issue one request and read the response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Write one request without reading its response. Pair each `send`
    /// with a later [`recv`](Self::recv) — the server answers pipelined
    /// requests strictly in order.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        // Head and body leave in one write: on this `TCP_NODELAY` socket
        // two writes are two segments and up to two server wake-ups.
        self.wbuf.clear();
        write!(
            self.wbuf,
            "{method} {path} HTTP/1.1\r\nhost: mphpc\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.write_all(&self.wbuf)
    }

    /// Read the next in-order response for a previously sent request.
    pub fn recv(&mut self) -> io::Result<Response> {
        read_response(&mut self.reader)
    }
}

/// Connect, issue one request, and close (for one-shot callers).
pub fn request_once(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<Response> {
    ClientConn::connect(addr, timeout)?.request(method, path, body)
}

fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut head_left = http::MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut head_left)?;
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("bad status line {status_line:?}")));
    }
    let status: u16 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| bad(format!("bad status line {status_line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_left)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| bad("bad content-length".to_string()))?
        .unwrap_or(0);
    // The peer's word is not an allocation size until it is bounded.
    if content_length > DEFAULT_MAX_BODY {
        return Err(bad(format!(
            "content-length {content_length} over the {DEFAULT_MAX_BODY}-byte cap"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One line of the response head, which may be at most `head_left` bytes
/// long (the budget is shared by the status line and every header).
fn read_line<R: BufRead>(reader: &mut R, head_left: &mut usize) -> io::Result<String> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(*head_left as u64)
        .read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') && n == *head_left {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response head over {} bytes", http::MAX_HEAD_BYTES),
        ));
    }
    if n == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    *head_left -= n;
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response head"))
}
