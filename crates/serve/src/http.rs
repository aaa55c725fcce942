//! The HTTP/1.1 subset the server speaks: an incremental zero-copy
//! request-head parser and response rendering into reusable buffers.
//!
//! Scope is deliberately narrow — `Content-Length` bodies only (no
//! chunked transfer), no multiline headers, bounded head size. The
//! parser is *restartable*: [`parse_head`] is a pure function over the
//! unparsed prefix of a connection's read buffer, returning
//! [`Parse::Incomplete`] until a full head (terminated by an empty
//! line) is buffered. It allocates nothing on success — the method and
//! path are `&str` slices into the caller's buffer, and the only
//! headers the server acts on (`content-length`, `connection`) are
//! folded into scalar fields during the scan. Callers re-invoke it as
//! bytes arrive; requests split at arbitrary byte boundaries across
//! reads parse identically to a single contiguous read (the
//! conformance suite in `tests/parser_conformance.rs` proves this at
//! every boundary).
//!
//! Responses render with [`render_response`] straight into a caller
//! buffer — no intermediate `String` — in the exact wire format the
//! original blocking server produced (asserted by a unit test against
//! the legacy format string).

use std::io::Write;

/// Upper bound on the request line plus all header lines.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request head. Borrows from the buffer handed to
/// [`parse_head`]; the body is the `content_length` bytes following
/// `head_len`.
#[derive(Debug, Clone, Copy)]
pub struct ReqHead<'a> {
    /// Method exactly as sent (route matching is case-insensitive).
    pub method: &'a str,
    /// Path component of the target, without the query string.
    pub path: &'a str,
    /// Bytes consumed by the head: leading stray CRLFs, the request
    /// line, every header line, and the terminating empty line.
    pub head_len: usize,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// True when the client sent `Connection: close`.
    pub wants_close: bool,
}

/// A request the connection must answer with an error and then close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// `400` for protocol violations, `431` for an oversized head.
    pub status: u16,
    /// Human-readable reason (error path — may allocate).
    pub msg: String,
}

/// Outcome of scanning the unparsed prefix of a connection buffer.
#[derive(Debug)]
pub enum Parse<'a> {
    /// No complete head yet — read more bytes and retry.
    Incomplete,
    /// A complete head. The caller owns consuming
    /// `head_len + content_length` bytes (waiting for the body to
    /// arrive if necessary).
    Head(ReqHead<'a>),
    /// The bytes violate the supported protocol subset; answer
    /// `BadRequest::status` and close.
    Bad(BadRequest),
}

fn bad(status: u16, msg: String) -> Parse<'static> {
    Parse::Bad(BadRequest { status, msg })
}

/// Scan `buf` for one complete request head.
///
/// Zero-allocation on the [`Parse::Incomplete`] and [`Parse::Head`]
/// paths; only the error path formats a message. `max_head` bounds the
/// head (431 beyond it). Body length is *not* bounded here — the
/// caller checks `content_length` against its own body limit so the
/// error can name it.
pub fn parse_head(buf: &[u8], max_head: usize) -> Parse<'_> {
    let mut cursor = 0;
    // Tolerate stray blank lines between pipelined requests (the old
    // blocking parser accepted one; accepting any run is a superset).
    while cursor < buf.len() && (buf[cursor] == b'\r' || buf[cursor] == b'\n') {
        cursor += 1;
    }

    let mut method = "";
    let mut path = "";
    let mut in_request_line = true;
    let mut content_length = 0usize;
    let mut saw_content_length = false;
    let mut wants_close = false;

    loop {
        let Some(nl) = buf[cursor..].iter().position(|&b| b == b'\n') else {
            return if buf.len() > max_head {
                bad(431, format!("request head exceeds {max_head} bytes"))
            } else {
                Parse::Incomplete
            };
        };
        let mut line = &buf[cursor..cursor + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        cursor += nl + 1;
        if cursor > max_head {
            return bad(431, format!("request head exceeds {max_head} bytes"));
        }

        let Ok(line) = std::str::from_utf8(line) else {
            return bad(400, "non-utf8 request head".to_string());
        };

        if in_request_line {
            let mut parts = line.split(' ');
            method = parts.next().unwrap_or("");
            let target = parts.next().unwrap_or("");
            let version = parts.next().unwrap_or("");
            if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
                return bad(400, format!("bad request line {line:?}"));
            }
            path = target.split('?').next().unwrap_or("");
            in_request_line = false;
            continue;
        }

        if line.is_empty() {
            return Parse::Head(ReqHead {
                method,
                path,
                head_len: cursor,
                content_length,
                wants_close,
            });
        }

        let Some((name, value)) = line.split_once(':') else {
            return bad(400, format!("bad header line {line:?}"));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // First declaration wins, matching the legacy parser's
            // `find` over the header list.
            if !saw_content_length {
                saw_content_length = true;
                content_length = match value.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => return bad(400, format!("bad content-length {value:?}")),
                };
            }
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            wants_close = true;
        }
    }
}

/// Append a complete response (status line, standard + extra headers,
/// body) to `out` without intermediate allocation.
///
/// The wire format is byte-identical to the original blocking server:
/// lowercase header names, `content-type`/`content-length`/`connection`
/// in that order, extras after.
pub fn render_response(
    out: &mut Vec<u8>,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    let reason = reason_phrase(status);
    // `write!` into a Vec<u8> formats integers on the stack — no heap
    // traffic (the hot-path allocation test pins this down).
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(raw: &[u8]) -> ReqHead<'_> {
        match parse_head(raw, MAX_HEAD_BYTES) {
            Parse::Head(h) => h,
            other => panic!("expected head, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body_and_pipelined_tail() {
        let raw = b"POST /predict?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\nbodyGET";
        let h = head(raw);
        assert_eq!(h.method, "POST");
        assert_eq!(h.path, "/predict");
        assert_eq!(h.content_length, 4);
        assert!(!h.wants_close);
        // The body and the next request's bytes follow the head.
        let body = &raw[h.head_len..h.head_len + h.content_length];
        assert_eq!(body, b"body");
        assert_eq!(&raw[h.head_len + h.content_length..], b"GET");
    }

    #[test]
    fn parses_get_and_detects_close() {
        let h = head(b"GET /models HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(h.method, "GET");
        assert_eq!(h.content_length, 0);
        assert!(h.wants_close);
        // Case-insensitive header handling.
        let h = head(b"GET / HTTP/1.1\r\nCONNECTION: Close\r\nCONTENT-LENGTH: 2\r\n\r\n");
        assert!(h.wants_close);
        assert_eq!(h.content_length, 2);
    }

    #[test]
    fn every_proper_prefix_is_incomplete() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 3\r\n\r\n";
        for n in 0..raw.len() {
            assert!(
                matches!(parse_head(&raw[..n], MAX_HEAD_BYTES), Parse::Incomplete),
                "prefix of {n} bytes must be incomplete"
            );
        }
        assert!(matches!(
            parse_head(raw, MAX_HEAD_BYTES),
            Parse::Head(ReqHead {
                content_length: 3,
                ..
            })
        ));
    }

    #[test]
    fn tolerates_stray_crlf_between_requests() {
        let h = head(b"\r\nGET / HTTP/1.1\r\n\r\n");
        assert_eq!(h.method, "GET");
        assert_eq!(h.head_len, 2 + 16 + 2);
    }

    #[test]
    fn rejects_protocol_violations_with_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: zoo\r\n\r\n",
            b"GET \xff\xfe HTTP/1.1\r\n\r\n",
        ] {
            match parse_head(raw, MAX_HEAD_BYTES) {
                Parse::Bad(b) => assert_eq!(b.status, 400, "raw={raw:?}"),
                other => panic!("expected Bad for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_head_is_431() {
        // Terminated but over the limit.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("x-pad: {}\r\n\r\n", "y".repeat(64)).as_bytes());
        match parse_head(&raw, 32) {
            Parse::Bad(b) => assert_eq!(b.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
        // Unterminated and already over the limit: must not wait for
        // more bytes (slowloris containment).
        let raw = vec![b'A'; 64];
        match parse_head(&raw, 32) {
            Parse::Bad(b) => assert_eq!(b.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn response_wire_format_matches_legacy() {
        let mut out = Vec::new();
        render_response(&mut out, 503, &[("retry-after", "1")], b"{}", true);
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        // Byte-for-byte parity with the legacy format-string builder
        // the thread-per-connection server used.
        let legacy = format!(
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\nretry-after: 1\r\n\r\n{{}}"
        );
        assert_eq!(out, legacy.as_bytes());
    }
}
