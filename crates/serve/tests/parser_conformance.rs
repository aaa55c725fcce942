//! Parser conformance over real sockets: the incremental parser must
//! produce the same response no matter how the request bytes are
//! chunked, answer pipelined requests strictly in order (also more of
//! them than the pipeline holds), answer every `/predict` body, in
//! either form, with the status and the bytes pinned here,
//! reject malformed and oversized input with `400`/`431` and a close,
//! and never panic — a deterministic byte-mutation fuzz drives the last
//! point.

mod common;

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use common::{scale_loader, ScaleModel};
use mphpc_serve::{serve, ServeConfig, ServerHandle};

const GOOD_BODY: &str = "{\"features\":[1.5,2,3.2]}";

/// Expected 200 body for GOOD_BODY against `ScaleModel { factor: 1.0 }`
/// riding alone in its batch.
const GOOD_RESPONSE_BODY: &str =
    "{\"model\":\"default@v1\",\"batch_rows\":1,\"outputs\":[1.5,2,3.2]}";

fn predict_request(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn good_request() -> Vec<u8> {
    predict_request(GOOD_BODY)
}

fn start_server(cfg: ServeConfig) -> ServerHandle {
    let registry = common::registry_with(ScaleModel { factor: 1.0 }, scale_loader());
    serve(cfg, registry).expect("server starts")
}

/// A raw connection that can write arbitrary byte slices (including
/// partial requests) and read back whole responses.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct RawResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl RawConn {
    fn connect(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        RawConn {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    fn read_response(&mut self) -> io::Result<RawResponse> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (k, v) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(RawResponse {
            status,
            headers,
            body,
        })
    }

    /// True once the server has closed its end.
    fn at_eof(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.reader.read(&mut byte), Ok(0))
    }
}

#[test]
fn every_split_point_yields_the_same_response() {
    let handle = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let req = good_request();

    // One keep-alive connection; each request arrives in two writes with
    // a pause between them, exercising parser resume at every byte
    // boundary (0 = everything in the second write).
    let mut conn = RawConn::connect(&addr);
    for split in 0..=req.len() {
        conn.write(&req[..split]).expect("first half");
        if split != 0 && split != req.len() {
            thread::sleep(Duration::from_millis(1));
        }
        conn.write(&req[split..]).expect("second half");
        let resp = conn.read_response().expect("response after split");
        assert_eq!(resp.status, 200, "split at byte {split}");
        assert_eq!(
            String::from_utf8_lossy(&resp.body),
            GOOD_RESPONSE_BODY,
            "split at byte {split} corrupted the response"
        );
    }

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.ok, (req.len() + 1) as u64);
    assert_eq!(stats.client_errors, 0);
}

#[test]
fn pipelined_requests_in_one_write_answer_in_order() {
    let handle = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    // Eight distinguishable requests in a single write: the responses
    // must come back in submission order, each with its own outputs.
    let n = 8usize;
    let mut burst = Vec::new();
    for i in 0..n {
        let body = format!("{{\"features\":[{i},0,1]}}");
        write!(
            burst,
            "POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
    }
    let mut conn = RawConn::connect(&addr);
    conn.write(&burst).expect("pipelined burst");
    for i in 0..n {
        let resp = conn.read_response().expect("pipelined response");
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(
            text.contains(&format!("\"outputs\":[{i},0,1]")),
            "response {i} out of order or corrupted: {text}"
        );
    }

    // Mixed-route pipelining keeps order too: predict, stats, predict.
    let mut burst = Vec::new();
    burst.extend_from_slice(&good_request());
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: mphpc\r\ncontent-length: 0\r\n\r\n");
    burst.extend_from_slice(&good_request());
    conn.write(&burst).expect("mixed burst");
    let first = conn.read_response().expect("first");
    let second = conn.read_response().expect("second");
    let third = conn.read_response().expect("third");
    // The two predicts may ride one batch, so batch_rows varies; the
    // model tag and outputs must not.
    for (i, resp) in [&first, &third].into_iter().enumerate() {
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(
            text.starts_with("{\"model\":\"default@v1\",")
                && text.ends_with(",\"outputs\":[1.5,2,3.2]}"),
            "predict {i} corrupted: {text}"
        );
    }
    assert_eq!(String::from_utf8_lossy(&second.body), "{\"status\":\"ok\"}");

    handle.shutdown();
    handle.join();
}

#[test]
fn more_pipelined_requests_than_the_pipeline_holds_are_all_answered() {
    let handle = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let depth = ServeConfig::default().max_pipeline;

    // One small write, so one read buffers everything: the server parses
    // a pipeline's worth, answers it, and must then go on to the requests
    // still in its buffer without waiting for an event that never comes.
    let n = 2 * depth + 6;
    let burst = b"GET /healthz HTTP/1.1\r\nhost: mphpc\r\n\r\n".repeat(n);
    assert!(burst.len() < 4096, "must fit the initial read buffer");
    let mut conn = RawConn::connect(&addr);
    conn.write(&burst).expect("burst");
    for i in 0..n {
        let resp = conn
            .read_response()
            .unwrap_or_else(|e| panic!("response {i} of {n}: {e}"));
        assert_eq!(String::from_utf8_lossy(&resp.body), "{\"status\":\"ok\"}");
    }

    // The same with predictions, one-row and multi-row interleaved: the
    // batcher completes them in whatever groups it likes, the wire keeps
    // request order, and each form keeps its reply shape.
    let mut burst = Vec::new();
    for i in 0..n {
        burst.extend(predict_request(&if i % 2 == 0 {
            format!("{{\"features\":[{i},0,1]}}")
        } else {
            format!("{{\"rows\":[[{i},0,1],[{i},1,2]]}}")
        }));
    }
    conn.write(&burst).expect("predict burst");
    for i in 0..n {
        let resp = conn
            .read_response()
            .unwrap_or_else(|e| panic!("predict response {i} of {n}: {e}"));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        let want = if i % 2 == 0 {
            format!("\"outputs\":[{i},0,1]}}")
        } else {
            format!("\"outputs\":[[{i},0,1],[{i},1,2]]}}")
        };
        assert!(
            text.ends_with(&want),
            "response {i} out of order or corrupted: {text}"
        );
    }

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.ok, 2 * n as u64);
}

#[test]
fn every_predict_body_gets_its_pinned_answer() {
    let handle = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let max_batch = ServeConfig::default().batch.max_batch;
    let full_batch = vec!["[1,2,3]"; max_batch].join(",");

    let ok = |batch_rows: usize, outputs: &str| {
        (
            200,
            format!(
                "{{\"model\":\"default@v1\",\"batch_rows\":{batch_rows},\"outputs\":{outputs}}}"
            ),
        )
    };
    let error = |status: u16, msg: &str| (status, format!("{{\"error\":\"{msg}\"}}"));
    let cases: Vec<(String, (u16, String))> = vec![
        (
            r#"{"rows":[[1.5,2,3.2],[4,5e0,-6]]}"#.to_string(),
            ok(2, "[[1.5,2,3.2],[4,5,-6]]"),
        ),
        // One row still answers nested; whitespace and key order are free.
        (
            " { \"rows\" : [ [ 1.5 , 2 ,\t3.2 ] ] ,\n \"model\" : \"default\" } ".to_string(),
            ok(1, "[[1.5,2,3.2]]"),
        ),
        (
            format!("{{\"rows\":[{full_batch}]}}"),
            ok(max_batch, &format!("[{full_batch}]")),
        ),
        (
            format!("{{\"rows\":[{full_batch},[1,2,3]]}}"),
            error(
                400,
                &format!(
                    "{} rows in one request; the limit is {max_batch} (max_batch)",
                    max_batch + 1
                ),
            ),
        ),
        (
            r#"{"rows":[[1,2,3],[4,5]]}"#.to_string(),
            error(400, r#"\"rows\" must all have the same length"#),
        ),
        (
            r#"{"rows":[]}"#.to_string(),
            error(400, r#"\"rows\" must be a non-empty array of rows"#),
        ),
        (
            r#"{"rows":[[]]}"#.to_string(),
            error(400, "model 'default@v1' expects 3 features, got 0"),
        ),
        (
            r#"{"rows":[[1,2],[3,4]]}"#.to_string(),
            error(400, "model 'default@v1' expects 3 features, got 2"),
        ),
        (
            r#"{"rows":[[1,2,3]],"features":[1,2,3]}"#.to_string(),
            error(400, r#"give either \"features\" or \"rows\", not both"#),
        ),
        (
            r#"{"rows":[[1e999,2,3]]}"#.to_string(),
            error(400, r#"\"rows\" must be arrays of finite numbers"#),
        ),
        (
            r#"{"rows":[1,2,3]}"#.to_string(),
            error(400, r#"\"rows\" must be arrays of finite numbers"#),
        ),
        (
            r#"{"model":"nope","rows":[[1,2,3]]}"#.to_string(),
            error(404, "unknown model 'nope'"),
        ),
        // The one-row form.
        (GOOD_BODY.to_string(), ok(1, "[1.5,2,3.2]")),
        (
            " {\t\"model\" : \"default\" , \"features\" : [ 1.5 , 2e0 ,\n3.2 ] } ".to_string(),
            ok(1, "[1.5,2,3.2]"),
        ),
        (
            r#"{"features":[1,2]}"#.to_string(),
            error(400, "model 'default@v1' expects 3 features, got 2"),
        ),
        (
            r#"{"features":[1,"2",3]}"#.to_string(),
            error(400, r#"\"features\" must be finite numbers"#),
        ),
        (
            r#"{"features":[1,2,-1e999]}"#.to_string(),
            error(400, r#"\"features\" must be finite numbers"#),
        ),
        (
            r#"{"features":{"0":1}}"#.to_string(),
            error(400, r#"missing \"features\" array"#),
        ),
        (
            r#"{"model":"default"}"#.to_string(),
            error(400, r#"missing \"features\" array"#),
        ),
        (
            r#"{"model":"nope","features":[1,2,3]}"#.to_string(),
            error(404, "unknown model 'nope'"),
        ),
        // An escaped name is the name it spells.
        (
            r#"{"model":"\u0064efault","features":[1.5,2,3.2]}"#.to_string(),
            ok(1, "[1.5,2,3.2]"),
        ),
        (
            r#"{"model":"\u006eope","rows":[[1,2,3]]}"#.to_string(),
            error(404, "unknown model 'nope'"),
        ),
        // Of a repeated member the first counts, whatever the others hold.
        (
            r#"{"features":[1.5,2,3.2],"features":"x","model":"default","model":"nope"}"#
                .to_string(),
            ok(1, "[1.5,2,3.2]"),
        ),
        (
            r#"{"rows":[[1,2,3]],"rows":[]}"#.to_string(),
            ok(1, "[[1,2,3]]"),
        ),
        // A body that is not JSON is refused in the parser's words, also
        // when the offence is in a member the server has no use for (64
        // arrays may nest in one, not 65) or behind the closing brace.
        (
            format!(
                "{{\"features\":[1.5,2,3.2],\"deep\":{}{}}}",
                "[".repeat(64),
                "]".repeat(64)
            ),
            ok(1, "[1.5,2,3.2]"),
        ),
        (
            format!(
                "{{\"features\":[1.5,2,3.2],\"deep\":{}{}}}",
                "[".repeat(65),
                "]".repeat(65)
            ),
            error(
                400,
                "serialisation error: json parse error at byte 95: nesting too deep",
            ),
        ),
        (
            r#"{"features":[1.5,2,3.2]} {}"#.to_string(),
            error(
                400,
                "serialisation error: json parse error at byte 25: \
                 trailing characters after JSON value",
            ),
        ),
        (
            r#"{"rows":[[1,2,3],[4,5]],}"#.to_string(),
            error(
                400,
                "serialisation error: json parse error at byte 24: expected '\\\"'",
            ),
        ),
    ];

    let mut conn = RawConn::connect(&addr);
    for (body, want) in &cases {
        // A member the server has no use for changes no answer (it goes
        // last, behind the byte any syntax error above is reported at).
        let (front, back) = body.split_at(body.rfind('}').expect("a closing brace"));
        let padded = format!("{front},\"via\":[\"an unknown member\"]{back}");
        for body in [body, &padded] {
            conn.write(&predict_request(body)).expect("request");
            let resp = conn.read_response().expect("response");
            let got = (
                resp.status,
                String::from_utf8_lossy(&resp.body).into_owned(),
            );
            assert_eq!(&got, want, "for {body}");
        }
    }

    handle.shutdown();
    let stats = handle.join();
    let answered = cases.iter().filter(|(_, want)| want.0 == 200).count();
    assert_eq!(stats.ok, 2 * answered as u64);
    assert_eq!(stats.client_errors, 2 * (cases.len() - answered) as u64);
}

#[test]
fn malformed_and_oversized_input_is_rejected_and_closed() {
    let handle = start_server(ServeConfig {
        shards: 1,
        max_body: 1024,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    // Garbage request line → 400 and close.
    let mut conn = RawConn::connect(&addr);
    conn.write(b"NOT_HTTP_AT_ALL\r\n\r\n").unwrap();
    let resp = conn.read_response().expect("400 response");
    assert_eq!(resp.status, 400);
    assert!(conn.at_eof(), "400 must close the connection");

    // Bad content-length → 400 and close.
    let mut conn = RawConn::connect(&addr);
    conn.write(b"POST /predict HTTP/1.1\r\ncontent-length: banana\r\n\r\n")
        .unwrap();
    assert_eq!(conn.read_response().expect("response").status, 400);
    assert!(conn.at_eof());

    // Declared body over max_body → 400 with the limit in the message,
    // without waiting for the body bytes.
    let mut conn = RawConn::connect(&addr);
    conn.write(b"POST /predict HTTP/1.1\r\ncontent-length: 4096\r\n\r\n")
        .unwrap();
    let resp = conn.read_response().expect("body-limit response");
    assert_eq!(resp.status, 400);
    assert_eq!(
        String::from_utf8_lossy(&resp.body),
        "{\"error\":\"body of 4096 bytes exceeds the 1024-byte limit\"}"
    );
    assert!(conn.at_eof());

    // Head larger than MAX_HEAD_BYTES → 431 and close.
    let mut conn = RawConn::connect(&addr);
    let mut huge = Vec::from(&b"GET /"[..]);
    huge.resize(huge.len() + 20 * 1024, b'x');
    conn.write(&huge).unwrap();
    let resp = conn.read_response().expect("431 response");
    assert_eq!(resp.status, 431);
    let retry_after = resp.headers.iter().find(|(k, _)| k == "connection");
    assert_eq!(
        retry_after.map(|(_, v)| v.as_str()),
        Some("close"),
        "oversized head must advertise connection: close"
    );
    assert!(conn.at_eof());

    // The server is still healthy after all of the above.
    let mut conn = RawConn::connect(&addr);
    conn.write(&good_request()).unwrap();
    assert_eq!(conn.read_response().expect("healthy").status, 200);

    handle.shutdown();
    handle.join();
}

#[test]
fn deterministic_byte_mutation_fuzz_never_hangs_or_kills_the_server() {
    let handle = start_server(ServeConfig {
        shards: 1,
        max_body: 1024,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let req = good_request();

    // Overwrite every position with each probe byte in turn. The
    // mutated request may still be valid (body digits), may be a parse
    // error, or may leave the parser waiting for more bytes — every
    // case must resolve without a hang once the connection closes, and
    // the server must survive all of them.
    let probes: [u8; 5] = [0x00, 0xff, b' ', b'\r', b'\n'];
    let mut outcomes = [0usize; 3]; // [responded, eof, timeout-after-close]
    for pos in 0..req.len() {
        for &probe in &probes {
            if req[pos] == probe {
                continue;
            }
            let mut mutated = req.clone();
            mutated[pos] = probe;
            let mut conn = RawConn::connect(&addr);
            conn.write(&mutated).expect("mutated write");
            // Half-close so a parser left waiting for more body bytes
            // sees EOF instead of a read deadline.
            conn.writer.shutdown(std::net::Shutdown::Write).ok();
            match conn.read_response() {
                Ok(resp) => {
                    assert!(
                        resp.status == 200 || (400..=431).contains(&resp.status),
                        "byte {pos} ← {probe:#04x} produced status {}",
                        resp.status
                    );
                    outcomes[0] += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => outcomes[1] += 1,
                Err(e) => panic!("byte {pos} ← {probe:#04x}: unexpected error {e}"),
            }
        }
    }
    // Sanity: the fuzz actually exercised both families of outcome.
    assert!(outcomes[0] > 0, "no mutation produced a response");

    // The server must still answer a clean request bit-exactly.
    let mut conn = RawConn::connect(&addr);
    conn.write(&req).unwrap();
    let resp = conn.read_response().expect("server survived the fuzz");
    assert_eq!(resp.status, 200);
    assert_eq!(String::from_utf8_lossy(&resp.body), GOOD_RESPONSE_BODY);

    handle.shutdown();
    handle.join();
}
