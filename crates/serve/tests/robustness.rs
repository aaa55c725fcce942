//! Admission-control robustness: a slowloris trickle cannot hold a
//! connection past the read deadline (while a steady pipelined stream,
//! each request prompt, is not mistaken for one), idle keep-alive
//! connections are reaped, the connection cap answers `503` at accept, and a structurally
//! invalid model upload is refused — all while the server keeps serving
//! well-behaved clients.

mod common;

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use common::{scale_loader, ScaleModel};
use mphpc_serve::client::{request_once, ClientConn};
use mphpc_serve::{serve, ServeConfig, ServerHandle};

const BODY: &str = r#"{"features":[1,2,3]}"#;

fn start_server(cfg: ServeConfig) -> ServerHandle {
    let registry = common::registry_with(ScaleModel { factor: 1.0 }, scale_loader());
    serve(cfg, registry).expect("server starts")
}

/// Reads until EOF or `deadline`; returns true if the peer closed.
fn closed_within(stream: &TcpStream, deadline: Duration) -> bool {
    stream.set_read_timeout(Some(deadline)).unwrap();
    let mut reader = BufReader::new(stream);
    let mut sink = [0u8; 512];
    loop {
        match reader.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return false
            }
            // A reset also proves the server dropped us.
            Err(_) => return true,
        }
    }
}

#[test]
fn slowloris_trickle_is_cut_at_the_read_deadline() {
    let handle = start_server(ServeConfig {
        shards: 1,
        read_deadline: Duration::from_millis(150),
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    // Trickle one header byte every 40 ms: each byte resets nothing —
    // the deadline clock starts when the partial request first stalls.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let partial = b"POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-le";
    let started = Instant::now();
    let mut cut = false;
    for chunk in partial.chunks(1) {
        if writer.write_all(chunk).is_err() {
            cut = true;
            break;
        }
        thread::sleep(Duration::from_millis(40));
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
    }
    // Either a write already failed (RST) or the read now sees EOF.
    assert!(
        cut || closed_within(&stream, Duration::from_secs(3)),
        "slowloris connection survived the read deadline"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline enforcement took too long"
    );

    // A well-behaved client is unaffected.
    let resp = request_once(&addr, "POST", "/predict", BODY, Duration::from_secs(5))
        .expect("healthy request");
    assert_eq!(resp.status, 200);

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.ok, 1);
}

#[test]
fn the_read_deadline_is_per_request_not_per_stream() {
    let handle = start_server(ServeConfig {
        shards: 1,
        read_deadline: Duration::from_millis(150),
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    // A pipelining client whose every write ends mid-request (what a
    // stream of multi-row requests looks like to the server's reads):
    // the server always holds a partial request, but never the same one
    // for longer than 40 ms. It must still be served after several
    // deadlines' worth of that.
    let request = format!(
        "POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-length: {}\r\n\r\n{BODY}",
        BODY.len()
    );
    let (front, back) = request.as_bytes().split_at(request.len() / 2);
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let rounds = 15;
    writer.write_all(front).expect("first half");
    for round in 0..rounds {
        thread::sleep(Duration::from_millis(40));
        writer
            .write_all(&[back, front].concat())
            .unwrap_or_else(|e| panic!("the server hung up in round {round}: {e}"));
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert!(
            status.starts_with("HTTP/1.1 200"),
            "round {round}: {status:?}"
        );
        // Skip to the end of this response: headers, blank line, body.
        let mut len = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            if let Some(v) = line.strip_prefix("content-length:") {
                len = v.trim().parse().expect("content-length");
            }
            if line == "\r\n" {
                break;
            }
        }
        io::copy(&mut (&mut reader).take(len), &mut io::sink()).expect("body");
    }

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.ok, rounds);
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let handle = start_server(ServeConfig {
        shards: 1,
        read_deadline: Duration::from_secs(10),
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    // Complete one request, then go idle: the connection must be closed
    // by the idle sweep, not held forever.
    let mut conn = ClientConn::connect(&addr, Duration::from_secs(5)).expect("connect");
    let resp = conn
        .request("POST", "/predict", BODY)
        .expect("first request");
    assert_eq!(resp.status, 200);
    let started = Instant::now();
    assert!(
        conn.recv().is_err(),
        "idle connection must be closed by the server"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle reap took {:?}",
        started.elapsed()
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn connection_cap_answers_503_at_accept_and_recovers() {
    let handle = start_server(ServeConfig {
        shards: 1,
        max_conns: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(5);

    // Two held keep-alive connections fill the cap.
    let mut held1 = ClientConn::connect(&addr, io_timeout).expect("conn 1");
    let mut held2 = ClientConn::connect(&addr, io_timeout).expect("conn 2");
    assert_eq!(held1.request("POST", "/predict", BODY).unwrap().status, 200);
    assert_eq!(held2.request("POST", "/predict", BODY).unwrap().status, 200);

    // The third connection is answered 503 at accept, then closed. The
    // accept happens asynchronously, so the 503 arrives without us
    // sending a single byte.
    let third = TcpStream::connect(&addr).expect("tcp connect succeeds");
    third.set_read_timeout(Some(io_timeout)).unwrap();
    let mut reader = BufReader::new(third.try_clone().unwrap());
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("503 status line");
    assert!(
        status_line.starts_with("HTTP/1.1 503"),
        "expected 503 at accept, got {status_line:?}"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to close");
    assert!(
        rest.contains("{\"error\":\"server is at connection capacity\"}"),
        "cap rejection body missing: {rest:?}"
    );

    // Held connections still work at the cap.
    assert_eq!(held1.request("POST", "/predict", BODY).unwrap().status, 200);

    // Releasing one slot readmits new connections. The slot frees when
    // the server notices the close, so poll briefly.
    drop(held2);
    let deadline = Instant::now() + Duration::from_secs(5);
    let resp = loop {
        match request_once(&addr, "POST", "/predict", BODY, io_timeout) {
            Ok(resp) if resp.status == 200 => break resp,
            Ok(_) | Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
            Ok(resp) => panic!("cap never released: last status {}", resp.status),
            Err(e) => panic!("cap never released: {e}"),
        }
    };
    assert_eq!(resp.status, 200);

    handle.shutdown();
    let stats = handle.join();
    assert!(stats.rejected >= 1, "the 503 must be counted");
    assert_eq!(stats.failed, 0);
}

#[test]
fn structurally_invalid_model_upload_is_refused_and_the_old_model_keeps_serving() {
    use mphpc_core::prelude::*;
    use mphpc_core::serving::{predictor_loader, ServedPredictor};

    let dataset = collect(&CollectionConfig::small(2, 2, 1, 41)).expect("collect");
    let predictor =
        train_predictor(&dataset, ModelKind::Gbt(Default::default()), 1).expect("train");
    let good = predictor.to_json().expect("export");
    // The first tree's root names itself as its left child: lowering such
    // a "tree" unchecked never terminates.
    let cyclic = good.replacen("\"left\":1,", "\"left\":0,", 1);
    assert_ne!(cyclic, good, "the export has a root split to corrupt");

    let registry = common::registry_with(ServedPredictor::new(predictor), predictor_loader());
    let handle = serve(ServeConfig::default(), registry).expect("server starts");
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(10);
    let body = format!("{{\"features\":{:?}}}", [0.5f64; 21]);
    let predict = || {
        let resp = request_once(&addr, "POST", "/predict", &body, io_timeout).expect("predict");
        assert_eq!(resp.status, 200, "{}", resp.text());
        resp.text()
    };
    let before = predict();
    assert!(before.contains("\"model\":\"default@v1\""), "{before}");

    for name in ["default", "x"] {
        let resp = request_once(
            &addr,
            "POST",
            &format!("/models/{name}"),
            &cyclic,
            io_timeout,
        )
        .expect("upload is answered");
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(
            resp.text()
                .contains("tree 0 node 0: left child 0 is reached twice"),
            "{}",
            resp.text()
        );
    }
    assert_eq!(
        predict(),
        before,
        "the refused upload must not change serving"
    );

    // The uncorrupted export still uploads, so it was the cycle that was refused.
    let resp = request_once(&addr, "POST", "/models/default", &good, io_timeout).expect("upload");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(predict().contains("\"model\":\"default@v2\""));

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.failed, 0);
}
