//! The shadow / canary-promote battery (ISSUE 9, satellites 2 & 5).
//!
//! * **Purity**: with a shadow attached the live `/predict` response
//!   bytes are bit-identical to the shadow-off bytes — proven by
//!   capturing raw wire bytes for the same request sequence in all
//!   three states (before, during, after), while the shadow report
//!   confirms traffic really was mirrored (purity is not vacuous).
//! * **Canary promote**: `POST /promote/<name>` installs exactly the
//!   shadowed candidate; under concurrent predict load every response
//!   stays version-consistent (factor == tagged version — a torn read
//!   is arithmetically visible).
//! * **Rollback**: walks back through the bounded retention history and
//!   409s when it runs dry.
//! * **Eviction safety**: a request in flight on a version that gets
//!   evicted from the retention window still completes on that version.

mod common;

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use common::{scale_loader, ScaleModel, SlowModel};
use mphpc_serve::client::{request_once, ClientConn};
use mphpc_serve::json::JsonValue;
use mphpc_serve::{serve, ServeConfig, ServerHandle};

const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn start_server() -> ServerHandle {
    serve(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        common::registry_with(ScaleModel { factor: 1.0 }, scale_loader()),
    )
    .expect("server starts")
}

/// One request on a fresh close-delimited connection, returning the
/// complete raw response bytes (status line, headers, body).
fn raw_request(addr: &str, method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read to eof");
    bytes
}

/// The fixed probe sequence whose wire bytes must not depend on shadow
/// state. Sequential single connections keep batching deterministic
/// (every batch is one row).
fn capture_predicts(addr: &str) -> Vec<Vec<u8>> {
    let mut bodies: Vec<String> = (0..12)
        .map(|i| format!("{{\"features\":[{}.0,{}.5,-3.25]}}", i, i % 4))
        .collect();
    // Multi-row traffic is mirrored row for row like any other.
    bodies.push("{\"rows\":[[1,2,3],[4,5,6],[7,8,9],[10,11,12],[-1,-2,-3]]}".to_string());
    bodies
        .iter()
        .map(|body| raw_request(addr, "POST", "/predict", body))
        .collect()
}

/// Rows [`capture_predicts`] sends: twelve one-row requests and one of
/// five rows.
const PROBE_ROWS: u64 = 12 + 5;

fn shadow_rows(addr: &str) -> u64 {
    let resp = request_once(addr, "GET", "/shadow", "", IO_TIMEOUT).expect("GET /shadow");
    assert_eq!(resp.status, 200);
    JsonValue::parse(&resp.text())
        .expect("valid shadow body")
        .get("shadow")
        .and_then(|s| s.get("rows"))
        .and_then(JsonValue::as_f64)
        .map_or(0, |v| v as u64)
}

fn wait_for_shadow_rows(addr: &str, min_rows: u64) {
    let t0 = Instant::now();
    while shadow_rows(addr) < min_rows {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shadow never mirrored {min_rows} rows"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn shadow_leaves_live_response_bytes_bit_identical() {
    let handle = start_server();
    let addr = handle.addr().to_string();

    let before = capture_predicts(&addr);

    // Attach a *diverging* candidate (factor 7 vs live 1), so any leak
    // of candidate outputs into the live path would change bytes.
    let resp = request_once(&addr, "POST", "/shadow/default", "7.0", IO_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let during = capture_predicts(&addr);
    // The shadow really scored the mirrored traffic: purity is proven
    // against an *active* shadow, not an idle one.
    wait_for_shadow_rows(&addr, PROBE_ROWS);
    let report = request_once(&addr, "POST", "/shadow/default/drop", "", IO_TIMEOUT).unwrap();
    assert_eq!(report.status, 200, "{}", report.text());
    let parsed = JsonValue::parse(&report.text()).unwrap();
    let dropped = parsed.get("dropped").expect("final report");
    assert_eq!(dropped.get("errors").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(
        dropped.get("rows").and_then(JsonValue::as_f64),
        Some(PROBE_ROWS as f64),
        "every row of the multi-row request counts"
    );
    // |7x − x| averaged over the probe rows is nonzero: the candidate
    // diverged, yet (below) the live bytes did not.
    let mean = dropped
        .get("mean_abs_divergence")
        .and_then(JsonValue::as_array)
        .expect("divergence vector");
    assert_eq!(mean.len(), 3);
    assert!(mean.iter().all(|v| v.as_f64().unwrap() > 0.0));

    let after = capture_predicts(&addr);

    assert_eq!(before, during, "shadow-on bytes differ from shadow-off");
    assert_eq!(before, after, "detaching the shadow changed live bytes");

    handle.shutdown();
    handle.join();
}

#[test]
fn promote_installs_the_shadowed_candidate_without_torn_reads() {
    let handle = start_server();
    let addr = handle.addr().to_string();

    let stop = AtomicBool::new(false);
    let newest = AtomicU64::new(0);
    let seen = thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let addr = &addr;
                let stop = &stop;
                let newest = &newest;
                scope.spawn(move || {
                    let mut conn = ClientConn::connect(addr, IO_TIMEOUT).expect("connect");
                    let mut versions = BTreeSet::new();
                    while !stop.load(Ordering::Acquire) {
                        let resp = conn
                            .request("POST", "/predict", r#"{"features":[1,2,3]}"#)
                            .expect("request");
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        let parsed = JsonValue::parse(&resp.text()).unwrap();
                        let tag = parsed.get("model").and_then(JsonValue::as_str).unwrap();
                        let version: u64 = tag
                            .strip_prefix("default@v")
                            .expect("tag format")
                            .parse()
                            .unwrap();
                        // Factor == version: any mix of one version's
                        // outputs with another's tag breaks this.
                        let outputs: Vec<f64> = parsed
                            .get("outputs")
                            .and_then(JsonValue::as_array)
                            .unwrap()
                            .iter()
                            .map(|v| v.as_f64().unwrap())
                            .collect();
                        let want: Vec<f64> =
                            [1.0, 2.0, 3.0].iter().map(|x| x * version as f64).collect();
                        assert_eq!(outputs, want, "torn read at {tag}");
                        versions.insert(version);
                        newest.fetch_max(version, Ordering::Relaxed);
                    }
                    versions
                })
            })
            .collect();

        // Two canary cycles under load: shadow → mirrored traffic →
        // promote. Each promoted factor equals its registry version.
        for factor in [2.0, 3.0] {
            let body = format!("{factor}");
            let resp = request_once(&addr, "POST", "/shadow/default", &body, IO_TIMEOUT).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
            wait_for_shadow_rows(&addr, 8);
            let resp = request_once(&addr, "POST", "/promote/default", "", IO_TIMEOUT).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
            let parsed = JsonValue::parse(&resp.text()).unwrap();
            assert_eq!(
                parsed.get("version").and_then(JsonValue::as_f64),
                Some(factor),
                "promoted version must match the staged factor"
            );
            // The response carries the shadow's final report.
            assert!(parsed.get("shadow").and_then(|s| s.get("rows")).is_some());
        }

        // A request enqueued before the last promote is still answered by
        // v2, so keep the load running until one issued after it returns.
        let deadline = Instant::now() + IO_TIMEOUT;
        while newest.load(Ordering::Relaxed) < 3 && Instant::now() < deadline {
            thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let mut seen = BTreeSet::new();
        for client in clients {
            seen.extend(client.join().expect("client thread"));
        }
        seen
    });

    assert!(seen.contains(&1), "load started before the first promote");
    assert!(
        seen.contains(&3),
        "load must observe the final promoted version, saw {seen:?}"
    );

    // Promote with nothing staged is refused.
    let resp = request_once(&addr, "POST", "/promote/default", "", IO_TIMEOUT).unwrap();
    assert_eq!(resp.status, 409);

    handle.shutdown();
    handle.join();
}

#[test]
fn rollback_walks_history_and_runs_dry() {
    let handle = start_server();
    let addr = handle.addr().to_string();
    let predict = |addr: &str| -> (u64, Vec<f64>) {
        let resp = request_once(
            addr,
            "POST",
            "/predict",
            r#"{"features":[1,1,1]}"#,
            IO_TIMEOUT,
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let parsed = JsonValue::parse(&resp.text()).unwrap();
        let version = parsed
            .get("model")
            .and_then(JsonValue::as_str)
            .unwrap()
            .strip_prefix("default@v")
            .unwrap()
            .parse()
            .unwrap();
        let outputs = parsed
            .get("outputs")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        (version, outputs)
    };

    // v1 factor 1 → upload v2 factor 2 → v3 factor 3.
    for factor in ["2.0", "3.0"] {
        let resp = request_once(&addr, "POST", "/models/default", factor, IO_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
    }
    assert_eq!(predict(&addr), (3, vec![3.0, 3.0, 3.0]));

    // Roll back twice: v4 behaves like factor 2, v5 like factor 1.
    let resp = request_once(&addr, "POST", "/rollback/default", "", IO_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(predict(&addr), (4, vec![2.0, 2.0, 2.0]));
    let resp = request_once(&addr, "POST", "/rollback/default", "", IO_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(predict(&addr), (5, vec![1.0, 1.0, 1.0]));

    // History is dry (the rolled-back-from versions are not retained —
    // no ping-pong back to the bad model).
    let resp = request_once(&addr, "POST", "/rollback/default", "", IO_TIMEOUT).unwrap();
    assert_eq!(resp.status, 409, "{}", resp.text());
    let resp = request_once(&addr, "POST", "/rollback/missing", "", IO_TIMEOUT).unwrap();
    assert_eq!(resp.status, 409);

    handle.shutdown();
    handle.join();
}

#[test]
fn inflight_request_survives_retention_eviction() {
    // A slow v1 request stays in flight while uploads push v1 out of
    // the bounded retention window; the response must still come from
    // v1, computed correctly.
    let handle = serve(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        common::registry_with(
            SlowModel {
                delay: Duration::from_millis(400),
            },
            scale_loader(),
        ),
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    let slow = thread::spawn({
        let addr = addr.clone();
        move || {
            request_once(
                &addr,
                "POST",
                "/predict",
                r#"{"features":[4,5]}"#,
                IO_TIMEOUT,
            )
            .expect("slow request completes")
        }
    });
    // Let the slow request reach the model, then evict v1: five uploads
    // leave retention (4) holding v2..v6 — v1 is gone from the registry.
    thread::sleep(Duration::from_millis(100));
    for factor in ["2.0", "3.0", "4.0", "5.0", "6.0"] {
        let resp = request_once(&addr, "POST", "/models/default", factor, IO_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = slow.join().expect("slow thread");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let parsed = JsonValue::parse(&resp.text()).unwrap();
    assert_eq!(
        parsed.get("model").and_then(JsonValue::as_str),
        Some("default@v1"),
        "in-flight request must finish on the version it resolved"
    );
    assert_eq!(
        parsed
            .get("outputs")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect::<Vec<_>>(),
        [9.0],
        "evicted model must still compute correctly"
    );

    handle.shutdown();
    handle.join();
}
