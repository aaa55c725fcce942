//! End-to-end protocol smoke: every route, the error statuses, and a
//! full graceful shutdown over HTTP.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{scale_loader, ScaleModel};
use mphpc_serve::client::request_once;
use mphpc_serve::json::JsonValue;
use mphpc_serve::{serve, ServeConfig};

#[test]
fn routes_statuses_and_graceful_shutdown() {
    let registry = common::registry_with(ScaleModel { factor: 2.0 }, scale_loader());
    let handle = serve(ServeConfig::default(), registry).expect("server starts");
    let addr = handle.addr().to_string();
    let t = Duration::from_secs(10);
    let req = |method: &str, path: &str, body: &str| {
        request_once(&addr, method, path, body, t).expect("request completes")
    };

    let resp = req("GET", "/healthz", "");
    assert_eq!(
        (resp.status, resp.text().as_str()),
        (200, "{\"status\":\"ok\"}")
    );

    let resp = req("GET", "/models", "");
    assert_eq!(resp.status, 200);
    let listing = JsonValue::parse(&resp.text()).expect("valid listing");
    let models = listing.get("models").and_then(JsonValue::as_array).unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(
        models[0].get("name").and_then(JsonValue::as_str),
        Some("default")
    );
    assert_eq!(
        models[0].get("kind").and_then(JsonValue::as_str),
        Some("scale")
    );
    assert_eq!(
        models[0].get("n_features").and_then(JsonValue::as_f64),
        Some(3.0)
    );

    // The happy path, with the version tag and batch size visible.
    let resp = req("POST", "/predict", r#"{"features":[1, 2, 3]}"#);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = JsonValue::parse(&resp.text()).unwrap();
    assert_eq!(
        body.get("model").and_then(JsonValue::as_str),
        Some("default@v1")
    );
    let outputs: Vec<f64> = body
        .get("outputs")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(outputs, [2.0, 4.0, 6.0]);

    // Client errors: each must name the problem and not kill the server.
    for (method, path, body, want) in [
        ("POST", "/predict", r#"{"features":[1,2]}"#, 400), // wrong arity
        ("POST", "/predict", r#"{"features":[1,2,"x"]}"#, 400), // non-numeric
        ("POST", "/predict", "not json", 400),
        (
            "POST",
            "/predict",
            r#"{"model":"nope","features":[1,2,3]}"#,
            404,
        ),
        ("POST", "/models/bad!name", "1", 400), // bad model name
        ("POST", "/models/default", "not a number", 400), // loader reject
        ("GET", "/nope", "", 404),
        ("DELETE", "/predict", "", 405),
    ] {
        let resp = req(method, path, body);
        assert_eq!(resp.status, want, "{method} {path}: {}", resp.text());
        assert!(resp.text().contains("\"error\""), "{method} {path}");
    }
    // The failed upload must not have bumped the version.
    let resp = req("POST", "/predict", r#"{"features":[1,2,3]}"#);
    assert!(resp.text().contains("default@v1"), "{}", resp.text());

    // Malformed HTTP gets a 400 and a closed connection.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).expect("read until close");
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");

    // A hot swap over HTTP changes the served outputs.
    let resp = req("POST", "/models/default", "10");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let resp = req("POST", "/predict", r#"{"features":[1,2,3]}"#);
    assert!(resp.text().contains("default@v2"), "{}", resp.text());
    assert!(resp.text().contains("[10,20,30]"), "{}", resp.text());

    // Graceful shutdown over HTTP: acknowledged, then the listener goes
    // away and join returns sane final counters.
    let resp = req("POST", "/shutdown", "");
    assert_eq!(
        (resp.status, resp.text().as_str()),
        (200, "{\"status\":\"draining\"}")
    );
    let stats = handle.join();
    assert!(stats.ok >= 5, "stats: {}", stats.render());
    assert!(stats.client_errors >= 8, "stats: {}", stats.render());
    assert_eq!(stats.failed, 0, "stats: {}", stats.render());
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener must be closed after join"
    );
}

#[test]
fn loadgen_prints_a_row_per_client_count_and_enforces_min_ok() {
    let registry = common::registry_with(ScaleModel { factor: 2.0 }, scale_loader());
    let handle = serve(ServeConfig::default(), registry).expect("server starts");
    let addr = handle.addr().to_string();
    let loadgen = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_mphpc_loadgen"))
            .args(["--addr", &addr, "--duration-ms", "300"])
            .args(extra)
            .output()
            .expect("loadgen runs")
    };

    let run = loadgen(&["--clients", "2,4", "--expect-min-ok", "1"]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // Two header lines, then one row per client count: connections,
    // keepalive, rps, p50, p99, ok, rejected, errors, mean batch rows.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(2)
        .map(|line| line.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    for (row, n) in rows.iter().zip(["2", "4"]) {
        assert_eq!((row.len(), row[0], row[1]), (9, n, "true"), "{stdout}");
        let count = |i: usize| row[i].parse::<u64>().expect("a count");
        assert!(count(5) >= 1, "ok: {stdout}");
        assert_eq!((count(6), count(7)), (0, 0), "rejected, errors: {stdout}");
        assert!(row[8].parse::<f64>().expect("a mean") >= 1.0, "{stdout}");
    }

    // Short of --expect-min-ok is exit 1, after the shutdown it was asked
    // to post: `join` below returns because the server got it.
    let run = loadgen(&["--clients", "2", "--expect-min-ok", "1000000", "--shutdown"]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("expected at least 1000000"), "{stderr}");
    handle.join();
}
