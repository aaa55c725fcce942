//! High fan-in: many concurrent keep-alive connections, every response
//! delivered to the right connection with bit-identical outputs, at
//! 1024 connections on one shard.

mod common;

use std::time::Duration;

use common::{scale_loader, ScaleModel};
use mphpc_serve::client::ClientConn;
use mphpc_serve::json::JsonValue;
use mphpc_serve::{serve, ServeConfig};

/// Drive `n_conns` keep-alive connections for `rounds` rounds. Each
/// round pipelines one request per connection (all sends, then all
/// recvs), so every connection is simultaneously in flight. Connection
/// `i` always sends features `[i, i+0.5, -i]` — a response routed to
/// the wrong connection or torn mid-write fails the bit-exact check.
fn fan_in(n_conns: usize, rounds: usize) {
    let registry = common::registry_with(ScaleModel { factor: 1.0 }, scale_loader());
    let handle = serve(
        ServeConfig {
            shards: 1,
            max_conns: n_conns + 8,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(30);

    let mut conns: Vec<ClientConn> = (0..n_conns)
        .map(|i| {
            ClientConn::connect(&addr, io_timeout)
                .unwrap_or_else(|e| panic!("connection {i} failed: {e}"))
        })
        .collect();

    let bodies: Vec<String> = (0..n_conns)
        .map(|i| format!("{{\"features\":[{i},{i}.5,-{i}]}}", i = i))
        .collect();
    let expected: Vec<String> = (0..n_conns)
        .map(|i| format!("\"outputs\":[{i},{i}.5,-{i}]}}", i = i))
        .collect();

    for round in 0..rounds {
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.send("POST", "/predict", &bodies[i])
                .unwrap_or_else(|e| panic!("round {round} conn {i} send: {e}"));
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let resp = conn
                .recv()
                .unwrap_or_else(|e| panic!("round {round} conn {i} recv: {e}"));
            assert_eq!(resp.status, 200, "round {round} conn {i}: {}", resp.text());
            let text = resp.text();
            assert!(
                text.ends_with(&expected[i]),
                "round {round} conn {i} got another connection's response: {text}"
            );
            // The full body must still be well-formed JSON with the
            // right tag — a cheap corruption tripwire beyond the suffix.
            let parsed = JsonValue::parse(&text).expect("well-formed response body");
            assert_eq!(
                parsed.get("model").and_then(JsonValue::as_str),
                Some("default@v1")
            );
        }
    }

    drop(conns);
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(
        stats.ok,
        (n_conns * rounds) as u64,
        "every request must be answered exactly once"
    );
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0, "no connection may be dropped at the cap");
    assert_eq!(stats.client_errors, 0);
}

#[test]
fn sustains_1024_keep_alive_connections() {
    fan_in(1024, 4);
}
