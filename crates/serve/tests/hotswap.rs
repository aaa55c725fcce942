//! Concurrent hot-swap: hammer `/predict` from 1/2/8 threads, one-row and
//! multi-row requests alternating, while the model is re-uploaded in a
//! loop. Every response must be consistent — the outputs of every row
//! must match the version its tag claims, bit-identically — and nothing
//! may error.

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use common::{scale_loader, ScaleModel};
use mphpc_serve::client::{request_once, ClientConn};
use mphpc_serve::json::JsonValue;
use mphpc_serve::{serve, ServeConfig};

#[test]
fn hot_swap_is_atomic_under_concurrent_load() {
    for threads in [1usize, 2, 8] {
        run_hotswap(threads);
    }
}

const SWAPS: u64 = 8;
const FEATURES: [f64; 3] = [1.0, 2.0, 3.0];

fn run_hotswap(threads: usize) {
    let registry = common::registry_with(ScaleModel { factor: 1.0 }, scale_loader());
    let handle = serve(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(10);

    let stop = AtomicBool::new(false);
    let (total_checked, seen_versions) = thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|_| {
                let addr = &addr;
                let stop = &stop;
                scope.spawn(move || {
                    let mut conn = ClientConn::connect(addr, io_timeout).expect("client connects");
                    let bodies = [
                        r#"{"features":[1,2,3]}"#,
                        r#"{"rows":[[1,2,3],[1,2,3],[1,2,3]]}"#,
                    ];
                    let mut checked = 0u64;
                    let mut versions = BTreeSet::new();
                    while !stop.load(Ordering::Acquire) {
                        let multi_row = checked % 2 == 1;
                        let resp = conn
                            .request("POST", "/predict", bodies[usize::from(multi_row)])
                            .expect("request completes");
                        assert_eq!(resp.status, 200, "unexpected response: {}", resp.text());
                        let parsed = JsonValue::parse(&resp.text()).expect("valid body");
                        let tag = parsed
                            .get("model")
                            .and_then(JsonValue::as_str)
                            .expect("model tag");
                        let version: u64 = tag
                            .strip_prefix("default@v")
                            .expect("tag format")
                            .parse()
                            .expect("numeric version");
                        assert!(
                            (1..=SWAPS).contains(&version),
                            "impossible version in tag {tag}"
                        );
                        // Torn-read check: the factor is the version, so
                        // the outputs must be exactly features × the
                        // tagged version — any mix of versions, within a
                        // row or between the rows of one reply, breaks
                        // the equality bit-for-bit.
                        let outputs = parsed.get("outputs").expect("outputs");
                        let rows: Vec<&JsonValue> = if multi_row {
                            outputs
                                .as_array()
                                .expect("one array per row")
                                .iter()
                                .collect()
                        } else {
                            vec![outputs]
                        };
                        assert_eq!(rows.len(), if multi_row { 3 } else { 1 });
                        let expected: Vec<f64> =
                            FEATURES.iter().map(|f| f * version as f64).collect();
                        for row in rows {
                            let row: Vec<f64> = row
                                .as_array()
                                .expect("outputs array")
                                .iter()
                                .map(|v| v.as_f64().expect("numeric output"))
                                .collect();
                            assert_eq!(
                                row, expected,
                                "response tagged {tag} carries another version's outputs"
                            );
                        }
                        versions.insert(version);
                        checked += 1;
                    }
                    (checked, versions)
                })
            })
            .collect();

        // Swap versions 2..=SWAPS through the HTTP upload path while
        // the clients hammer.
        for factor in 2..=SWAPS {
            let resp = request_once(
                &addr,
                "POST",
                "/models/default",
                &factor.to_string(),
                io_timeout,
            )
            .expect("upload completes");
            assert_eq!(resp.status, 200, "upload failed: {}", resp.text());
            let parsed = JsonValue::parse(&resp.text()).expect("valid upload reply");
            assert_eq!(
                parsed.get("version").and_then(JsonValue::as_f64),
                Some(factor as f64),
                "sequential uploads must produce sequential versions"
            );
            thread::sleep(Duration::from_millis(5));
        }

        stop.store(true, Ordering::Release);
        let mut total = 0u64;
        let mut seen = BTreeSet::new();
        for client in clients {
            let (checked, versions) = client.join().expect("client thread");
            total += checked;
            seen.extend(versions);
        }
        (total, seen)
    });

    assert!(
        total_checked > 0,
        "clients must observe responses ({threads} threads)"
    );
    // Every client request after the last upload sees v8, so the final
    // version is always observed; earlier ones depend on timing.
    assert!(
        seen_versions.contains(&SWAPS),
        "final version unseen (saw {seen_versions:?})"
    );

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.failed, 0, "no request may fail during hot swap");
    assert_eq!(stats.expired, 0, "no request may expire during hot swap");
    assert_eq!(
        stats.client_errors, 0,
        "no request may be rejected as malformed"
    );
}
