//! Backpressure behaviour: a full queue answers `503 + Retry-After`
//! promptly (no hang, no panic), the queue drains once load stops, and
//! rows that out-wait their deadline get `504` — with `queue_cap`
//! counting rows and a multi-row request admitted, refused or expired
//! as a whole.

mod common;

use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use common::{GatedModel, SlowModel};
use mphpc_serve::client::{request_once, ClientConn};
use mphpc_serve::{serve, BatchConfig, PredictModel, ServeConfig, ServerHandle};

fn start_slow_server(delay: Duration, batch: BatchConfig, shards: usize) -> ServerHandle {
    start_server(SlowModel { delay }, batch, shards)
}

fn start_server(model: impl PredictModel, batch: BatchConfig, shards: usize) -> ServerHandle {
    let registry = common::registry_with(model, common::scale_loader());
    serve(
        ServeConfig {
            shards,
            batch,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server starts")
}

const BODY: &str = r#"{"features":[1,2]}"#;

/// Poll `GET /stats` until its body contains `want` (5 s at most).
fn wait_for_stats(addr: &str, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats =
            request_once(addr, "GET", "/stats", "", Duration::from_secs(10)).expect("stats");
        if stats.text().contains(want) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never saw {want}: {}",
            stats.text()
        );
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_queue_answers_503_with_retry_after_then_drains() {
    for clients in [1usize, 2, 8, 12] {
        run_overload(clients);
    }
}

fn run_overload(clients: usize) {
    // max_batch 1 + a slow model keeps the batcher busy per row, so
    // concurrent clients overflow the 2-slot queue almost immediately.
    let handle = start_slow_server(
        Duration::from_millis(30),
        BatchConfig {
            max_batch: 1,
            queue_cap: 2,
            deadline: Duration::from_secs(10),
        },
        2,
    );
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(10);

    let statuses: Vec<u16> = thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut statuses = Vec::new();
                    for _ in 0..4 {
                        let resp = request_once(addr, "POST", "/predict", BODY, io_timeout)
                            .expect("request must complete, not hang");
                        if resp.status == 503 {
                            assert_eq!(
                                resp.header("retry-after"),
                                Some("1"),
                                "503 must advertise Retry-After"
                            );
                        }
                        statuses.push(resp.status);
                    }
                    statuses
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });

    assert_eq!(statuses.len(), clients * 4, "every request gets an answer");
    assert!(
        statuses.iter().all(|s| [200, 503].contains(s)),
        "only 200/503 expected, got {statuses:?}"
    );
    assert!(statuses.contains(&200), "some requests must succeed");
    if clients >= 8 {
        assert!(
            statuses.contains(&503),
            "{clients} clients against a 2-slot queue must trip backpressure"
        );
    }

    // The queue must drain once load stops: a fresh request succeeds
    // and /stats reports an empty queue.
    wait_for_stats(&addr, "\"queue_depth\":0");
    let resp =
        request_once(&addr, "POST", "/predict", BODY, io_timeout).expect("post-drain request");
    assert_eq!(resp.status, 200, "drained server must serve again");

    handle.shutdown();
    let stats = handle.join();
    let rejected = statuses.iter().filter(|s| **s == 503).count() as u64;
    assert_eq!(stats.rejected, rejected, "server counts every 503");
    assert_eq!(stats.failed, 0, "backpressure must not surface as 500s");
}

#[test]
fn queued_rows_past_their_deadline_answer_504() {
    // One 120 ms batch occupies the batcher while later rows sit behind
    // a 20 ms deadline — they must expire, not run late.
    let handle = start_slow_server(
        Duration::from_millis(120),
        BatchConfig {
            max_batch: 1,
            queue_cap: 64,
            deadline: Duration::from_millis(20),
        },
        2,
    );
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(10);

    let statuses: Vec<u16> = thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || {
                    request_once(addr, "POST", "/predict", BODY, io_timeout)
                        .expect("request completes")
                        .status
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    assert!(
        statuses.iter().all(|s| [200, 504].contains(s)),
        "only 200/504 expected, got {statuses:?}"
    );
    assert!(statuses.contains(&200), "the first row must be served");
    assert!(
        statuses.contains(&504),
        "rows queued behind the slow batch must expire, got {statuses:?}"
    );

    handle.shutdown();
    let stats = handle.join();
    assert!(stats.expired >= 1, "expiries must be counted");
    assert_eq!(stats.failed, 0);
}

/// `{"rows":[[i,1],...]}` with `n` rows.
fn rows_body(n: usize) -> String {
    let rows: Vec<String> = (0..n).map(|i| format!("[{i},1]")).collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

#[test]
fn queue_cap_counts_rows_and_refuses_a_multi_row_request_whole() {
    // A one-row request parks the batcher inside the gated model, so
    // what follows stays queued until the test has seen it there; the
    // last request fills a batch (32 + 4 rows).
    let (entered, entered_rx) = mpsc::channel();
    let (gate, gate_rx) = mpsc::channel();
    let handle = start_server(
        GatedModel {
            entered,
            gate: Mutex::new(gate_rx),
        },
        BatchConfig {
            max_batch: 36,
            queue_cap: 40,
            deadline: Duration::from_secs(60),
        },
        1,
    );
    let addr = handle.addr().to_string();
    let io_timeout = Duration::from_secs(10);
    let send = |rows: usize| {
        let mut conn = ClientConn::connect(&addr, io_timeout).expect("connect");
        conn.send("POST", "/predict", &rows_body(rows))
            .expect("send");
        conn
    };

    let mut blocker = send(1);
    entered_rx
        .recv_timeout(io_timeout)
        .expect("the batcher reaches the model");
    let mut first = send(32);
    let depth = |want: &str| wait_for_stats(&addr, want);
    depth("\"queue_depth\":32");

    // 32 + 32 rows exceed 40: refused as a whole, nothing of it queued.
    let refused =
        request_once(&addr, "POST", "/predict", &rows_body(32), io_timeout).expect("second");
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert_eq!(refused.header("retry-after"), Some("1"));
    depth("\"queue_depth\":32");

    // Four more rows fit, fill the batch, and both requests ride it.
    let mut last = send(4);
    depth("\"queue_depth\":36");
    drop(gate);
    let blocker = blocker.recv().expect("the parked request's reply");
    assert_eq!(
        blocker.text(),
        "{\"model\":\"default@v1\",\"batch_rows\":1,\"outputs\":[[1]]}"
    );
    let last = last.recv().expect("third");
    assert_eq!(last.status, 200, "{}", last.text());
    assert_eq!(
        last.text(),
        "{\"model\":\"default@v1\",\"batch_rows\":36,\"outputs\":[[1],[2],[3],[4]]}"
    );
    let first = first.recv().expect("the first request's reply");
    assert_eq!(first.status, 200, "{}", first.text());
    assert!(first
        .text()
        .starts_with("{\"model\":\"default@v1\",\"batch_rows\":36,\"outputs\":[[1],[2],"));
    assert!(first.text().ends_with(",[32]]}"));
    depth("\"queue_depth\":0");

    handle.shutdown();
    let stats = handle.join();
    assert_eq!((stats.rejected, stats.expired, stats.failed), (1, 0, 0));
}

#[test]
fn an_expired_multi_row_request_is_one_504() {
    // Pipelined on one connection, so enqueued in order: the first
    // request keeps the batcher busy for 150 ms (a batch holds only its
    // two rows), the second waits behind it past its 20 ms deadline.
    let handle = start_slow_server(
        Duration::from_millis(150),
        BatchConfig {
            max_batch: 2,
            deadline: Duration::from_millis(20),
            ..BatchConfig::default()
        },
        1,
    );
    let addr = handle.addr().to_string();
    let mut conn = ClientConn::connect(&addr, Duration::from_secs(10)).expect("connect");
    conn.send("POST", "/predict", &rows_body(2)).expect("first");
    conn.send("POST", "/predict", &rows_body(2))
        .expect("second");
    assert_eq!(conn.recv().expect("first reply").status, 200);
    let late = conn.recv().expect("second reply");
    assert_eq!(late.status, 504, "{}", late.text());

    handle.shutdown();
    let stats = handle.join();
    assert_eq!((stats.expired, stats.failed), (1, 0));
}
