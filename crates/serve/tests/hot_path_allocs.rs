//! Zero-allocation guard for the per-request hot path: once a
//! connection's buffers are warm, parsing a request head, scanning the
//! predict body, and rendering the response must not touch the heap. A
//! counting global allocator enforces this — the same technique as the
//! telemetry overhead guard — because a profiler would only show the
//! *cost* of a stray allocation, not its existence.
//!
//! The guard drives the exact functions the event loop calls per
//! request ([`http::parse_head`], [`json::read_predict_body`] for a
//! `features` request and for a 32-row `rows` request alike,
//! [`json::write_predict_reply`], [`http::render_response`]) over reused
//! buffers, mirroring the per-connection buffer lifecycle. The batcher
//! hand-off (one `Vec` clone per request) is deliberately out of scope:
//! it crosses threads and is priced separately in the serving benchmark.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global and would observe concurrent tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mphpc_serve::http::{self, Parse};
use mphpc_serve::json;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ITERS: u64 = 10_000;

/// The reused buffers of one shard and connection.
#[derive(Default)]
struct Buffers {
    features: Vec<f64>,
    outputs: Vec<f64>,
    body_buf: Vec<u8>,
    out: Vec<u8>,
}

/// One simulated request/response cycle over reused buffers — the same
/// sequence the event loop runs per request after connection setup.
/// `rows` is `None` for a `features` request and the row count of a
/// `rows` request.
fn request_cycle(request: &[u8], rows: Option<usize>, buf: &mut Buffers) {
    // Parse the head (borrowed slices, no copies).
    let head = match http::parse_head(request, http::MAX_HEAD_BYTES) {
        Parse::Head(head) => head,
        other => panic!("fixture must parse: {other:?}"),
    };
    assert_eq!(head.method, "POST");
    assert_eq!(head.path, "/predict");
    let body = &request[head.head_len..head.head_len + head.content_length];
    let text = std::str::from_utf8(body).expect("fixture is utf-8");

    // Read the predict body into the reused feature vector.
    let request = json::read_predict_body(text, &mut buf.features).expect("fixture is canonical");
    assert_eq!(request.rows, rows);
    // The `rows` fixture names its model, as `FederatedRpv` does; the
    // `features` one leaves it out, as `mphpc_perf` does.
    assert_eq!(request.model.as_deref(), rows.map(|_| "default"));
    assert_eq!(buf.features.len(), 3 * rows.unwrap_or(1));

    // Render the 200 the way the server does: the reply body streamed
    // into a reused buffer, then the response head around it.
    buf.outputs.clear();
    buf.outputs.extend(buf.features.iter().map(|f| f * 2.0));
    buf.body_buf.clear();
    json::write_predict_reply(&mut buf.body_buf, "default@v1", 64, &buf.outputs, rows);
    buf.out.clear();
    http::render_response(&mut buf.out, 200, &[], &buf.body_buf, true);
    assert!(buf.out.starts_with(b"HTTP/1.1 200 OK\r\n"));
}

#[test]
fn steady_state_request_cycle_allocates_nothing() {
    let one_row = b"POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-length: 26\r\n\r\n{\"features\":[1.5,-2,3.25]}".to_vec();
    let rows: Vec<String> = (0..32).map(|i| format!("[{i}.5,-2,3.25]")).collect();
    let body = format!("{{\"model\":\"default\",\"rows\":[{}]}}", rows.join(","));
    let multi_row = format!(
        "POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    let cycle = |buf: &mut Buffers| {
        request_cycle(&one_row, None, buf);
        request_cycle(&multi_row, Some(32), buf);
    };

    // Warm-up: first cycle sizes every reused buffer.
    let mut buf = Buffers::default();
    cycle(&mut buf);
    assert!(buf.out.ends_with(b",[63,-4,6.5]]}"));

    // The counter is process-global, so a one-off lazy init on another
    // thread (test harness, stdio) could land inside the window. Take
    // the minimum over three attempts: a real per-request allocation
    // would contribute ≥ ITERS to every attempt.
    let delta = (0..3)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            for _ in 0..ITERS {
                cycle(&mut buf);
            }
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap();
    assert_eq!(
        delta, 0,
        "hot path allocated {delta} times over {ITERS} request cycles"
    );

    // Positive control: the counter is actually watching. One format!
    // per iteration must register.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut sink = 0usize;
    for i in 0..ITERS {
        sink += format!("{i}").len();
    }
    let control = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(sink > 0);
    assert!(
        control >= ITERS,
        "the counting allocator saw only {control} allocations from {ITERS} format! calls"
    );
}
