//! Per-thread span buffers and the global registry that survives them.
//!
//! Each thread lazily grabs an `Arc<ThreadBuffer>` through a
//! `thread_local!` handle and appends span events to it without ever
//! contending with other threads (the buffer's mutex is only shared
//! with [`drain`]/[`snapshot`], which run at report time). The registry
//! keeps a second `Arc` to every buffer, so events recorded by
//! `mphpc_par`'s scoped worker threads remain readable after those
//! threads exit — `std::thread::scope` tears workers down between calls.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One closed span, recorded at guard drop.
#[derive(Debug, Clone)]
pub(crate) struct SpanEvent {
    /// Slash-joined enclosing span names, e.g. `gbt.fit/gbt.fit.round`.
    pub path: String,
    /// Leaf span name (last path component).
    pub name: &'static str,
    /// Lazily-formatted key/value detail from the `span!` call site.
    pub detail: Vec<(&'static str, String)>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub(crate) struct ThreadBuffer {
    pub tid: u32,
    pub events: Mutex<Vec<SpanEvent>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static WRITES: AtomicU64 = AtomicU64::new(0);

struct ThreadState {
    buf: Arc<ThreadBuffer>,
    /// Names of the spans currently open on this thread, root first.
    stack: Vec<&'static str>,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuffer {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
            });
            lock(registry()).push(Arc::clone(&buf));
            ThreadState {
                buf,
                stack: Vec::new(),
            }
        });
        f(state)
    })
}

/// Ignore mutex poisoning: telemetry must keep working (and tests keep
/// passing) even if an instrumented thread panicked mid-record.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Push a span name onto the calling thread's stack (span entry).
pub(crate) fn push_stack(name: &'static str) {
    with_state(|s| s.stack.push(name));
}

/// Pop the top of the stack and return the full slash-joined path it
/// occupied (span exit).
pub(crate) fn pop_stack() -> String {
    with_state(|s| {
        let path = s.stack.join("/");
        s.stack.pop();
        path
    })
}

/// Append one closed span event to the calling thread's buffer.
pub(crate) fn record(event: SpanEvent) {
    with_state(|s| lock(&s.buf.events).push(event));
    EVENTS.fetch_add(1, Ordering::Relaxed);
    WRITES.fetch_add(1, Ordering::Relaxed);
}

/// Count one non-span telemetry write (metric update, table).
pub(crate) fn note_write() {
    WRITES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn events_recorded() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

pub(crate) fn writes_recorded() -> u64 {
    WRITES.load(Ordering::Relaxed)
}

/// Copy out every buffered event, tagged with its thread id, without
/// consuming them (capture is non-destructive so `summary` can print
/// and a later flush still sees the data).
pub(crate) fn snapshot() -> Vec<(u32, SpanEvent)> {
    let buffers = lock(registry());
    let mut out = Vec::new();
    for buf in buffers.iter() {
        let events = lock(&buf.events);
        out.extend(events.iter().map(|e| (buf.tid, e.clone())));
    }
    // Merge threads into one stable timeline.
    out.sort_by(|a, b| {
        a.1.start_ns
            .cmp(&b.1.start_ns)
            .then(a.0.cmp(&b.0))
            .then(a.1.dur_ns.cmp(&b.1.dur_ns))
    });
    out
}

/// Drop all buffered events and zero the write counters.
pub(crate) fn clear() {
    let buffers = lock(registry());
    for buf in buffers.iter() {
        lock(&buf.events).clear();
    }
    EVENTS.store(0, Ordering::Relaxed);
    WRITES.store(0, Ordering::Relaxed);
}
