//! Zero-cost-when-disabled instrumentation for the MP-HPC pipeline.
//!
//! Three primitives, all gated on one relaxed atomic load:
//!
//! * **Spans** — [`span!`] opens a hierarchical timing scope that closes
//!   when the guard drops. Each thread keeps its own span stack and its
//!   own event buffer (registered once, drained at report time), so
//!   recording never contends across `mphpc_par` workers; a worker adopts
//!   its caller's [`span_context`], so its spans nest under the caller's.
//! * **Metrics** — [`counter_add`], [`gauge_set`], [`histogram_record`]:
//!   typed, named, process-wide aggregates for things too hot to span
//!   (rows binned, nodes expanded, backfill attempts).
//! * **Sinks** — [`TelemetryReport`] renders the captured data as a
//!   human-readable span tree ([`TelemetryReport::render_summary`]),
//!   machine-diffable JSONL ([`TelemetryReport::to_jsonl_with_meta`]), or a
//!   `chrome://tracing` / Perfetto trace
//!   ([`TelemetryReport::to_chrome_trace`]). [`flush`] picks the sink
//!   from the active [`TelemetryMode`].
//!
//! When the mode is [`TelemetryMode::Off`] (the default) every entry
//! point returns after a single `Relaxed` load: no allocation, no clock
//! read, no buffer write. [`writes_recorded`] counts every write any
//! sink will see, so tests can assert the disabled path stays at zero.
//!
//! Instrumentation is a **pure observer**: it never touches the data,
//! RNG streams, or scheduling decisions of the code it measures —
//! `tests/telemetry_purity.rs` (workspace root) proves fit/predict/
//! simulate outputs are bit-identical with telemetry off and at `trace`.

mod buffer;
mod metrics;
mod report;

pub use metrics::{HistSummary, TableRecord, HIST_BUCKETS};
pub use report::{capture, MetricRecord, MetricValue, SpanAgg, TelemetryReport};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Global telemetry mode. Selects both whether events are recorded and
/// which sink [`flush`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record nothing (the default); every probe is a single atomic load.
    #[default]
    Off,
    /// Record; [`flush`] prints the human-readable span tree + metrics.
    Summary,
    /// Record; [`flush`] writes JSONL for machine diffing.
    Jsonl,
    /// Record; [`flush`] writes a Chrome-trace JSON file.
    Trace,
}

impl TelemetryMode {
    /// Parse a CLI word (`off|summary|jsonl|trace`).
    pub fn parse(word: &str) -> Option<TelemetryMode> {
        match word {
            "off" => Some(TelemetryMode::Off),
            "summary" => Some(TelemetryMode::Summary),
            "jsonl" => Some(TelemetryMode::Jsonl),
            "trace" => Some(TelemetryMode::Trace),
            _ => None,
        }
    }

    /// The CLI word for this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Summary => "summary",
            TelemetryMode::Jsonl => "jsonl",
            TelemetryMode::Trace => "trace",
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide telemetry mode.
pub fn set_mode(mode: TelemetryMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The active telemetry mode.
pub fn mode() -> TelemetryMode {
    match MODE.load(Ordering::Relaxed) {
        1 => TelemetryMode::Summary,
        2 => TelemetryMode::Jsonl,
        3 => TelemetryMode::Trace,
        _ => TelemetryMode::Off,
    }
}

/// True when any recording mode is active. This is the single branch the
/// disabled hot path pays.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Process epoch all span timestamps are relative to (first telemetry
/// touch). Monotonic, so Chrome-trace timelines are consistent across
/// threads.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Open a timing span that records itself when dropped.
///
/// ```
/// let _guard = mphpc_telemetry::span!("gbt.fit.round", round = 3);
/// // ... timed work ...
/// ```
///
/// Key–value details are only formatted when telemetry is enabled; the
/// disabled path allocates nothing.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter_with($name, || {
            vec![$((stringify!($key), ($value).to_string())),+]
        })
    };
}

/// RAII scope produced by [`span!`]: measures from construction to drop
/// and records one event into the calling thread's buffer.
#[must_use = "a span measures until the guard is dropped"]
pub struct SpanGuard {
    name: &'static str,
    detail: Vec<(&'static str, String)>,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    /// Enter a span with no detail fields.
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard::enter_with(name, Vec::new)
    }

    /// Enter a span whose detail fields are built lazily (only when
    /// telemetry is enabled).
    pub fn enter_with(
        name: &'static str,
        detail: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                name,
                detail: Vec::new(),
                start_ns: 0,
                active: false,
            };
        }
        buffer::push_stack(name);
        SpanGuard {
            name,
            detail: detail(),
            start_ns: now_ns(),
            active: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        // Pop even if the mode flipped mid-span: enter/exit must stay
        // symmetric on the thread's stack.
        let path = buffer::pop_stack();
        buffer::record(buffer::SpanEvent {
            path,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            start_ns: self.start_ns,
            dur_ns,
        });
    }
}

/// The spans open on the calling thread, for work it hands to other
/// threads: a span opened under [`SpanContext::adopt`] sits below them in
/// the tree, as if it had been opened here. Empty, and free, when telemetry
/// is off.
#[derive(Debug, Clone, Default)]
pub struct SpanContext(Vec<&'static str>);

/// The calling thread's [`SpanContext`].
pub fn span_context() -> SpanContext {
    if !enabled() {
        return SpanContext::default();
    }
    SpanContext(buffer::stack())
}

impl SpanContext {
    /// Open this context's spans on the calling thread until the guard
    /// drops; they record no events of their own.
    pub fn adopt(&self) -> AdoptGuard {
        if self.0.is_empty() {
            return AdoptGuard(None);
        }
        AdoptGuard(Some(buffer::extend_stack(&self.0)))
    }
}

/// Scope produced by [`SpanContext::adopt`].
#[must_use = "the context is adopted until the guard is dropped"]
pub struct AdoptGuard(Option<usize>);

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(depth) = self.0 {
            buffer::truncate_stack(depth);
        }
    }
}

/// Add `n` to the named monotonic counter.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    metrics::counter_add(name, n);
}

/// Set the named gauge to its latest value.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    metrics::gauge_set(name, value);
}

/// Record one observation into the named histogram (count/sum/min/max).
#[inline]
pub fn histogram_record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    metrics::histogram_record(name, value);
}

/// Record a rendered result table (title + header + rows) so experiment
/// binaries' stdout tables also reach the JSONL sink, machine-diffable.
pub fn record_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    if !enabled() {
        return;
    }
    metrics::record_table(title, header, rows);
}

/// Total span events recorded since the last [`reset`].
pub fn events_recorded() -> u64 {
    buffer::events_recorded()
}

/// Total telemetry writes of any kind (span events, counter/gauge/
/// histogram updates, tables) since the last [`reset`]. The disabled
/// path must keep this at zero — `crates/telemetry/tests/overhead.rs`
/// enforces it, alongside a zero-allocation check.
pub fn writes_recorded() -> u64 {
    buffer::writes_recorded()
}

/// Clear all recorded events, metrics, tables, and write counters.
/// The mode is left unchanged.
pub fn reset() {
    buffer::clear();
    metrics::clear();
}

/// Render and emit everything recorded so far, according to the active
/// mode. `bin` names the producing binary (used for the default output
/// file and the JSONL meta line).
///
/// * `summary` — prints the span tree and metrics to stdout.
/// * `jsonl` — writes `<bin>.telemetry.jsonl` (or `$MPHPC_TELEMETRY_OUT`).
/// * `trace` — writes `<bin>.trace.json` (or `$MPHPC_TELEMETRY_OUT`),
///   loadable in `chrome://tracing` / Perfetto.
///
/// File writes are best-effort: failures are reported on stderr and
/// never abort the producing run.
pub fn flush(bin: &str) {
    let m = mode();
    if m == TelemetryMode::Off {
        return;
    }
    let rep = capture();
    match m {
        TelemetryMode::Off => {}
        TelemetryMode::Summary => println!("{}", rep.render_summary()),
        TelemetryMode::Jsonl => write_artifact(
            bin,
            &format!("{bin}.telemetry.jsonl"),
            rep.to_jsonl_with_meta(bin),
        ),
        TelemetryMode::Trace => {
            write_artifact(bin, &format!("{bin}.trace.json"), rep.to_chrome_trace())
        }
    }
}

fn write_artifact(bin: &str, default_name: &str, content: String) {
    let path = std::env::var("MPHPC_TELEMETRY_OUT").unwrap_or_else(|_| default_name.to_string());
    // Atomic temp + rename (this crate sits below `mphpc-storage` in the
    // dependency graph, so the primitive is inlined): telemetry is often
    // scraped by scripts while the producing process is being killed, and
    // a half-written JSONL file parses as silently truncated data.
    let write = || -> std::io::Result<()> {
        let tmp = format!("{path}.mphpc-tmp.{}", std::process::id());
        std::fs::write(&tmp, &content)?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            e
        })
    };
    match write() {
        Ok(()) => eprintln!("[telemetry] {bin}: wrote {path}"),
        Err(e) => eprintln!("[telemetry] {bin}: failed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry state is process-global; serialise the tests that flip it.
    pub(crate) fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn mode_round_trips_through_parse() {
        for m in [
            TelemetryMode::Off,
            TelemetryMode::Summary,
            TelemetryMode::Jsonl,
            TelemetryMode::Trace,
        ] {
            assert_eq!(TelemetryMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(TelemetryMode::parse("bogus"), None);
    }

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        let _guard = mode_lock();
        set_mode(TelemetryMode::Summary);
        reset();
        {
            let _a = span!("outer");
            for i in 0..3 {
                let _b = span!("outer.step", i = i);
            }
        }
        let rep = capture();
        set_mode(TelemetryMode::Off);
        let spans = rep.spans();
        let outer = spans.iter().find(|s| s.path == "outer").unwrap();
        let step = spans.iter().find(|s| s.path == "outer/outer.step").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(step.count, 3);
        assert!(outer.total_ns >= step.total_ns, "parent covers children");
        assert_eq!(events_recorded(), 4);
        reset();
        assert_eq!(events_recorded(), 0);
    }

    #[test]
    fn metrics_accumulate_by_kind() {
        let _guard = mode_lock();
        set_mode(TelemetryMode::Summary);
        reset();
        counter_add("t.counter", 2);
        counter_add("t.counter", 3);
        gauge_set("t.gauge", 1.5);
        gauge_set("t.gauge", 2.5);
        histogram_record("t.hist", 1.0);
        histogram_record("t.hist", 3.0);
        let rep = capture();
        set_mode(TelemetryMode::Off);
        let metric = |n: &str| rep.metrics().iter().find(|m| m.name == n).cloned().unwrap();
        match metric("t.counter") {
            MetricRecord {
                value: report::MetricValue::Counter(v),
                ..
            } => assert_eq!(v, 5),
            other => panic!("not a counter: {other:?}"),
        }
        match metric("t.gauge") {
            MetricRecord {
                value: report::MetricValue::Gauge(v),
                ..
            } => assert_eq!(v, 2.5),
            other => panic!("not a gauge: {other:?}"),
        }
        match metric("t.hist") {
            MetricRecord {
                value: report::MetricValue::Histogram(h),
                ..
            } => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 4.0);
                assert_eq!(h.min, 1.0);
                assert_eq!(h.max, 3.0);
            }
            other => panic!("not a histogram: {other:?}"),
        }
        reset();
    }

    #[test]
    fn histogram_quantiles_estimate_within_bucket_error() {
        // 1..=1000 ms-scale observations: the half-octave buckets must
        // place p50/p95/p99 within their documented ~19% relative error,
        // and the extreme quantiles clamp to the exact min/max.
        let mut h = HistSummary::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3);
        }
        assert_eq!(h.count, 1000);
        for (q, want) in [(0.5, 0.5), (0.95, 0.95), (0.99, 0.99)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.20,
                "q={q}: got {got}, want ≈{want}"
            );
        }
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99(), "monotone");
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
        // Degenerate shapes stay well-defined.
        assert_eq!(HistSummary::new().quantile(0.5), 0.0);
        let mut neg = HistSummary::new();
        neg.record(-3.0);
        assert_eq!(neg.p50(), -3.0, "non-positive values clamp to min");
    }

    #[test]
    fn histogram_quantiles_reach_the_jsonl_sink() {
        let _guard = mode_lock();
        set_mode(TelemetryMode::Jsonl);
        reset();
        for v in [0.001, 0.002, 0.004, 0.050] {
            histogram_record("q.hist", v);
        }
        let rep = capture();
        set_mode(TelemetryMode::Off);
        let jsonl = rep.to_jsonl_with_meta("unit");
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"q.hist\""))
            .expect("hist line present");
        for key in ["\"p50\":", "\"p95\":", "\"p99\":"] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
        let summary = rep.render_summary();
        assert!(summary.contains("p50="), "summary shows quantiles");
        reset();
    }

    #[test]
    fn parallel_spans_merge_across_threads() {
        let _guard = mode_lock();
        set_mode(TelemetryMode::Trace);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let _w = span!("worker.item");
                    }
                });
            }
        });
        let rep = capture();
        set_mode(TelemetryMode::Off);
        let item = rep
            .spans()
            .iter()
            .find(|a| a.path == "worker.item")
            .cloned()
            .unwrap();
        assert_eq!(item.count, 40, "all worker events merge by path");
        // The raw trace keeps distinct thread ids.
        let trace = rep.to_chrome_trace();
        assert!(trace.contains("\"tid\":"));
        reset();
    }

    #[test]
    fn sinks_render_all_record_kinds() {
        let _guard = mode_lock();
        set_mode(TelemetryMode::Jsonl);
        reset();
        {
            let _s = span!("sink.span", detail = "x\"y");
        }
        counter_add("sink.counter", 7);
        gauge_set("sink.gauge", f64::NAN);
        record_table("tbl", &["a", "b"], &[vec!["a\nb".into(), "\u{1}\\".into()]]);
        let rep = capture();
        set_mode(TelemetryMode::Off);
        let summary = rep.render_summary();
        assert!(summary.contains("sink.span"));
        assert!(summary.contains("sink.counter"));
        let jsonl = rep.to_jsonl_with_meta("unit");
        assert!(
            jsonl.lines().count() >= 5,
            "meta + span + counter + gauge + table"
        );
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("\"type\":\"counter\""));
        // Exact bytes: the escapes and the non-finite number are the JSON
        // writer's, whichever crate it lives in.
        assert!(jsonl.contains(r#"{"type":"gauge","name":"sink.gauge","value":null}"#));
        assert!(jsonl.contains(
            r#"{"type":"table","title":"tbl","header":["a","b"],"rows":[["a\nb","\u0001\\"]]}"#
        ));
        let trace = rep.to_chrome_trace();
        assert!(trace.starts_with('[') && trace.trim_end().ends_with(']'));
        assert!(
            trace.contains("x\\\"y"),
            "JSON string escaping in trace args"
        );
        reset();
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = mode_lock();
        set_mode(TelemetryMode::Off);
        reset();
        {
            let _s = span!("dead.span", x = 1);
            counter_add("dead.counter", 1);
            gauge_set("dead.gauge", 1.0);
            histogram_record("dead.hist", 1.0);
            record_table("dead", &["h"], &[vec!["v".into()]]);
        }
        assert_eq!(writes_recorded(), 0);
        assert_eq!(events_recorded(), 0);
        assert!(capture().is_empty());
    }
}
