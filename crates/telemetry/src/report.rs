//! Report capture and the three sinks: summary tree, JSONL, Chrome trace.
//!
//! [`capture`] snapshots the per-thread buffers and the metric store
//! without consuming them, then renders on demand. JSON is emitted by
//! hand — this crate is deliberately dependency-free, and the subset we
//! need (objects of strings/numbers/arrays) is small enough to write
//! safely with one escaping routine.

use crate::buffer::{self, SpanEvent};
use crate::metrics::{self, HistSummary, TableRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate of every span event sharing one hierarchical path.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Slash-joined path, e.g. `pipeline.train/gbt.fit/gbt.fit.round`.
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Number of events merged into this node (across all threads).
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// One named metric in a captured report.
#[derive(Debug, Clone)]
pub struct MetricRecord {
    pub name: &'static str,
    pub value: MetricValue,
}

#[derive(Debug, Clone)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Boxed: the bucket table makes the summary much larger than the
    /// scalar variants.
    Histogram(Box<HistSummary>),
}

/// Immutable snapshot of everything telemetry has recorded so far.
pub struct TelemetryReport {
    events: Vec<(u32, SpanEvent)>,
    spans: Vec<SpanAgg>,
    metrics: Vec<MetricRecord>,
    tables: Vec<TableRecord>,
}

/// Snapshot the current telemetry state (non-destructive — recording
/// continues and a later [`crate::flush`] sees the same data plus
/// whatever arrived in between).
pub fn capture() -> TelemetryReport {
    let events = buffer::snapshot();
    let spans = aggregate(&events);
    let (counters, gauges, hists, tables) = metrics::snapshot();
    let mut metrics = Vec::new();
    metrics.extend(counters.into_iter().map(|(name, v)| MetricRecord {
        name,
        value: MetricValue::Counter(v),
    }));
    metrics.extend(gauges.into_iter().map(|(name, v)| MetricRecord {
        name,
        value: MetricValue::Gauge(v),
    }));
    metrics.extend(hists.into_iter().map(|(name, h)| MetricRecord {
        name,
        value: MetricValue::Histogram(Box::new(h)),
    }));
    TelemetryReport {
        events,
        spans,
        metrics,
        tables,
    }
}

fn aggregate(events: &[(u32, SpanEvent)]) -> Vec<SpanAgg> {
    let mut by_path: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for (_tid, e) in events {
        let agg = by_path.entry(e.path.as_str()).or_insert_with(|| SpanAgg {
            path: e.path.clone(),
            name: e.name.to_string(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        agg.count += 1;
        agg.total_ns += e.dur_ns;
        agg.min_ns = agg.min_ns.min(e.dur_ns);
        agg.max_ns = agg.max_ns.max(e.dur_ns);
    }
    by_path.into_values().collect()
}

impl TelemetryReport {
    /// Per-path span aggregates, sorted by path (parents before children).
    pub fn spans(&self) -> &[SpanAgg] {
        &self.spans
    }

    /// All captured metrics: counters, then gauges, then histograms,
    /// each alphabetically.
    pub fn metrics(&self) -> &[MetricRecord] {
        &self.metrics
    }

    /// Value of the counter `name`, if it ever counted.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m.value {
            MetricValue::Counter(v) if m.name == name => Some(v),
            _ => None,
        })
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.metrics.is_empty() && self.tables.is_empty()
    }

    /// Human-readable report: an indented span tree with count, total,
    /// mean, and self-time per node, followed by the metric listing.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry summary\n");
        out.push_str("=================\n");
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
        } else {
            // Children's totals, keyed by parent path, to compute self-time.
            let mut child_total: BTreeMap<&str, u64> = BTreeMap::new();
            for s in &self.spans {
                if let Some(idx) = s.path.rfind('/') {
                    *child_total.entry(&s.path[..idx]).or_insert(0) += s.total_ns;
                }
            }
            out.push_str(&format!(
                "{:<52} {:>8} {:>12} {:>12} {:>12}\n",
                "span", "count", "total", "mean", "self"
            ));
            for s in &self.spans {
                let depth = s.path.matches('/').count();
                let label = format!("{}{}", "  ".repeat(depth), s.name);
                let self_ns = s
                    .total_ns
                    .saturating_sub(child_total.get(s.path.as_str()).copied().unwrap_or(0));
                out.push_str(&format!(
                    "{:<52} {:>8} {:>12} {:>12} {:>12}\n",
                    label,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.total_ns / s.count.max(1)),
                    fmt_ns(self_ns),
                ));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("\nmetrics\n");
            out.push_str("-------\n");
            for m in &self.metrics {
                match &m.value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{:<52} {v}", m.name);
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(out, "{:<52} {v:.6}", m.name);
                    }
                    MetricValue::Histogram(h) => {
                        let _ = writeln!(
                            out,
                            "{:<52} n={} mean={:.6} min={:.6} max={:.6} p50={:.6} p95={:.6} p99={:.6}",
                            m.name,
                            h.count,
                            h.mean(),
                            h.min,
                            h.max,
                            h.p50(),
                            h.p95(),
                            h.p99()
                        );
                    }
                }
            }
        }
        if !self.tables.is_empty() {
            let _ = writeln!(out, "\ntables captured: {}", self.tables.len());
        }
        out
    }

    /// JSONL export: a `meta` line, then one line per span aggregate,
    /// metric, and table — stable order, machine-diffable.
    pub fn to_jsonl_with_meta(&self, bin: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"bin\":{},\"spans\":{},\"events\":{},\"metrics\":{},\"tables\":{}}}",
            json_str(bin),
            self.spans.len(),
            self.events.len(),
            self.metrics.len(),
            self.tables.len()
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"path\":{},\"name\":{},\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                json_str(&s.path),
                json_str(&s.name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns
            );
        }
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}",
                        json_str(m.name)
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                        json_str(m.name),
                        json_num(*v)
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        json_str(m.name),
                        h.count,
                        json_num(h.sum),
                        json_num(h.min),
                        json_num(h.max),
                        json_num(h.p50()),
                        json_num(h.p95()),
                        json_num(h.p99())
                    );
                }
            }
        }
        for t in &self.tables {
            let header: Vec<String> = t.header.iter().map(|h| json_str(h)).collect();
            let rows: Vec<String> = t
                .rows
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(|c| json_str(c)).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"table\",\"title\":{},\"header\":[{}],\"rows\":[{}]}}",
                json_str(&t.title),
                header.join(","),
                rows.join(",")
            );
        }
        out
    }

    /// Chrome-trace JSON (array-of-complete-events form): load the file
    /// in `chrome://tracing` or Perfetto. Timestamps/durations are in
    /// microseconds per the trace-event spec.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (tid, e) in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let mut args = String::new();
            for (i, (k, v)) in e.detail.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                let _ = write!(args, "{}:{}", json_str(k), json_str(v));
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                json_str(e.name),
                json_str(&e.path),
                tid,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                args
            );
        }
        out.push_str("\n]\n");
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// JSON number that stays valid even for non-finite floats (which JSON
/// cannot represent — emit null, matching serde_json's lossy behaviour).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape a string per RFC 8259 and wrap it in quotes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
