//! Spans recorded by the harness around its calls into the program.
//!
//! The program's own telemetry stays off. A traced run records, in memory,
//! one span per call into a layer's public function (name, start, end,
//! parent) and writes them as Chrome-trace JSON when the run ends. A layer's
//! self time is its span minus the part its children cover. Where the
//! program nests calls the harness cannot see (a parallel driver calling a
//! per-item function), the harness replays a sample of the same inputs
//! through the inner function alone and attaches the result with
//! [`Tracer::replayed_child`], scaled to the full input count.

use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Time inside this span attributed to children measured by replay
    /// rather than by nested spans.
    pub replayed_child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording; returns the previous state. Spans already
    /// open keep their place on the stack.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of the span now open. Returns the
    /// token [`Tracer::close`] takes; `None` while recording is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            replayed_child_ns: 0,
        });
        self.stack.push(index);
        Some(index)
    }

    /// Close the span `open` returned a token for. Spans close in the
    /// reverse of the order they opened, also across a pause.
    pub fn close(&mut self, token: Option<usize>) {
        let Some(index) = token else {
            return;
        };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let token = self.open(name);
        let out = f(self);
        self.close(token);
        out
    }

    /// Record a span measured elsewhere (another thread's clock readings).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
            parent: self.stack.last().copied(),
            replayed_child_ns: 0,
        });
    }

    /// Attribute `ns` of the most recent span named `parent` to a child that
    /// was measured by replay, so the parent's self time excludes it.
    pub fn replayed_child(&mut self, parent: &'static str, ns: u64) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.name == parent) {
            span.replayed_child_ns += ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus what its direct child
    /// spans cover and minus its replayed children, floored at zero.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        span.duration_ns()
            .saturating_sub(children)
            .saturating_sub(span.replayed_child_ns)
    }

    /// Total duration over every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Total self time over every span named `name`, in seconds.
    pub fn total_self_s(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum();
        ns as f64 / 1e9
    }

    /// How many spans carry `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, microsecond timestamps, the workload-run id
    /// as the process id.
    pub fn chrome_trace_json(&self, run_id: u64) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{run_id},\"tid\":0,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                self.self_ns(i) as f64 / 1e3,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_nested_and_replayed_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            busy(Duration::from_millis(2));
            t.span("inner", |t| {
                busy(Duration::from_millis(3));
                t.span("leaf", |_| busy(Duration::from_millis(1)));
            });
            t.span("inner", |_| busy(Duration::from_millis(1)));
        });
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        // Durations nest, and self time is exactly duration minus children.
        let d = |i: usize| spans[i].duration_ns();
        assert!(d(0) >= d(1) + d(3));
        assert_eq!(t.self_ns(0), d(0) - d(1) - d(3));
        assert_eq!(t.self_ns(1), d(1) - d(2));
        assert_eq!(t.self_ns(2), d(2));
        assert!(t.self_ns(0) >= 2_000_000);
        // `leaf` is a grandchild of `outer`: it must not be subtracted twice.
        assert!(t.self_ns(0) + t.self_ns(1) + t.self_ns(2) + t.self_ns(3) == d(0));
        assert_eq!(t.count("inner"), 2);
        assert!((t.total_s("inner") - (d(1) + d(3)) as f64 / 1e9).abs() < 1e-12);

        // A replayed child takes its share out of the newest span of that
        // name, and cannot drive self time negative.
        let before = t.self_ns(3);
        t.replayed_child("inner", 400_000);
        assert_eq!(t.self_ns(3), before - 400_000);
        assert_eq!(t.self_ns(1), d(1) - d(2));
        t.replayed_child("inner", u64::MAX / 2);
        assert_eq!(t.self_ns(3), 0);
    }

    #[test]
    fn disabled_tracer_runs_closures_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        t.record("c", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
        assert_eq!(t.chrome_trace_json(1), "{\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut t = Tracer::new(true);
        t.span("x", |t| t.span("y", |_| ()));
        let json = t.chrome_trace_json(42);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"y\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"pid\":42"));
    }
}
