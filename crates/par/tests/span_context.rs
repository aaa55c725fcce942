//! Spans opened on `par_map`'s worker threads nest under the span that
//! called it, and with telemetry off the workers record nothing.

use mphpc_telemetry::{capture, reset, set_mode, span, writes_recorded, TelemetryMode};

#[test]
fn a_span_opened_inside_par_map_has_the_callers_path() {
    // Two workers beside the caller, whatever the host: every item runs on
    // a worker thread.
    mphpc_par::set_thread_override(Some(2));
    set_mode(TelemetryMode::Off);
    reset();
    mphpc_par::par_map(&[0u8; 8], |_, _| span!("worker.item"));
    assert_eq!(writes_recorded(), 0, "telemetry off records nothing");

    set_mode(TelemetryMode::Summary);
    {
        let _outer = span!("caller");
        let _inner = span!("caller.map");
        mphpc_par::par_map(&[0u8; 8], |_, _| {
            let _item = span!("worker.item");
        });
    }
    {
        let _after = span!("after");
    }
    let report = capture();
    set_mode(TelemetryMode::Off);
    let paths: Vec<(&str, u64)> = report
        .spans()
        .iter()
        .map(|s| (s.path.as_str(), s.count))
        .collect();
    assert_eq!(
        paths,
        [
            ("after", 1),
            ("caller", 1),
            ("caller/caller.map", 1),
            ("caller/caller.map/worker.item", 8),
        ]
    );
}
