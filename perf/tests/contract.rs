//! The benchmark against its contract: `BENCHMARK.json` is well formed and
//! names exactly what runs report, every workload runs and verifies at the
//! smoke size, and result files survive a round trip.

use mphpc_perf::report::{contract_line, Host, ResultFile, RunRecord};
use mphpc_perf::run::{run_workload, RunArgs};
use mphpc_perf::spec::BenchmarkSpec;
use mphpc_perf::workload::Workload;
use std::sync::Mutex;
use std::time::Instant;

/// Runs share the process-wide thread override, so they take turns.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One run at the smoke size, and the seconds it took.
fn timed_smoke(workload: Workload, threads: usize, trace: bool) -> (RunRecord, f64) {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let started = Instant::now();
    let record = run_workload(RunArgs {
        workload,
        seed: 11,
        seconds: 0.5,
        threads,
        trace,
        smoke: true,
    })
    .expect("the harness runs");
    (record, started.elapsed().as_secs_f64())
}

fn smoke(workload: Workload, threads: usize, trace: bool) -> RunRecord {
    timed_smoke(workload, threads, trace).0
}

#[test]
fn benchmark_json_is_valid_and_self_contained() {
    let spec = BenchmarkSpec::embedded();
    assert_eq!(spec.validate(), Ok(()));
    assert!(std::mem::size_of_val(mphpc_perf::spec::BENCHMARK_JSON) <= 64 * 1024);
    assert!((1..=60).contains(&spec.run_seconds));
    // Workload names are the harness's, in order.
    let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    // The command names nothing of the repository outside `paths`.
    assert!(spec.command.len() <= 32);
    for word in &spec.command {
        assert!(
            word.len() <= 200 && !word.starts_with('/') && !word.contains(".."),
            "{word}"
        );
        if word.contains('/') {
            assert!(
                spec.paths
                    .iter()
                    .any(|p| word.starts_with(&format!("{p}/"))),
                "{word}"
            );
        }
    }
    // All runs must fit the driver's budget with room for two builds.
    let runs = 4 + 22 * spec.workloads.len() as u64;
    assert!(
        runs * (spec.run_seconds + 6) < 3420 - 300,
        "run_seconds too long for {runs} runs"
    );
}

#[test]
fn all_six_workloads_run_verify_and_report_every_metric_at_smoke_size() {
    let spec = BenchmarkSpec::embedded();
    let mut elapsed = 0.0;
    let mut records = Vec::new();
    for workload in Workload::ALL {
        let (record, secs) = timed_smoke(workload, 2, false);
        elapsed += secs;
        assert!(record.correct, "{}: {:?}", record.workload, record.failures);
        assert!(record.attempted > 0 && record.failed == 0);
        // Exactly the end-to-end metrics, units as declared, none zero.
        let line = contract_line(&record, &spec).expect("every end-to-end metric is reported");
        for m in &spec.end_to_end {
            let got = record.metric(&m.name).unwrap();
            assert_eq!(got.unit, m.unit, "{}", m.name);
            assert!(
                got.value > 0.0 && got.value.is_finite(),
                "{} = {}",
                m.name,
                got.value
            );
            assert!(got.n >= 1);
            assert!(line.contains(&format!("\"{}\":{{\"value\":", m.name)));
        }
        for m in &spec.per_layer {
            assert!(
                !line.contains(&format!("\"{}\"", m.name)),
                "untraced line has {}",
                m.name
            );
        }
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
        records.push(record);
    }
    println!("six smoke runs: {elapsed:.1} s");
    assert!(elapsed < 15.0, "smoke runs took {elapsed:.1} s");

    // Same seed, same inputs: everything that must repeat exactly does,
    // also across thread counts.
    let again = smoke(Workload::CollectTrace, 1, false);
    assert!(again.correct, "{:?}", again.failures);
    assert_eq!(again.checks, records[0].checks);
    assert_eq!(
        again.metric("quality_mae"),
        records[0].metric("quality_mae")
    );

    // A result file survives the round trip bit for bit.
    let file = ResultFile {
        host: Host::detect(),
        records,
    };
    assert!(file.host.nproc >= 1 && !file.host.cpu_model.is_empty() && !file.host.rustc.is_empty());
    assert_eq!(ResultFile::from_json(&file.to_json()).unwrap(), file);
    assert!(ResultFile::from_json("{\"host\":1}").is_err());
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_a_chrome_trace() {
    let spec = BenchmarkSpec::embedded();
    for workload in [Workload::SchedFed, Workload::CollectTrace] {
        let record = smoke(workload, 2, true);
        assert!(record.correct, "{:?}", record.failures);
        let line = contract_line(&record, &spec).expect("every per-layer metric is reported");
        for m in &spec.per_layer {
            let got = record
                .metric(&m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert_eq!(got.unit, m.unit, "{}", m.name);
            assert!(got.value.is_finite(), "{}", m.name);
            assert!(line.contains(&format!("\"{}\":{{\"value\":", m.name)));
        }
        assert!(!line.contains("\"setup_s\""));
        // Shares the issue wants as numbers, never omitted.
        assert!(record.metric("collect.unattributed_share").unwrap().value < 0.05);
        assert!(record.metric("archsim.cache_share").unwrap().value > 0.5);
        assert_eq!(record.metric("sched.fed.fallback_rows").unwrap().value, 0.0);
        let trace = std::fs::read_to_string(mphpc_perf::run::trace_path(workload)).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":[{"));
        for span in [
            "stage.train",
            "stage.collect",
            "stage.serve",
            "stage.sched",
            "profiler.profile_matrix",
        ] {
            assert!(trace.contains(&format!("\"name\":\"{span}\"")), "{span}");
        }
    }
}
