//! Scheduling at scale with the real model (DESIGN.md §17): RPVs looked
//! up inline by the trained predictor must give the very schedule that
//! precomputed RPVs give — on seeded workloads across sizes and thread
//! counts — and so must RPVs federated from a live serving endpoint, also
//! when it dies mid-simulation. (Identity with the pre-calendar-queue
//! engine is the in-crate oracle suite's job: `crates/sched/src/reference.rs`.)

use std::sync::Arc;
use std::time::Duration;

use mphpc_core::prelude::*;
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_sched::engine::{simulate, simulate_full, InlineRpv, SimConfig};
use mphpc_sched::{sample_jobs, sample_jobs_indexed, FederatedRpv, JobTemplate};
use mphpc_serve::{serve, ModelRegistry, PredictModel, ServeConfig};

fn setup() -> (MpHpcDataset, PerfPredictor) {
    let d = collect(&CollectionConfig::small(6, 2, 2, 1810)).expect("collection");
    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 18).unwrap();
    (d, p)
}

/// Precomputed-RPV templates vs raw templates with inline prediction —
/// full `SimResult` equality (every job's start, end, and machine), not
/// just aggregates. One provider serves all five strategies, as in
/// `run_scale_comparison`, so from the second strategy on every row is a
/// memo hit; the engine's own counters must not notice.
fn assert_inline_equals_precomputed(
    enriched: &[JobTemplate],
    raw: &[JobTemplate],
    features: &[[f64; 21]],
    predictor: &PerfPredictor,
    n_jobs: usize,
    rate: f64,
    seed: u64,
) {
    let config = SimConfig::default();
    let pre_jobs = sample_jobs(enriched, n_jobs, rate, seed).unwrap();
    let (raw_jobs, indices) = sample_jobs_indexed(raw, n_jobs, rate, seed).unwrap();
    let rows: Vec<&[f64]> = indices.iter().map(|&t| &features[t][..]).collect();
    // Every arrival timestamp is one decision point and one predict batch.
    let mut submits: Vec<u64> = raw_jobs.iter().map(|j| j.submit_time.to_bits()).collect();
    submits.sort_unstable();
    submits.dedup();

    let strategies = || mphpc_core::schedbridge::paper_strategies(seed ^ 0x5EED);
    let mut provider = PredictorRpv::new(predictor);
    for (mut s, mut ps) in strategies().into_iter().zip(strategies()) {
        let precomputed = simulate(&pre_jobs, ps.as_mut(), &config).unwrap();
        let inline = InlineRpv {
            features: &rows,
            provider: &mut provider,
        };
        let (inlined, stats) =
            simulate_full(&raw_jobs, &[], s.as_mut(), &config, Some(inline)).unwrap();
        assert_eq!(
            inlined, precomputed,
            "{} diverged on {n_jobs} jobs rate {rate} seed {seed}",
            precomputed.strategy
        );
        assert_eq!(stats.predict_rows, n_jobs as u64);
        assert_eq!(stats.predict_batches, submits.len() as u64);
        assert_eq!(stats.events_enqueued, 2 * n_jobs as u64);
        assert_eq!(stats.events_dequeued, 2 * n_jobs as u64);
    }
}

#[test]
fn bit_identity_1k_and_10k_across_thread_counts() {
    let (d, p) = setup();
    let enriched = templates_from_dataset(&d, &p).unwrap();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    for &n_jobs in &[1_000usize, 10_000] {
        for &threads in &[1usize, 2, 8] {
            // The engine is serial; the override exercises the
            // predictor's parallel batch inference, which must stay
            // deterministic for the schedules to match.
            mphpc_par::set_thread_override(Some(threads));
            assert_inline_equals_precomputed(&enriched, &raw, &features, &p, n_jobs, 0.05, 42);
        }
    }
    mphpc_par::set_thread_override(None);
}

#[test]
fn bit_identity_50k_reference_workload() {
    let (d, p) = setup();
    let enriched = templates_from_dataset(&d, &p).unwrap();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    // The paper's §VII shape: 50,000 jobs as a saturated backlog.
    for &threads in &[1usize, 2, 8] {
        mphpc_par::set_thread_override(Some(threads));
        assert_inline_equals_precomputed(&enriched, &raw, &features, &p, 50_000, 0.0, 7);
    }
    mphpc_par::set_thread_override(None);
}

/// Pure-local inline run: the baseline every federated run must equal.
fn local_outcomes(
    raw: &[JobTemplate],
    features: &[[f64; 21]],
    predictor: &PerfPredictor,
    n_jobs: usize,
    rate: f64,
    seed: u64,
) -> Vec<ScaleOutcome> {
    let mut provider = PredictorRpv::new(predictor);
    run_scale_comparison(raw, features, &mut provider, n_jobs, rate, seed).unwrap()
}

#[test]
fn federation_matches_local_and_survives_server_death() {
    let (d, p) = setup();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    // Spread arrivals so the simulation issues many predict batches —
    // room for the server to die between them.
    let (n_jobs, rate, seed) = (1_500usize, 2.0, 13);
    let baseline = local_outcomes(&raw, &features, &p, n_jobs, rate, seed);

    let start_server = || {
        let model = Arc::new(ServedPredictor::new(p.clone())) as Arc<dyn PredictModel>;
        let registry = Arc::new(ModelRegistry::new(predictor_loader()));
        registry.install("default", model);
        serve(ServeConfig::default(), registry).expect("serve")
    };

    // Healthy server for the whole run: every lookup answered remotely,
    // and — because request/response float rendering is shortest-
    // round-trip on both sides — bit-identical to the local predictor.
    let handle = start_server();
    let addr = handle.addr().to_string();
    let mut fed = FederatedRpv::new(
        &addr,
        "default",
        Duration::from_secs(10),
        16,
        Box::new(PredictorRpv::new(&p)),
    );
    let outcomes = run_scale_comparison(&raw, &features, &mut fed, n_jobs, rate, seed).unwrap();
    let stats = fed.stats();
    handle.shutdown();
    handle.join();
    for (f, l) in outcomes.iter().zip(&baseline) {
        assert_eq!(f.outcome, l.outcome, "healthy federation diverged");
    }
    assert!(!stats.degraded, "healthy server must not degrade");
    assert_eq!(stats.fallbacks, 0);
    assert_eq!(
        stats.rows,
        5 * n_jobs as u64,
        "one lookup per job per strategy"
    );
    assert_eq!(stats.requests, stats.responses);
    assert!(
        stats.requests <= stats.rows,
        "requests carry rows: {stats:?}"
    );
    assert!(stats.latency_us_max > 0);

    // Server killed mid-simulation: whatever prefix was answered
    // remotely, the rest falls back locally and the outcome is
    // indistinguishable.
    let handle = start_server();
    let addr = handle.addr().to_string();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        handle.shutdown();
        handle.join();
    });
    let mut fed = FederatedRpv::new(
        &addr,
        "default",
        Duration::from_secs(10),
        16,
        Box::new(PredictorRpv::new(&p)),
    );
    let outcomes = run_scale_comparison(&raw, &features, &mut fed, n_jobs, rate, seed).unwrap();
    killer.join().unwrap();
    let stats = fed.stats();
    for (f, l) in outcomes.iter().zip(&baseline) {
        assert_eq!(f.outcome, l.outcome, "mid-death federation diverged");
    }
    // A batch the server answered only in part falls back whole, so every
    // lookup is counted exactly once, as a remote row or a fallback row.
    assert_eq!(
        stats.rows + stats.fallbacks,
        5 * n_jobs as u64,
        "every lookup answered, remotely or locally: {stats:?}"
    );

    // Server already gone: clean immediate degradation, everything local.
    let mut fed = FederatedRpv::new(
        &addr,
        "default",
        Duration::from_secs(2),
        16,
        Box::new(PredictorRpv::new(&p)),
    );
    let outcomes = run_scale_comparison(&raw, &features, &mut fed, n_jobs, rate, seed).unwrap();
    let stats = fed.stats();
    for (f, l) in outcomes.iter().zip(&baseline) {
        assert_eq!(f.outcome, l.outcome, "dead-server federation diverged");
    }
    assert!(stats.degraded);
    assert_eq!(stats.fallbacks, 5 * n_jobs as u64);
    assert_eq!((stats.requests, stats.rows), (0, 0));
}
