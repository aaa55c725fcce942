//! Scheduling at scale with the real model (DESIGN.md §17): RPVs looked
//! up inline by the trained predictor must give the very schedule that
//! precomputed RPVs give — on seeded workloads across sizes and thread
//! counts — and so must RPVs federated from a live serving endpoint, also
//! when it dies mid-simulation. (Identity with the pre-calendar-queue
//! engine is the in-crate oracle suite's job: `crates/sched/src/reference.rs`.)

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use mphpc_core::prelude::*;
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_errors::MphpcError;
use mphpc_sched::engine::{predict_rpvs, simulate, simulate_full, SimConfig};
use mphpc_sched::{sample_jobs_indexed, FederatedRpv, JobTemplate, RpvProvider};
use mphpc_serve::{serve, ModelRegistry, PredictModel, ServeConfig, ServerHandle};

fn setup() -> (MpHpcDataset, PerfPredictor) {
    let d = collect(&CollectionConfig::small(6, 2, 2, 1810)).expect("collection");
    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 18).unwrap();
    (d, p)
}

/// Precomputed-RPV templates vs raw templates whose RPVs `predict_rpvs`
/// looks up — full `SimResult` equality (every job's start, end, and
/// machine), not just aggregates. One ask serves all five strategies, as
/// in `run_scale_comparison`.
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
    let (pre_jobs, _) = sample_jobs_indexed(enriched, n_jobs, rate, seed).unwrap();
    let (raw_jobs, indices) = sample_jobs_indexed(raw, n_jobs, rate, seed).unwrap();
    let rows: Vec<&[f64]> = indices.iter().map(|&t| &features[t][..]).collect();
    // Every arrival timestamp is one decision point and one predict batch.
    let mut submits: Vec<u64> = raw_jobs.iter().map(|j| j.submit_time.to_bits()).collect();
    submits.sort_unstable();
    submits.dedup();

    let strategies = || mphpc_core::schedbridge::paper_strategies(seed ^ 0x5EED);
    let mut jobs = raw_jobs;
    let asked = predict_rpvs(&mut jobs, &rows, &mut PredictorRpv::new(predictor)).unwrap();
    assert_eq!(asked.predict_rows, n_jobs as u64);
    assert_eq!(asked.predict_batches, submits.len() as u64);
    for (mut s, mut ps) in strategies().into_iter().zip(strategies()) {
        let precomputed = simulate(&pre_jobs, ps.as_mut(), &config).unwrap();
        let (inlined, stats) = simulate_full(&jobs, &[], s.as_mut(), &config).unwrap();
        assert_eq!(
            inlined, precomputed,
            "{} diverged on {n_jobs} jobs rate {rate} seed {seed}",
            precomputed.strategy
        );
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
            // One simulation is serial; the override exercises the
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

#[test]
fn bit_identity_with_rpv_entries_at_or_below_zero() {
    // A linear model extrapolates below zero for some rows; precomputed
    // and inline RPVs obey one rule, so both paths schedule them alike.
    let (d, _) = setup();
    let p = train_predictor(&d, ModelKind::Linear(Default::default()), 18).unwrap();
    let enriched = templates_from_dataset(&d, &p).unwrap();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    let nonpositive = enriched
        .iter()
        .filter(|t| t.predicted_rpv.unwrap().iter().any(|v| *v <= 0.0))
        .count();
    assert!(nonpositive > 0, "the dataset must exercise entries ≤ 0");
    assert_inline_equals_precomputed(&enriched, &raw, &features, &p, 10_000, 0.05, 42);
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

/// An in-process `mphpc serve` answering with `predictor` as "default".
fn start_server(predictor: &PerfPredictor) -> ServerHandle {
    let model = Arc::new(ServedPredictor::new(predictor.clone())) as Arc<dyn PredictModel>;
    let registry = Arc::new(ModelRegistry::new(predictor_loader()));
    registry.install("default", model);
    serve(ServeConfig::default(), registry).expect("serve")
}

#[test]
fn federation_matches_local_and_survives_server_death() {
    let (d, p) = setup();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    // Spread arrivals so the simulation issues many predict batches —
    // room for the server to die between them.
    let (n_jobs, rate, seed) = (1_500usize, 2.0, 13);
    let baseline = local_outcomes(&raw, &features, &p, n_jobs, rate, seed);

    // Healthy server for the whole run: every lookup answered remotely,
    // and — because request/response float rendering is shortest-
    // round-trip on both sides — bit-identical to the local predictor.
    let handle = start_server(&p);
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
    assert_eq!(stats.rows, n_jobs as u64, "one lookup per job");
    assert_eq!(stats.requests, stats.responses);
    assert!(
        stats.requests <= stats.rows,
        "requests carry rows: {stats:?}"
    );
    assert!(stats.latency_us_max > 0);

    // Server killed mid-simulation: whatever prefix was answered
    // remotely, the rest falls back locally and the outcome is
    // indistinguishable.
    let handle = start_server(&p);
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
        n_jobs as u64,
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
    assert_eq!(stats.fallbacks, n_jobs as u64);
    assert_eq!((stats.requests, stats.rows), (0, 0));
}

#[test]
fn federated_backlog_sends_each_distinct_row_once_per_comparison() {
    // All jobs submitted at time zero: one decision point, holding every
    // sampled job, so repeats are most of the batch.
    let (d, p) = setup();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    let (n_jobs, rate, seed) = (3_000usize, 0.0, 21);
    let baseline = local_outcomes(&raw, &features, &p, n_jobs, rate, seed);
    let (_, indices) = sample_jobs_indexed(&raw, n_jobs, rate, seed).unwrap();
    let distinct: HashSet<[u64; 21]> = indices
        .iter()
        .map(|&t| features[t].map(f64::to_bits))
        .collect();

    let handle = start_server(&p);
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
    let bits = |o: &ScaleOutcome| {
        let o = &o.outcome;
        (o.makespan.to_bits(), o.avg_bounded_slowdown.to_bits())
    };
    assert_eq!(outcomes.len(), baseline.len());
    for (f, l) in outcomes.iter().zip(&baseline) {
        assert_eq!(f.outcome, l.outcome, "federated backlog diverged");
        assert_eq!(bits(f), bits(l));
    }
    assert!(!stats.degraded);
    assert_eq!((stats.rows, stats.fallbacks), (n_jobs as u64, 0));
    assert!(distinct.len() < n_jobs, "the sample must repeat rows");
    assert_eq!(stats.sent_rows, distinct.len() as u64);
}

/// A provider that folds every call it forwards into an FNV-1a hash: each
/// call's row count, then the bits of its rows.
struct Recording<P> {
    inner: P,
    calls: u64,
    hash: u64,
}

impl<P> Recording<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            calls: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl<P: RpvProvider> RpvProvider for Recording<P> {
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; 4]>, MphpcError> {
        let bits = rows.iter().flat_map(|r| r.iter().map(|v| v.to_bits()));
        self.hash = std::iter::once(rows.len() as u64)
            .chain(bits)
            .fold(self.hash, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
            });
        self.calls += 1;
        self.inner.predict(rows)
    }
}

#[test]
fn strategies_simulated_side_by_side_ask_and_schedule_as_one_at_a_time() {
    // The comparison asks the provider once, then simulates its five
    // strategies side by side on up to `threads` workers: outcomes and the
    // provider's calls must not depend on how many.
    let (d, p) = setup();
    let (raw, features) = templates_from_dataset_raw(&d).unwrap();
    let handle = start_server(&p);
    let addr = handle.addr().to_string();
    for (n_jobs, rate) in [(3_000usize, 0.0), (1_500, 0.05)] {
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            mphpc_par::set_thread_override(Some(threads));
            let mut local = Recording::new(PredictorRpv::new(&p));
            let outcomes =
                run_scale_comparison(&raw, &features, &mut local, n_jobs, rate, 5).unwrap();
            let federated = FederatedRpv::new(
                &addr,
                "default",
                Duration::from_secs(10),
                16,
                Box::new(PredictorRpv::new(&p)),
            );
            let mut remote = Recording::new(federated);
            let fed_outcomes =
                run_scale_comparison(&raw, &features, &mut remote, n_jobs, rate, 5).unwrap();
            let stats = remote.inner.stats();
            assert_eq!(
                (stats.fallbacks, stats.degraded),
                (0, false),
                "{threads} threads"
            );
            let plain =
                |o: &[ScaleOutcome]| o.iter().map(|o| o.outcome.clone()).collect::<Vec<_>>();
            assert_eq!(plain(&fed_outcomes), plain(&outcomes), "{threads} threads");
            assert_eq!((remote.calls, remote.hash), (local.calls, local.hash));
            runs.push((plain(&outcomes), local.calls, local.hash));
        }
        mphpc_par::set_thread_override(None);
        assert!(
            runs.iter().all(|r| *r == runs[0]),
            "{n_jobs} jobs, rate {rate}"
        );
    }
    handle.shutdown();
    handle.join();
}
