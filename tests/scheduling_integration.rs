//! Scheduling integration: §VII's experiment shape on a reduced workload —
//! strategy ordering, conservation laws, and the oracle bound.

use mphpc_core::prelude::*;
use mphpc_sched::cluster::table1_cluster;
use mphpc_sched::engine::{simulate, SimConfig};
use mphpc_sched::sample_jobs_indexed;
use mphpc_sched::strategy::{ModelBased, UserRoundRobin};

fn setup() -> (MpHpcDataset, PerfPredictor) {
    let d = collect(&CollectionConfig::small(6, 2, 2, 606)).expect("collection");
    let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 6).unwrap();
    (d, p)
}

#[test]
fn figs7_8_shape_strategy_ordering() {
    // Model-based ≤ User+RR and below Round-Robin and Random on makespan
    // and bounded slowdown: the registry's claim, on this campaign.
    let ctx = mphpc_bench::Ctx::with_dataset(setup().0, mphpc_bench::ExpSize::Small, 31);
    let sched = mphpc_bench::experiment("sched").expect("registry entry");
    assert!(
        mphpc_bench::run_experiments(&ctx, &[sched]),
        "a claim is false"
    );
}

#[test]
fn every_strategy_conserves_jobs_and_capacity() {
    let (d, p) = setup();
    let templates = templates_from_dataset(&d, &p).unwrap();
    let (jobs, _) = sample_jobs_indexed(&templates, 1_000, 0.5, 77).unwrap();
    let config = SimConfig::default();
    let caps = table1_cluster();
    let mut strategies = mphpc_core::schedbridge::paper_strategies(1);
    for s in strategies.iter_mut() {
        let r = simulate(&jobs, s.as_mut(), &config).unwrap();
        assert_eq!(r.records.len(), 1_000);
        assert_eq!(r.jobs_per_machine.iter().sum::<u64>(), 1_000);
        // No job starts before submission or ends before it starts.
        for rec in &r.records {
            assert!(rec.start >= rec.submit - 1e-9);
            assert!(rec.end > rec.start);
            assert!(rec.machine < 4);
        }
        // Per-machine node-seconds cannot exceed capacity × makespan.
        for (m, cfg) in caps.iter().enumerate() {
            let cap = cfg.total_nodes as f64 * r.makespan;
            assert!(
                r.node_seconds_per_machine[m] <= cap + 1e-6,
                "{}: machine {m} over capacity",
                r.strategy
            );
        }
    }
}

#[test]
fn user_rr_respects_gpu_affinity_end_to_end() {
    let (d, p) = setup();
    let templates = templates_from_dataset(&d, &p).unwrap();
    let (jobs, _) = sample_jobs_indexed(&templates, 500, 0.0, 5).unwrap();
    let mut s = UserRoundRobin::new();
    let r = simulate(&jobs, &mut s, &SimConfig::default()).unwrap();
    let caps = table1_cluster();
    for rec in &r.records {
        let job = &jobs[rec.job_id as usize];
        assert_eq!(
            caps[rec.machine].has_gpu, job.gpu_capable,
            "User+RR must place GPU jobs on GPU machines and vice versa"
        );
    }
}

#[test]
fn arrival_rate_changes_contention_not_correctness() {
    let (d, p) = setup();
    let templates = templates_from_dataset(&d, &p).unwrap();
    for rate in [0.0, 0.1, 10.0] {
        let (jobs, _) = sample_jobs_indexed(&templates, 800, rate, 9).unwrap();
        let mut s = ModelBased::new();
        let r = simulate(&jobs, &mut s, &SimConfig::default()).unwrap();
        assert_eq!(r.records.len(), 800);
        assert!(r.avg_bounded_slowdown >= 1.0);
    }
}
