//! Property-based tests of the scheduling engine's safety and liveness
//! invariants under arbitrary workloads.

use mphpc_sched::cluster::table1_cluster;
use mphpc_sched::engine::{simulate, SimConfig};
use mphpc_sched::strategy::{ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin};
use mphpc_sched::{Job, MachineAssigner};
use proptest::prelude::*;

mod common;
use common::arb_jobs;

fn strategies() -> Vec<Box<dyn MachineAssigner>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomAssign::new(99)),
        Box::new(UserRoundRobin::new()),
        Box::new(ModelBased::new()),
        Box::new(Oracle::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Liveness + safety: every job completes exactly once, no job starts
    /// before submission, runs exactly its machine runtime, and capacity
    /// is never exceeded (enforced by the cluster's internal assertions).
    #[test]
    fn every_strategy_completes_every_job(jobs in arb_jobs(60)) {
        let config = SimConfig::default();
        for mut s in strategies() {
            let r = simulate(&jobs, s.as_mut(), &config).unwrap();
            prop_assert_eq!(r.records.len(), jobs.len());
            for rec in &r.records {
                let job = jobs.iter().find(|j| j.id == rec.job_id).unwrap();
                prop_assert!(rec.start >= job.submit_time - 1e-9);
                let dur = rec.end - rec.start;
                prop_assert!((dur - job.runtimes[rec.machine]).abs() < 1e-9,
                    "job must run exactly its runtime on the chosen machine");
            }
            prop_assert_eq!(r.jobs_per_machine.iter().sum::<u64>(), jobs.len() as u64);
            prop_assert!(r.avg_bounded_slowdown >= 1.0);
        }
    }

    /// Makespan is bounded below by the best-case single job and above by
    /// fully serial execution on the slowest machine.
    #[test]
    fn makespan_bounds(jobs in arb_jobs(40)) {
        let config = SimConfig::default();
        let mut s = Oracle::new();
        let r = simulate(&jobs, &mut s, &config).unwrap();
        let min_any: f64 = jobs
            .iter()
            .map(|j| j.runtimes.iter().cloned().fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max);
        let serial_worst: f64 = jobs
            .iter()
            .map(|j| j.runtimes.iter().cloned().fold(0.0, f64::max))
            .sum::<f64>()
            + jobs.iter().map(|j| j.submit_time).fold(0.0, f64::max);
        prop_assert!(r.makespan >= min_any - 1e-9, "{} < {}", r.makespan, min_any);
        prop_assert!(r.makespan <= serial_worst + 1e-6, "{} > {}", r.makespan, serial_worst);
    }

    /// The oracle is never beaten by the model-based strategy when the
    /// model's predictions are exactly the true runtimes (they make the
    /// same choices, so results are identical).
    #[test]
    fn perfect_predictions_match_oracle(jobs in arb_jobs(40)) {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .map(|mut j| {
                j.predicted_rpv = Some(j.runtimes);
                j
            })
            .collect();
        let config = SimConfig::default();
        let mut m = ModelBased::new();
        let mut o = Oracle::new();
        let rm = simulate(&jobs, &mut m, &config).unwrap();
        let ro = simulate(&jobs, &mut o, &config).unwrap();
        prop_assert_eq!(rm.makespan, ro.makespan);
        prop_assert_eq!(rm.jobs_per_machine, ro.jobs_per_machine);
    }

    /// Work conservation on a single machine: the machine is never fully
    /// idle while a submitted job is still waiting. (Note that "EASY never
    /// exceeds strict FCFS's makespan" is NOT an invariant — backfilled
    /// jobs can pack worse for later arrivals — so we assert the guarantee
    /// EASY actually makes.)
    #[test]
    fn never_idle_while_work_waits(jobs in arb_jobs(30), depth in 0usize..64) {
        // Single-machine cluster isolates queueing effects; every job fits
        // when the machine is empty.
        let mut machines = table1_cluster();
        machines[0].total_nodes = 3;
        for m in &mut machines[1..] {
            m.total_nodes = 0;
        }
        let jobs: Vec<Job> = jobs
            .into_iter()
            .map(|mut j| {
                j.nodes_required = j.nodes_required.min(3);
                j
            })
            .collect();
        let config = SimConfig {
            machines,
            backfill_depth: depth,
            audit: true,
        };
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &config).unwrap();
        // Merge running intervals.
        let mut intervals: Vec<(f64, f64)> =
            r.records.iter().map(|rec| (rec.start, rec.end)).collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (s0, e0) in intervals {
            match merged.last_mut() {
                Some((_, e)) if s0 <= *e + 1e-9 => *e = e.max(e0),
                _ => merged.push((s0, e0)),
            }
        }
        // Every job's waiting window must be covered by running intervals.
        for rec in &r.records {
            if rec.start <= rec.submit + 1e-9 {
                continue;
            }
            let covered = merged
                .iter()
                .any(|&(s0, e0)| s0 <= rec.submit + 1e-9 && rec.start <= e0 + 1e-9);
            prop_assert!(
                covered,
                "job {} waited [{}, {}) while the machine sat idle",
                rec.job_id, rec.submit, rec.start
            );
        }
    }
}
