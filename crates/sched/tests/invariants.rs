//! Randomized invariant tests for the FCFS + EASY engine, run at several
//! thread counts.
//!
//! Unlike `properties.rs` (proptest shrinking over engine liveness), these
//! tests drive seeded random workloads through *every* assignment strategy
//! with the runtime auditor forced on
//! (`SimConfig::audit = true`), then re-verify the core safety invariants
//! from the emitted records alone:
//!
//! * node conservation — at no instant does any machine run more nodes
//!   than it has (checked by an interval sweep over the records);
//! * completeness — every job runs exactly once, starts no earlier than
//!   its submission, and runs exactly its runtime on the chosen machine;
//! * FCFS head priority — with backfilling disabled, starts on a single
//!   machine are ordered by submission;
//! * thread independence — simulations batched through `mphpc_par` give
//!   bit-identical results at 1, 2, and 8 worker threads.

use mphpc_sched::cluster::{table1_cluster, MachineConfig};
use mphpc_sched::engine::{simulate, SimConfig, SimResult};
use mphpc_sched::strategy::{ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin};
use mphpc_sched::{Job, MachineAssigner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small machines so random workloads actually queue and backfill.
/// Largest CPU and GPU machines hold 4 nodes, so every generated job
/// (1..=4 nodes) fits somewhere regardless of GPU capability.
fn small_machines() -> [MachineConfig; 4] {
    let mut machines = table1_cluster();
    machines[0].total_nodes = 4; // quartz (CPU)
    machines[1].total_nodes = 3; // ruby (CPU)
    machines[2].total_nodes = 4; // lassen (GPU)
    machines[3].total_nodes = 2; // corona (GPU)
    machines
}

fn random_jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let runtimes = [
                rng.gen_range(1.0..50.0),
                rng.gen_range(1.0..50.0),
                rng.gen_range(1.0..50.0),
                rng.gen_range(1.0..50.0),
            ];
            Job {
                id,
                submit_time: rng.gen_range(0.0..100.0),
                nodes_required: rng.gen_range(1..5) as u32,
                gpu_capable: rng.gen::<bool>(),
                runtimes,
                predicted_rpv: rng.gen::<bool>().then_some(runtimes),
            }
        })
        .collect()
}

fn strategies(seed: u64) -> Vec<Box<dyn MachineAssigner>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomAssign::new(seed)),
        Box::new(UserRoundRobin::new()),
        Box::new(ModelBased::new()),
        Box::new(Oracle::new()),
    ]
}

/// Re-verify safety invariants from the records alone (independently of
/// the engine's internal auditor).
fn check_invariants(jobs: &[Job], r: &SimResult, machines: &[MachineConfig; 4]) {
    assert_eq!(r.records.len(), jobs.len(), "every job completes once");
    for rec in &r.records {
        let job = jobs
            .iter()
            .find(|j| j.id == rec.job_id)
            .expect("record for a submitted job");
        assert!(
            rec.start >= job.submit_time - 1e-9,
            "job {} started at {} before submission {}",
            job.id,
            rec.start,
            job.submit_time
        );
        assert!(rec.machine < 4);
        let dur = rec.end - rec.start;
        assert!(
            (dur - job.runtimes[rec.machine]).abs() < 1e-9,
            "job {} ran {dur}s, expected {}s on machine {}",
            job.id,
            job.runtimes[rec.machine],
            rec.machine
        );
    }
    // Node conservation via interval sweep: +nodes at start, -nodes at
    // end, releases applied before acquisitions at equal times.
    for (m, machine) in machines.iter().enumerate() {
        let mut events: Vec<(f64, i64)> = Vec::new();
        for rec in r.records.iter().filter(|rec| rec.machine == m) {
            let nodes = jobs
                .iter()
                .find(|j| j.id == rec.job_id)
                .unwrap()
                .nodes_required as i64;
            events.push((rec.start, nodes));
            events.push((rec.end, -nodes));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut in_use = 0i64;
        for (t, delta) in events {
            in_use += delta;
            assert!(
                in_use <= machine.total_nodes as i64,
                "machine {m} over-subscribed at t={t}: {in_use} > {}",
                machine.total_nodes
            );
            assert!(in_use >= 0, "machine {m} released more than it held");
        }
    }
}

/// One simulation batch over all strategies for a seed; returns
/// makespans for cross-thread-count comparison.
fn run_batch(seed: u64) -> Vec<f64> {
    let machines = small_machines();
    let jobs = random_jobs(seed, 40);
    let mut makespans = Vec::new();
    for mut s in strategies(seed) {
        let cfg = SimConfig {
            machines,
            backfill_depth: 8,
            audit: true,
        };
        let r = simulate(&jobs, s.as_mut(), &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_invariants(&jobs, &r, &machines);
        makespans.push(r.makespan);
    }
    makespans
}

#[test]
fn randomized_invariants_hold_at_1_2_and_8_threads() {
    let seeds: Vec<u64> = (0..12).map(|i| 0xABC0 + i).collect();
    let mut per_thread_count: Vec<Vec<Vec<f64>>> = Vec::new();
    for &threads in &[1usize, 2, 8] {
        mphpc_par::set_thread_override(Some(threads));
        let results = mphpc_par::par_map(&seeds, |_, &seed| run_batch(seed));
        per_thread_count.push(results);
    }
    mphpc_par::set_thread_override(None);
    assert_eq!(
        per_thread_count[0], per_thread_count[1],
        "results differ between 1 and 2 threads"
    );
    assert_eq!(
        per_thread_count[0], per_thread_count[2],
        "results differ between 1 and 8 threads"
    );
}

#[test]
fn strict_fcfs_without_backfill_is_submit_ordered() {
    // One machine, no backfill window: starts must follow submission
    // order exactly, for every seed.
    let mut machines = table1_cluster();
    machines[0].total_nodes = 3;
    for m in &mut machines[1..] {
        m.total_nodes = 0;
    }
    for seed in 0..8u64 {
        let jobs: Vec<Job> = random_jobs(seed, 25)
            .into_iter()
            .map(|mut j| {
                j.nodes_required = j.nodes_required.min(3);
                j.gpu_capable = false;
                j
            })
            .collect();
        let cfg = SimConfig {
            machines,
            backfill_depth: 0,
            audit: true,
        };
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &cfg).unwrap();
        let mut by_submit: Vec<(f64, f64)> = r
            .records
            .iter()
            .map(|rec| {
                let j = jobs.iter().find(|j| j.id == rec.job_id).unwrap();
                (j.submit_time, rec.start)
            })
            .collect();
        by_submit.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in by_submit.windows(2) {
            assert!(
                w[0].1 <= w[1].1 + 1e-9,
                "later submission started first: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn audited_run_matches_unaudited_run() {
    // The auditor must be a pure observer: forcing it on cannot change
    // any scheduling decision.
    let machines = small_machines();
    let jobs = random_jobs(0xFEED, 30);
    for audit in [false, true] {
        let cfg = SimConfig {
            machines,
            backfill_depth: 8,
            audit,
        };
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &cfg).unwrap();
        check_invariants(&jobs, &r, &machines);
    }
    let run = |audit: bool| {
        let cfg = SimConfig {
            machines,
            backfill_depth: 8,
            audit,
        };
        let mut s = Oracle::new();
        simulate(&jobs, &mut s, &cfg).unwrap()
    };
    assert_eq!(run(false), run(true));
}
