//! Test-only oracle: the scheduling engine as it was before the
//! calendar-queue engine took over every caller (DESIGN.md §17) — a binary
//! heap of events, one reservation recomputed per blocked pass by sorting
//! every running job, no snapshot, no inline prediction — and the suite
//! that holds [`crate::engine`] bit-identical to it: same `SimResult`,
//! every job's start, end and machine.
//!
//! Kept deliberately simple and self-contained: it shares the cluster, the
//! strategies, the auditor and the result types with the engine, but none
//! of its event handling, reservation or backfill code.

use crate::audit::InvariantAuditor;
use crate::cluster::{Cluster, Running};
use crate::engine::{SimConfig, SimResult};
use crate::job::{Job, N_MACHINES};
use crate::metrics::{avg_bounded_slowdown, makespan, JobRecord};
use crate::strategy::MachineAssigner;
use mphpc_errors::MphpcError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The job generator the integration property tests use.
#[path = "../tests/common/mod.rs"]
mod common;

/// EASY reservation for a head job needing `nodes` on machine `m`, by
/// collecting and sorting the running set on every call: the
/// `(shadow_time, extra_nodes)` the cluster's running set must reproduce
/// from its maintained order.
pub fn reservation(cluster: &Cluster, m: usize, nodes: u32, now: f64) -> (f64, u32) {
    if cluster.can_start(m, nodes) {
        return (now, cluster.free_nodes(m) - nodes);
    }
    let mut ends: Vec<(f64, u64, u32)> = cluster
        .running(m)
        .map(|(end, job_id, r)| (end, job_id, r.nodes))
        .collect();
    ends.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut avail = cluster.free_nodes(m);
    for (end, _, freed) in ends {
        avail += freed;
        if avail >= nodes {
            return (end, avail - nodes);
        }
    }
    (f64::INFINITY, 0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrival(usize),
    Completion { machine: usize, job: usize },
}

/// Totally ordered event key: (time, tiebreak sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
struct EventKey(f64, u64);

impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The oracle: [`crate::engine::simulate_full`]'s contract for `jobs`,
/// `deps`, `strategy` and `config`, without inline prediction.
pub fn simulate_with_deps(
    jobs: &[Job],
    deps: &[Vec<usize>],
    strategy: &mut dyn MachineAssigner,
    config: &SimConfig,
) -> Result<SimResult, MphpcError> {
    for j in jobs {
        j.validate()?;
        if !(0..N_MACHINES).any(|m| j.nodes_required <= config.machines[m].total_nodes) {
            return Err(MphpcError::InvalidJob(format!(
                "job {} needs {} nodes and fits on no machine",
                j.id, j.nodes_required
            )));
        }
    }
    if !deps.is_empty() && deps.len() != jobs.len() {
        return Err(MphpcError::Simulation(format!(
            "deps length {} does not match {} jobs",
            deps.len(),
            jobs.len()
        )));
    }
    for (i, d) in deps.iter().enumerate() {
        if let Some(&bad) = d.iter().find(|&&j| j >= jobs.len()) {
            return Err(MphpcError::Simulation(format!(
                "job {i} depends on out-of-range index {bad}"
            )));
        }
        if d.contains(&i) {
            return Err(MphpcError::Simulation(format!("job {i} depends on itself")));
        }
    }
    let mut auditor = InvariantAuditor::new(config.audit || cfg!(debug_assertions));

    // Dependency bookkeeping: dependents[c] lists jobs unblocked by c's
    // completion; jobs with open dependencies arrive only once released.
    let mut remaining_deps: Vec<usize> = (0..jobs.len())
        .map(|i| deps.get(i).map_or(0, Vec::len))
        .collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
    for (i, d) in deps.iter().enumerate() {
        for &c in d {
            dependents[c].push(i);
        }
    }

    let mut cluster = Cluster::new(config.machines);
    let mut events: BinaryHeap<Reverse<(EventKey, Event)>> = BinaryHeap::new();
    // Monotonic tie-break for simultaneous events, shared by the start-job
    // closure and the completion handler.
    let seq = std::cell::Cell::new(0u64);
    let next_seq = || {
        let v = seq.get();
        seq.set(v + 1);
        v
    };
    for (idx, job) in jobs.iter().enumerate() {
        if remaining_deps[idx] == 0 {
            events.push(Reverse((
                EventKey(job.submit_time, next_seq()),
                Event::Arrival(idx),
            )));
        }
    }

    // Queue holds job indices, FCFS order (arrival events come in submit
    // order, so push_back maintains it).
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut start_time = vec![f64::NAN; jobs.len()];
    let mut end_time = vec![f64::NAN; jobs.len()];
    let mut machine_of = vec![usize::MAX; jobs.len()];
    let mut jobs_per_machine = [0u64; N_MACHINES];
    let mut node_seconds = [0.0f64; N_MACHINES];

    let mut start_job = |cluster: &mut Cluster,
                         events: &mut BinaryHeap<Reverse<(EventKey, Event)>>,
                         strategy: &mut dyn MachineAssigner,
                         auditor: &mut InvariantAuditor,
                         idx: usize,
                         m: usize,
                         now: f64|
     -> Result<(), MphpcError> {
        let job = &jobs[idx];
        let dur = job.runtime_on(m);
        auditor.observe_start(job.id, now)?;
        let seq = next_seq();
        let run = Running {
            nodes: job.nodes_required,
            seq,
            job: idx,
        };
        cluster.start(m, job.id, now + dur, run)?;
        start_time[idx] = now;
        end_time[idx] = now + dur;
        machine_of[idx] = m;
        jobs_per_machine[m] += 1;
        node_seconds[m] += dur * job.nodes_required as f64;
        events.push(Reverse((
            EventKey(now + dur, seq),
            Event::Completion {
                machine: m,
                job: idx,
            },
        )));
        strategy.notify_started(job, m);
        Ok(())
    };

    #[allow(clippy::while_let_loop)]
    while let Some(&Reverse((EventKey(now, _), _))) = events.peek() {
        // Apply every event at this timestamp before scheduling.
        while let Some(&Reverse((EventKey(t, _), ev))) = events.peek() {
            if t > now {
                break;
            }
            events.pop();
            match ev {
                Event::Arrival(idx) => queue.push_back(idx),
                Event::Completion { machine, job } => {
                    cluster.complete(machine, jobs[job].id, t)?;
                    // Release dependents whose last dependency just ended.
                    for &d in &dependents[job] {
                        remaining_deps[d] -= 1;
                        if remaining_deps[d] == 0 {
                            let at = jobs[d].submit_time.max(now);
                            events.push(Reverse((EventKey(at, next_seq()), Event::Arrival(d))));
                        }
                    }
                }
            }
        }
        auditor.observe_event_time(now)?;

        // Scheduling pass.
        'pass: loop {
            let Some(&head_idx) = queue.front() else {
                break;
            };
            let head = &jobs[head_idx];
            let m = strategy.choose(head, &cluster);
            if cluster.can_start(m, head.nodes_required) {
                queue.pop_front();
                start_job(
                    &mut cluster,
                    &mut events,
                    strategy,
                    &mut auditor,
                    head_idx,
                    m,
                    now,
                )?;
                continue 'pass;
            }
            // Head blocks: reserve and backfill (EASY). Candidates are
            // tried in R2 order. After each successful backfill the whole
            // pass restarts: the start may have advanced a stateful
            // strategy's counters (moving the head to a different
            // machine) and changed cluster state, so the reservation is
            // recomputed from scratch rather than reused stale — a stale
            // (shadow, extra) pair lets later candidates slip past a
            // reservation that no longer describes the head's machine,
            // delaying the head indefinitely.
            let (shadow, extra) = reservation(&cluster, m, head.nodes_required, now);
            auditor.record_reservation(head.id, m, shadow);
            let window = queue.len().min(1 + config.backfill_depth);
            // Pick the first startable candidate in the window (FCFS)
            // that cannot delay the reservation: on another
            // machine free capacity suffices; on the head's machine it
            // must finish by the shadow time or fit in the extra nodes.
            let mut chosen = None;
            #[allow(clippy::needless_range_loop)]
            for qi in 1..window {
                let cand_idx = queue[qi];
                let cand = &jobs[cand_idx];
                let cm = strategy.choose(cand, &cluster);
                if !cluster.can_start(cm, cand.nodes_required) {
                    continue;
                }
                let dur = cand.runtime_on(cm);
                let uses_extra = cm == m && now + dur > shadow;
                if uses_extra && cand.nodes_required > extra {
                    continue;
                }
                chosen = Some((qi, cm));
                break;
            }
            let Some((qi, cm)) = chosen else {
                break 'pass;
            };
            let cand_idx = queue[qi];
            queue.remove(qi);
            start_job(
                &mut cluster,
                &mut events,
                strategy,
                &mut auditor,
                cand_idx,
                cm,
                now,
            )?;
        }
        auditor.check_cluster(&cluster, now)?;
    }

    if let Some(idx) = (0..jobs.len()).find(|&i| end_time[i].is_nan()) {
        return Err(MphpcError::Simulation(format!(
            "job {} never completed (unsatisfiable or cyclic dependencies?)",
            jobs[idx].id
        )));
    }

    let records: Vec<JobRecord> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| JobRecord {
            job_id: j.id,
            submit: j.submit_time,
            start: start_time[i],
            end: end_time[i],
            machine: machine_of[i],
        })
        .collect();

    Ok(SimResult {
        strategy: strategy.name(),
        makespan: makespan(&records),
        avg_bounded_slowdown: avg_bounded_slowdown(&records),
        jobs_per_machine,
        node_seconds_per_machine: node_seconds,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::run;
    use crate::engine::{simulate, simulate_full, ScaleStats};
    use crate::strategy::{ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin};
    use crate::workload::{sample_jobs_indexed, JobTemplate};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::common::arb_jobs;

    fn small_config() -> SimConfig {
        let mut machines = crate::cluster::table1_cluster();
        for m in &mut machines {
            m.total_nodes = 3;
        }
        SimConfig {
            machines,
            backfill_depth: 16,
            audit: true,
        }
    }

    fn templates() -> Vec<JobTemplate> {
        vec![
            JobTemplate {
                nodes_required: 1,
                gpu_capable: false,
                runtimes: [10.0, 12.0, 14.0, 16.0],
                predicted_rpv: Some([1.0, 1.2, 1.4, 1.6]),
            },
            JobTemplate {
                nodes_required: 2,
                gpu_capable: true,
                runtimes: [30.0, 25.0, 12.0, 15.0],
                predicted_rpv: Some([2.5, 2.1, 1.0, 1.25]),
            },
            JobTemplate {
                nodes_required: 1,
                gpu_capable: true,
                runtimes: [45.0, 40.0, 20.0, 22.0],
                predicted_rpv: Some([2.3, 2.0, 1.0, 1.1]),
            },
        ]
    }

    fn strategies() -> Vec<Box<dyn MachineAssigner>> {
        vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomAssign::new(11)),
            Box::new(UserRoundRobin::new()),
            Box::new(ModelBased::new()),
            Box::new(Oracle::new()),
        ]
    }

    #[test]
    fn engine_matches_oracle_bitwise_across_strategies() {
        // Poisson arrivals → time actually advances, exercising both the
        // incremental path and full passes.
        let (jobs, _) = sample_jobs_indexed(&templates(), 600, 0.15, 42).unwrap();
        let cfg = small_config();
        for (mut old_s, mut new_s) in strategies().into_iter().zip(strategies()) {
            let oracle = simulate_with_deps(&jobs, &[], old_s.as_mut(), &cfg).unwrap();
            let (engine, stats) = simulate_full(&jobs, &[], new_s.as_mut(), &cfg).unwrap();
            assert_eq!(oracle, engine, "strategy {}", engine.strategy);
            assert!(stats.events_dequeued == stats.events_enqueued);
            assert!(stats.full_rescans > 0);
        }
    }

    #[test]
    fn batch_submission_matches_oracle() {
        // Everything at t=0: the calendar queue's degenerate case, and
        // a single giant decision point.
        let (jobs, _) = sample_jobs_indexed(&templates(), 500, 0.0, 7).unwrap();
        let cfg = small_config();
        let oracle = simulate_with_deps(&jobs, &[], &mut ModelBased::new(), &cfg).unwrap();
        assert_eq!(
            oracle,
            simulate(&jobs, &mut ModelBased::new(), &cfg).unwrap()
        );
    }

    #[test]
    fn incremental_path_used_and_identical() {
        // Arrivals far faster than service: heads block for long
        // stretches, so most arrival timestamps hit the snapshot.
        let (jobs, _) = sample_jobs_indexed(&templates(), 400, 1.0, 3).unwrap();
        let cfg = small_config();
        let oracle = simulate_with_deps(&jobs, &[], &mut Oracle::new(), &cfg).unwrap();
        let (engine, stats) = simulate_full(&jobs, &[], &mut Oracle::new(), &cfg).unwrap();
        assert_eq!(oracle, engine);
        assert!(
            stats.incremental_updates > 0,
            "congested trickle must hit the snapshot path: {stats:?}"
        );
    }

    /// 50,000 jobs submitted at once to the Table-I machines, on 40
    /// synthetic templates: the paper's §VII shape.
    fn saturated_backlog() -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(0x50_000);
        let templates: Vec<JobTemplate> = (0..40)
            .map(|_| {
                let runtimes = [(); N_MACHINES].map(|_| rng.gen_range(20.0..900.0));
                JobTemplate {
                    nodes_required: rng.gen_range(1..3),
                    gpu_capable: rng.gen(),
                    runtimes,
                    predicted_rpv: Some(runtimes.map(|t| t * rng.gen_range(0.7..1.4))),
                }
            })
            .collect();
        sample_jobs_indexed(&templates, 50_000, 0.0, 7).unwrap().0
    }

    #[test]
    fn saturated_backlog_of_50k_jobs_matches_oracle() {
        let jobs = saturated_backlog();
        let cfg = SimConfig::default();
        for (mut old_s, mut new_s) in strategies().into_iter().zip(strategies()) {
            let oracle = simulate_with_deps(&jobs, &[], old_s.as_mut(), &cfg).unwrap();
            let (engine, stats) = simulate_full(&jobs, &[], new_s.as_mut(), &cfg).unwrap();
            assert_eq!(oracle, engine, "strategy {}", engine.strategy);
            assert_eq!(stats.events_dequeued, 100_000);
        }
    }

    #[test]
    fn saturated_backlog_stats_are_pinned() {
        // Pinned from the engine whose calendar queue also held the
        // completions: (incremental updates, full rescans, reservations,
        // backfill attempts, backfill starts) of each strategy, with every
        // job's arrival and completion enqueued and applied once.
        let pins = [
            (37_007, 12_582, 13_997, 1_571_575, 1_733),
            (36_051, 12_372, 51_572, 6_317_285, 39_276),
            (35_104, 13_765, 37_658, 4_551_261, 24_093),
            (0, 44_125, 55_445, 139_005, 14_749),
            (0, 44_083, 55_741, 135_271, 15_086),
        ];
        let jobs = saturated_backlog();
        let cfg = SimConfig::default();
        for (mut s, pin) in strategies().into_iter().zip(pins) {
            let (_, stats) = simulate_full(&jobs, &[], s.as_mut(), &cfg).unwrap();
            let want = ScaleStats {
                events_enqueued: 100_000,
                events_dequeued: 100_000,
                incremental_updates: pin.0,
                full_rescans: pin.1,
                reservations: pin.2,
                backfill_attempts: pin.3,
                backfill_starts: pin.4,
                ..ScaleStats::default()
            };
            assert_eq!(stats, want, "{}", s.name());
        }
    }

    #[test]
    fn completions_elsewhere_resume_round_robins_blocked_pass() {
        // Before the snapshot outlived completions, this backlog cost
        // Round-Robin 49 589 full passes. Completions on machines other
        // than the head's reserved one must now resume the pass instead.
        let cfg = SimConfig::default();
        let (_, stats) =
            simulate_full(&saturated_backlog(), &[], &mut RoundRobin::new(), &cfg).unwrap();
        assert!(stats.full_rescans < 49_589 / 2, "{stats:?}");
        assert!(stats.incremental_updates > stats.full_rescans, "{stats:?}");
    }

    fn job(id: u64, submit: f64, nodes: u32, runtime: f64) -> Job {
        Job {
            id,
            submit_time: submit,
            nodes_required: nodes,
            gpu_capable: false,
            runtimes: [runtime; N_MACHINES],
            predicted_rpv: None,
        }
    }

    #[test]
    fn dependent_submitted_after_its_release_arrives_incrementally() {
        // Fork-join 0 → {1, 2} → 3 on one 3-node machine. The sink is
        // submitted at t=50, long after its last dependency ends at t=10,
        // so its release is a pure arrival — and it lands while job 5 sits
        // blocked behind job 4 (t=11..111), which is the snapshot's case.
        let mut cfg = small_config();
        for m in &mut cfg.machines[1..] {
            m.total_nodes = 0;
        }
        let jobs = vec![
            job(0, 0.0, 1, 5.0),
            job(1, 0.0, 1, 5.0),
            job(2, 0.0, 1, 5.0),
            job(3, 50.0, 1, 5.0),
            job(4, 11.0, 3, 100.0),
            job(5, 12.0, 3, 10.0),
        ];
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2], vec![], vec![]];
        let oracle = simulate_with_deps(&jobs, &deps, &mut RoundRobin::new(), &cfg).unwrap();
        let (engine, stats) = simulate_full(&jobs, &deps, &mut RoundRobin::new(), &cfg).unwrap();
        assert_eq!(oracle, engine);
        assert_eq!(
            engine.records[1].start, 5.0,
            "released when the source ends"
        );
        assert!(
            engine.records[3].start >= 111.0,
            "queued behind the blocked head"
        );
        assert!(stats.incremental_updates > 0, "{stats:?}");
    }

    #[test]
    fn tied_completions_release_dependents_in_start_order() {
        // Two one-node machines under Oracle. Job 2 starts on ruby at t=0,
        // job 1 on quartz at t=4; both end at t=10. Each has one dependent,
        // and the two dependents run equally fast anywhere, so the first
        // to join the queue takes quartz. The completions are applied in
        // start order (job 2 first), not in job-id or machine order.
        let mut cfg = small_config();
        for (m, nodes) in cfg.machines.iter_mut().zip([1, 1, 0, 0]) {
            m.total_nodes = nodes;
        }
        let on = |id: u64, submit: f64, runtimes: [f64; 2]| Job {
            runtimes: [runtimes[0], runtimes[1], 1.0, 1.0],
            ..job(id, submit, 1, 0.0)
        };
        let jobs = vec![
            on(1, 4.0, [6.0, 100.0]),
            on(2, 0.0, [100.0, 10.0]),
            on(3, 0.0, [5.0, 5.0]),
            on(4, 0.0, [5.0, 5.0]),
        ];
        let deps = vec![vec![], vec![], vec![0], vec![1]];
        let oracle = simulate_with_deps(&jobs, &deps, &mut Oracle::new(), &cfg).unwrap();
        let (engine, _) = simulate_full(&jobs, &deps, &mut Oracle::new(), &cfg).unwrap();
        assert_eq!(oracle, engine);
        let placed = |i: usize| (engine.records[i].start, engine.records[i].machine);
        assert_eq!((placed(0), placed(1)), ((4.0, 0), (0.0, 1)));
        assert_eq!(placed(3), (10.0, 0), "job 2's dependent queues first");
        assert_eq!(placed(2), (10.0, 1));
    }

    #[test]
    fn bad_dependencies_give_the_oracles_errors() {
        let jobs = vec![
            job(0, 0.0, 1, 1.0),
            job(1, 0.0, 1, 1.0),
            job(2, 0.0, 1, 1.0),
        ];
        let cfg = small_config();
        for (deps, expect) in [
            (
                vec![vec![1], vec![2], vec![0]],
                "job 0 never completed (unsatisfiable or cyclic dependencies?)",
            ),
            (
                vec![vec![], vec![3], vec![]],
                "job 1 depends on out-of-range index 3",
            ),
            (vec![vec![], vec![], vec![2]], "job 2 depends on itself"),
        ] {
            let oracle = simulate_with_deps(&jobs, &deps, &mut RoundRobin::new(), &cfg)
                .unwrap_err()
                .to_string();
            let engine = simulate_full(&jobs, &deps, &mut RoundRobin::new(), &cfg)
                .unwrap_err()
                .to_string();
            assert!(oracle.contains(expect), "{oracle}");
            assert_eq!(oracle, engine);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random jobs under a random forward-edge DAG (job `i` may depend
        /// only on jobs before it), on machines small enough to queue:
        /// every strategy, any window depth — always the oracle's
        /// schedule, and never a start before a dependency's end.
        #[test]
        fn random_dags_match_the_oracle(
            jobs in arb_jobs(60),
            edge_seed in any::<u64>(),
            coarse in any::<bool>(),
            depth in 0usize..20,
        ) {
            let mut jobs = jobs;
            if coarse {
                // Whole-second runtimes on a 50 s submission grid: arrivals,
                // completions and releases collide at the same instants.
                for j in &mut jobs {
                    j.submit_time = (j.submit_time / 50.0).floor() * 50.0;
                    j.runtimes = j.runtimes.map(f64::ceil);
                    j.predicted_rpv = j.predicted_rpv.map(|_| j.runtimes);
                }
            }
            let mut rng = StdRng::seed_from_u64(edge_seed);
            let deps: Vec<Vec<usize>> = (0..jobs.len())
                .map(|i| {
                    let mut d = Vec::new();
                    for _ in 0..3 {
                        if i > 0 && rng.gen_bool(0.4) {
                            d.push(rng.gen_range(0..i));
                        }
                    }
                    d.sort_unstable();
                    d.dedup();
                    d
                })
                .collect();
            let mut machines = crate::cluster::table1_cluster();
            for (m, nodes) in machines.iter_mut().zip([4, 3, 4, 3]) {
                m.total_nodes = nodes;
            }
            let cfg = SimConfig {
                machines,
                backfill_depth: depth,
                audit: true,
            };
            for (mut old_s, mut new_s) in strategies().into_iter().zip(strategies()) {
                let oracle = simulate_with_deps(&jobs, &deps, old_s.as_mut(), &cfg).unwrap();
                let (engine, stats) =
                    simulate_full(&jobs, &deps, new_s.as_mut(), &cfg).unwrap();
                prop_assert_eq!(&oracle, &engine, "strategy {}", engine.strategy);
                prop_assert_eq!(stats.events_dequeued, 2 * jobs.len() as u64);
                for (i, d) in deps.iter().enumerate() {
                    for &c in d {
                        prop_assert!(engine.records[i].start >= engine.records[c].end);
                    }
                }
            }
        }
    }

    #[test]
    fn a_scan_with_every_machine_full_consults_no_strategy() {
        // One node a machine: four jobs fill the pool at t=0 and the other
        // four queue behind a blocked head. The backfill scan then finds no
        // free node anywhere and examines no candidate; at t=10 the heads
        // start in turn, and at t=20 the queue is empty.
        let mut cfg = small_config();
        for m in &mut cfg.machines {
            m.total_nodes = 1;
        }
        let jobs: Vec<Job> = (0..8).map(|i| job(i, 0.0, 1, 10.0)).collect();
        let oracle = simulate_with_deps(&jobs, &[], &mut RoundRobin::new(), &cfg).unwrap();
        let (engine, stats) = simulate_full(&jobs, &[], &mut RoundRobin::new(), &cfg).unwrap();
        assert_eq!(oracle, engine);
        assert_eq!((stats.full_rescans, stats.reservations), (3, 1));
        assert_eq!(stats.backfill_attempts, 0, "{stats:?}");
    }

    /// A one-node job; `gpu` picks User+RR's machine group.
    fn unit_job(id: u64, gpu: bool, runtime: f64) -> Job {
        Job {
            gpu_capable: gpu,
            ..job(id, 0.0, 1, runtime)
        }
    }

    fn one_node_machines() -> SimConfig {
        let mut cfg = small_config();
        for m in &mut cfg.machines {
            m.total_nodes = 1;
        }
        cfg
    }

    #[test]
    fn a_scan_of_a_full_pool_leaves_its_positions_unknown() {
        // User+RR on one node a machine. At t=0 jobs 0-2 fill quartz, ruby
        // and lassen; head 3 blocks on quartz, 4 cannot start there, and 5
        // backfills onto corona. The restarted scan then finds every
        // machine full and asks no one: position 2, now job 6, must read
        // as unknown, not as job 5's corona. At t=5 lassen frees, away
        // from the head's quartz, and the resumed pass must start job 6
        // there.
        let cfg = one_node_machines();
        let jobs = vec![
            unit_job(0, false, 100.0),
            unit_job(1, false, 100.0),
            unit_job(2, true, 5.0),
            unit_job(3, false, 10.0),
            unit_job(4, false, 10.0),
            unit_job(5, true, 100.0),
            unit_job(6, true, 10.0),
        ];
        let oracle = simulate_with_deps(&jobs, &[], &mut UserRoundRobin::new(), &cfg).unwrap();
        let (engine, stats) = simulate_full(&jobs, &[], &mut UserRoundRobin::new(), &cfg).unwrap();
        assert_eq!(oracle, engine);
        assert_eq!(
            (engine.records[6].start, engine.records[6].machine),
            (5.0, 2)
        );
        assert_eq!(engine.records[3].start, 100.0, "{stats:?}");
    }

    #[test]
    fn a_completion_on_the_reserved_machine_forces_a_full_pass() {
        // Round-Robin on one node a machine: jobs 0-3 fill the pool and
        // head 4 reserves quartz, which frees at t=10. Resuming the stale
        // pass there would scan candidates and never start the head.
        let cfg = one_node_machines();
        let runtimes = [10.0, 100.0, 100.0, 100.0, 10.0, 1.0];
        let jobs: Vec<Job> = (0..6)
            .map(|i| job(i, 0.0, 1, runtimes[i as usize]))
            .collect();
        let oracle = simulate_with_deps(&jobs, &[], &mut RoundRobin::new(), &cfg).unwrap();
        let (engine, _) = simulate_full(&jobs, &[], &mut RoundRobin::new(), &cfg).unwrap();
        assert_eq!(oracle, engine);
        assert_eq!(
            (engine.records[4].start, engine.records[4].machine),
            (10.0, 0)
        );
    }

    /// Delegates to a paper strategy but keeps the trait's default `reads`.
    struct Defaulted(Box<dyn MachineAssigner>);

    impl MachineAssigner for Defaulted {
        fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize {
            self.0.choose(job, cluster)
        }
        fn notify_started(&mut self, job: &Job, machine: usize) {
            self.0.notify_started(job, machine)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    #[test]
    fn a_strategy_keeping_the_default_reads_runs_as_before() {
        // Pinned from the engine before it cached choices: (incremental
        // updates, full rescans, reservations, backfill attempts, backfill
        // starts) of each strategy on its own.
        let pins = [
            (14, 1180, 78, 45, 19),
            (65, 1135, 440, 435, 176),
            (19, 1181, 152, 62, 30),
        ];
        let (jobs, _) = sample_jobs_indexed(&templates(), 600, 0.15, 42).unwrap();
        let cfg = small_config();
        for (k, pin) in pins.into_iter().enumerate() {
            let defaulted = || Defaulted(strategies().swap_remove(k));
            let oracle = simulate_with_deps(&jobs, &[], &mut defaulted(), &cfg).unwrap();
            let (engine, st) = simulate_full(&jobs, &[], &mut defaulted(), &cfg).unwrap();
            assert_eq!(oracle, engine);
            let got = (st.incremental_updates, st.full_rescans, st.reservations);
            let got = (
                got.0,
                got.1,
                got.2,
                st.backfill_attempts,
                st.backfill_starts,
            );
            assert_eq!(got, pin, "{}", engine.strategy);
        }
    }

    fn four_node_cluster() -> Cluster {
        let mut configs = crate::cluster::table1_cluster();
        configs[0].total_nodes = 4;
        Cluster::new(configs)
    }

    #[test]
    fn oracle_reservation_waits_for_earliest_sufficient_completion() {
        let mut c = four_node_cluster();
        assert_eq!(reservation(&c, 0, 2, 5.0), (5.0, 2), "immediate when free");
        assert!(reservation(&c, 0, 100, 0.0).0.is_infinite(), "never fits");
        c.start(0, 1, 10.0, run(2, 0)).unwrap();
        c.start(0, 2, 20.0, run(2, 1)).unwrap();
        assert_eq!(reservation(&c, 0, 3, 0.0), (20.0, 1));
        assert_eq!(reservation(&c, 0, 2, 0.0), (10.0, 0));
    }

    #[test]
    fn oracle_reservation_tie_break_is_state_not_history() {
        // Two clusters with the same running set reached through
        // different insertion/removal histories must agree on the
        // reservation, including extra_nodes at tied end times.
        let mut a = four_node_cluster();
        a.start(0, 1, 10.0, run(1, 0)).unwrap();
        a.start(0, 2, 10.0, run(3, 1)).unwrap();
        let mut b = four_node_cluster();
        b.start(0, 9, 1.0, run(4, 0)).unwrap();
        b.complete(0, 9, 1.0).unwrap();
        b.start(0, 2, 10.0, run(3, 1)).unwrap();
        b.start(0, 1, 10.0, run(1, 2)).unwrap();
        // Canonical (end, job_id) walk: job 1 frees first, so the walk
        // must continue through job 2 → extra = 2. A Vec-order walk over
        // cluster `b` would stop at job 2 and report extra = 1.
        assert_eq!(reservation(&a, 0, 2, 0.0), (10.0, 2));
        assert_eq!(reservation(&b, 0, 2, 0.0), (10.0, 2));
    }
}
