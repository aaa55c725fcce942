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
use crate::cluster::Cluster;
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
/// `(shadow_time, extra_nodes)` the engine's free-slot profile must
/// reproduce from its maintained order.
pub fn reservation(cluster: &Cluster, m: usize, nodes: u32, now: f64) -> (f64, u32) {
    if cluster.can_start(m, nodes) {
        return (now, cluster.free_nodes(m) - nodes);
    }
    let mut ends: Vec<(f64, u64, u32)> = cluster
        .running(m)
        .iter()
        .map(|r| (r.end_time, r.job_id, r.nodes))
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
        cluster.start(m, job.id, job.nodes_required, now + dur)?;
        start_time[idx] = now;
        end_time[idx] = now + dur;
        machine_of[idx] = m;
        jobs_per_machine[m] += 1;
        node_seconds[m] += dur * job.nodes_required as f64;
        events.push(Reverse((
            EventKey(now + dur, next_seq()),
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
                    cluster.complete(machine, jobs[job].id)?;
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
    use crate::engine::{simulate, simulate_full, InlineRpv};
    use crate::federation::FnRpvProvider;
    use crate::strategy::{ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin};
    use crate::workload::{sample_jobs, JobTemplate};
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
        let jobs = sample_jobs(&templates(), 600, 0.15, 42).unwrap();
        let cfg = small_config();
        for (mut old_s, mut new_s) in strategies().into_iter().zip(strategies()) {
            let oracle = simulate_with_deps(&jobs, &[], old_s.as_mut(), &cfg).unwrap();
            let (engine, stats) = simulate_full(&jobs, &[], new_s.as_mut(), &cfg, None).unwrap();
            assert_eq!(oracle, engine, "strategy {}", engine.strategy);
            assert!(stats.events_dequeued == stats.events_enqueued);
            assert!(stats.full_rescans > 0);
        }
    }

    #[test]
    fn batch_submission_matches_oracle() {
        // Everything at t=0: the calendar queue's degenerate case, and
        // a single giant decision point.
        let jobs = sample_jobs(&templates(), 500, 0.0, 7).unwrap();
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
        let jobs = sample_jobs(&templates(), 400, 1.0, 3).unwrap();
        let cfg = small_config();
        let oracle = simulate_with_deps(&jobs, &[], &mut Oracle::new(), &cfg).unwrap();
        let (engine, stats) = simulate_full(&jobs, &[], &mut Oracle::new(), &cfg, None).unwrap();
        assert_eq!(oracle, engine);
        assert!(
            stats.incremental_updates > 0,
            "congested trickle must hit the snapshot path: {stats:?}"
        );
    }

    #[test]
    fn saturated_backlog_of_50k_jobs_matches_oracle() {
        // The paper's §VII shape — 50,000 jobs submitted at once to the
        // Table-I machines — on 40 synthetic templates.
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
        let jobs = sample_jobs(&templates, 50_000, 0.0, 7).unwrap();
        let cfg = SimConfig::default();
        for (mut old_s, mut new_s) in strategies().into_iter().zip(strategies()) {
            let oracle = simulate_with_deps(&jobs, &[], old_s.as_mut(), &cfg).unwrap();
            let (engine, stats) = simulate_full(&jobs, &[], new_s.as_mut(), &cfg, None).unwrap();
            assert_eq!(oracle, engine, "strategy {}", engine.strategy);
            assert_eq!(stats.events_dequeued, 100_000);
        }
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
        let (engine, stats) =
            simulate_full(&jobs, &deps, &mut RoundRobin::new(), &cfg, None).unwrap();
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
            let engine = simulate_full(&jobs, &deps, &mut RoundRobin::new(), &cfg, None)
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
        /// every strategy, any window depth, RPVs
        /// carried by the jobs or looked up inline — always the oracle's
        /// schedule, and never a start before a dependency's end.
        #[test]
        fn random_dags_match_the_oracle(
            jobs in arb_jobs(60),
            edge_seed in any::<u64>(),
            coarse in any::<bool>(),
            inline in any::<bool>(),
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
            // Inline: jobs without an RPV get one from their feature row;
            // the oracle sees the same values precomputed.
            let predict_row = |row: &[f64]| [1.0 + row[0], 2.0, 1.0 + row[1], 1.5];
            let features: Vec<[f64; 2]> =
                jobs.iter().map(|j| [(j.id % 5) as f64, j.nodes_required as f64]).collect();
            let rows: Vec<&[f64]> = features.iter().map(|f| &f[..]).collect();
            let mut oracle_jobs = jobs.clone();
            if inline {
                for (j, f) in oracle_jobs.iter_mut().zip(&features) {
                    j.predicted_rpv.get_or_insert(predict_row(f));
                }
            }
            for (mut old_s, mut new_s) in strategies().into_iter().zip(strategies()) {
                let oracle = simulate_with_deps(&oracle_jobs, &deps, old_s.as_mut(), &cfg).unwrap();
                let mut provider = FnRpvProvider::new("fake", |rows: &[&[f64]]| {
                    Ok(rows.iter().map(|r| predict_row(r)).collect())
                });
                let hookup = inline.then_some(InlineRpv { features: &rows, provider: &mut provider });
                let (engine, stats) =
                    simulate_full(&jobs, &deps, new_s.as_mut(), &cfg, hookup).unwrap();
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
        c.start(0, 1, 2, 10.0).unwrap();
        c.start(0, 2, 2, 20.0).unwrap();
        assert_eq!(reservation(&c, 0, 3, 0.0), (20.0, 1));
        assert_eq!(reservation(&c, 0, 2, 0.0), (10.0, 0));
    }

    #[test]
    fn oracle_reservation_tie_break_is_state_not_history() {
        // Two clusters with the same running set reached through
        // different insertion/removal histories must agree on the
        // reservation, including extra_nodes at tied end times.
        let mut a = four_node_cluster();
        a.start(0, 1, 1, 10.0).unwrap();
        a.start(0, 2, 3, 10.0).unwrap();
        let mut b = four_node_cluster();
        b.start(0, 9, 4, 1.0).unwrap();
        b.complete(0, 9).unwrap();
        b.start(0, 2, 3, 10.0).unwrap();
        b.start(0, 1, 1, 10.0).unwrap();
        // Canonical (end, job_id) walk: job 1 frees first, so the walk
        // must continue through job 2 → extra = 2. A Vec-order walk over
        // cluster `b` would stop at job 2 and report extra = 1.
        assert_eq!(reservation(&a, 0, 2, 0.0), (10.0, 2));
        assert_eq!(reservation(&b, 0, 2, 0.0), (10.0, 2));
    }
}
