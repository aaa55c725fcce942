//! The scheduling engine: discrete-event FCFS + EASY backfilling
//! (Algorithm 1), the one event loop every caller runs.
//!
//! Events are job arrivals and completions. At every event timestamp the
//! scheduler runs a pass: start queue heads while they fit on their
//! assigned machines; once the head blocks, reserve it (shadow time + extra
//! nodes on its machine) and backfill later jobs that cannot delay the
//! reservation. Backfill candidates on *other* machines can never delay the
//! head, so they only need free capacity; candidates on the head's machine
//! must finish before the shadow time or fit in the extra nodes. After each
//! backfill start the pass restarts: the start may have advanced a stateful
//! strategy's counters (moving the head to a different machine) and changed
//! cluster state, so the reservation is recomputed rather than reused
//! stale — a stale `(shadow, extra)` pair lets later candidates slip past a
//! reservation that no longer describes the head's machine, delaying the
//! head indefinitely.
//!
//! Three structures carry that loop to millions of jobs:
//!
//! 1. **Calendar queue and running set.** Arrivals wait in the calendar
//!    queue ([`crate::calendar`]): O(1) amortized, with a deterministic
//!    `(time, seq)` total order. What runs is recorded once, in the
//!    [`Cluster`]: per machine, a map keyed by canonical
//!    `(end_time, job_id)`, O(log R) per start and completion. The next
//!    instant is the earlier of the calendar's head and the earliest end on
//!    any machine. A start takes the next `seq` for its completion;
//!    completions due at an instant are applied in `seq` order, then its
//!    arrivals drain — the order a single queue of both kinds would give,
//!    since a completion only moves the queue through the dependents it
//!    releases, and those take fresh `seq`s. A reservation is a short
//!    in-order prefix walk of the head's machine's map instead of a sort of
//!    every running job.
//!
//! 2. **Blocked-pass snapshot.** When a pass ends with the head blocked,
//!    the engine keeps its reservation, how far it scanned and, per window
//!    position, the machine the scan asked for (*unknown* where the
//!    free-node gate passed it over). Each job's `choose` answer is cached
//!    with an epoch that bumps only on what the strategy reads
//!    ([`Reads`]): never, on a start, or on a start or completion. A start
//!    ends the snapshot, as do a completion on the head's reserved machine
//!    and any completion under a strategy that reads free capacity.
//!    Otherwise the next decision point resumes the pass: the head's
//!    choice and reservation are unchanged, and a failed candidate can
//!    only have turned if its machine freed nodes (`can_start` reads that
//!    machine alone; the `now + dur > shadow` guard is monotone in `now`).
//!    The resume re-examines in FCFS order the positions whose machine
//!    just freed nodes or is unknown and now passes the gate, then scans
//!    the newly arrived suffix; with nothing freed, only the suffix.
//!    [`ScaleStats`] counts resumes and full passes.
//!
//! 3. **Free-node gate.** A scan with no free node on any machine ends at
//!    once, and a candidate wider than the most free nodes anywhere is
//!    passed over unasked: `can_start(cm, n)` needs `n ≤ free[cm]` whatever
//!    machine `cm` its strategy would choose, and `choose` is side-effect
//!    free. [`ScaleStats`] counts only the candidates it consulted.
//!
//! **Predictions** come before the loop: [`predict_rpvs`] asks the provider
//! once per arrival instant, as the loop's decision points did. For a
//! dependency-free job list those instants do not depend on the schedule,
//! and inference is batch-size invariant, so the RPVs are bitwise the ones
//! a precomputed run uses. Nor do they depend on the strategy: a
//! comparison asks once, and every strategy simulates the same list.
//!
//! **Dependencies** do not weaken the snapshot: a job with open
//! dependencies is not in the calendar at all; the completion that closes
//! its last one enqueues its arrival at `max(submit, now)`, and it joins
//! the queue's tail like any other arrival.
//!
//! The binary-heap, sort-per-pass engine this one replaced survives as the
//! `cfg(test)` oracle in `reference.rs`; its suite holds every schedule
//! here bit-identical to it.

use crate::audit::InvariantAuditor;
use crate::calendar::{CalendarQueue, EventKey};
use crate::cluster::{Cluster, MachineConfig, Running};
use crate::federation::RpvProvider;
use crate::job::{check_rpv, Job, N_MACHINES};
use crate::metrics::{avg_bounded_slowdown, makespan, JobRecord};
use crate::strategy::{MachineAssigner, Reads};
use mphpc_errors::MphpcError;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Machines in the pool.
    pub machines: [MachineConfig; N_MACHINES],
    /// How many queued jobs beyond the head each pass may examine for
    /// backfilling (production schedulers bound this; it also bounds the
    /// simulation's worst case to O(events × depth)).
    pub backfill_depth: usize,
    /// Force the [`crate::audit::InvariantAuditor`] on even in release
    /// builds. Debug builds (and release builds compiled with
    /// `-C debug-assertions`) always audit.
    pub audit: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            machines: crate::cluster::table1_cluster(),
            backfill_depth: 128,
            audit: false,
        }
    }
}

/// Aggregate results of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Strategy display name.
    pub strategy: &'static str,
    /// Total time from first submission to last completion (seconds).
    pub makespan: f64,
    /// Average bounded slowdown over all jobs.
    pub avg_bounded_slowdown: f64,
    /// Jobs started on each machine.
    pub jobs_per_machine: [u64; N_MACHINES],
    /// Node-seconds of work executed on each machine.
    pub node_seconds_per_machine: [f64; N_MACHINES],
    /// Per-job records (submit/start/end).
    pub records: Vec<JobRecord>,
}

/// Operational counters from one [`simulate_full`] run (the `predict_*`
/// fields from one [`predict_rpvs`] call). Schedule outputs live in
/// [`SimResult`]; these describe how the engine got there. Each field is
/// also flushed once, at the end of the run, to the telemetry counter named
/// in its doc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Events scheduled: an arrival pushed into the calendar queue, or a
    /// start's completion entered into the running set
    /// (`sched.events.enqueued`).
    pub events_enqueued: u64,
    /// Events applied: an arrival popped from the calendar queue, or a
    /// completion taken off the running set (`sched.events.dequeued`).
    pub events_dequeued: u64,
    /// Decision points answered by resuming the blocked-pass snapshot with
    /// the head still blocked: the positions a completion may have turned
    /// and the newly arrived suffix were scanned
    /// (`sched.backfill.incremental_updates`).
    pub incremental_updates: u64,
    /// Full scheduling passes: a decision point the snapshot could not
    /// answer, or a resume that started a job
    /// (`sched.backfill.full_rescans`).
    pub full_rescans: u64,
    /// EASY reservations computed — full passes only; snapshot hits reuse
    /// the stored reservation (`sched.reservations`).
    pub reservations: u64,
    /// Backfill candidates examined: past the free-node gate and without a
    /// failure the snapshot still vouches for, their machine asked of the
    /// strategy or read from its cache (`sched.backfill.attempts`).
    pub backfill_attempts: u64,
    /// Jobs started by backfilling past a blocked head
    /// (`sched.backfill.starts`).
    pub backfill_starts: u64,
    /// Provider calls, one per arrival instant (`sched.predict.batches`).
    pub predict_batches: u64,
    /// Feature rows the provider was asked for (`sched.predict.rows`).
    pub predict_rows: u64,
    /// Wall-clock microseconds spent inside the provider — the serving
    /// latency term when the provider is federated
    /// (`sched.predict.us_total`).
    pub predict_us_total: u64,
}

/// What a blocked head holds: backfilled jobs must not delay it.
#[derive(Clone, Copy)]
struct Reservation {
    machine: usize,
    shadow: f64,
    extra: u32,
}

/// Snapshot of a pass that ended with the head blocked (point 2 of the
/// module doc).
struct Blocked {
    head_idx: usize,
    held: Reservation,
    /// Candidates `1..scanned` failed; only a freed machine can turn them.
    scanned: usize,
}

/// A `seen` mask bit for a position whose machine no scan has asked.
const UNKNOWN: u8 = 1 << N_MACHINES;

/// Everything one run mutates, so the loop's steps can be methods.
struct Engine<'a> {
    jobs: &'a [Job],
    strategy: &'a mut dyn MachineAssigner,
    config: &'a SimConfig,
    cluster: Cluster,
    /// Arrivals, by job index.
    arrivals: CalendarQueue<usize>,
    /// Monotonic tie-break for simultaneous events.
    seq: u64,
    /// Job indices in FCFS order (arrival events come in submit order, so
    /// `push_back` maintains it).
    queue: VecDeque<usize>,
    start_time: Vec<f64>,
    end_time: Vec<f64>,
    machine_of: Vec<usize>,
    jobs_per_machine: [u64; N_MACHINES],
    node_seconds: [f64; N_MACHINES],
    stats: ScaleStats,
    auditor: InvariantAuditor,
    reads: Reads,
    /// Bumped on every change to what `reads` names.
    epoch: u64,
    /// Each job's last `choose` answer and the epoch it was given in.
    choice: Vec<(u64, usize)>,
    /// Per window position, what its last scan saw: `1 << machine` if it
    /// was examined, [`UNKNOWN`] if the free-node gate passed over it.
    seen: Vec<u8>,
}

impl Engine<'_> {
    /// The next event sequence number: every arrival and every start's
    /// completion takes one, and counts as enqueued.
    fn next_seq(&mut self) -> u64 {
        self.stats.events_enqueued += 1;
        self.seq += 1;
        self.seq - 1
    }

    fn enqueue_arrival(&mut self, time: f64, idx: usize) {
        let key = EventKey::new(time, self.next_seq());
        self.arrivals.push(key, idx);
    }

    /// Job `idx`'s machine, asked of the strategy once per epoch.
    fn choose(&mut self, idx: usize) -> usize {
        if self.choice[idx].0 != self.epoch {
            let m = self.strategy.choose(&self.jobs[idx], &self.cluster);
            self.choice[idx] = (self.epoch, m);
        }
        self.choice[idx].1
    }

    /// One job start: running set + bookkeeping, with the next `seq` for
    /// its completion. A start invalidates any blocked-pass snapshot
    /// (cluster and strategy state both change); every caller holds none.
    fn start(&mut self, idx: usize, m: usize, now: f64) -> Result<(), MphpcError> {
        if self.reads >= Reads::Starts {
            self.epoch += 1;
        }
        let job = &self.jobs[idx];
        let dur = job.runtime_on(m);
        self.auditor.observe_start(job.id, now)?;
        let run = Running {
            nodes: job.nodes_required,
            seq: self.next_seq(),
            job: idx,
        };
        self.cluster.start(m, job.id, now + dur, run)?;
        self.start_time[idx] = now;
        self.end_time[idx] = now + dur;
        self.machine_of[idx] = m;
        self.jobs_per_machine[m] += 1;
        self.node_seconds[m] += dur * job.nodes_required as f64;
        self.strategy.notify_started(job, m);
        Ok(())
    }

    /// Queue positions a pass may examine: the head plus `backfill_depth`.
    fn window(&self) -> usize {
        self.queue.len().min(1 + self.config.backfill_depth)
    }

    /// The backfill-candidate scan: the first job at queue positions
    /// `range` (FCFS, Algorithm 1's `R2` policy in the paper) that can
    /// start now without delaying the reservation `held` — on another
    /// machine free capacity suffices; on the head's machine it must
    /// finish by the shadow time or fit in the extra nodes. Returns its
    /// queue position and machine. Behind the free-node gate (point 3 of
    /// the module doc): no job wider than every machine's free nodes can
    /// start, so its strategy is not consulted. Each position's outcome
    /// goes to `seen`; positions below `failed` failed a scan before, and
    /// one whose `seen` mask misses `turnable` still fails (point 2).
    fn backfill_candidate(
        &mut self,
        range: Range<usize>,
        (failed, turnable): (usize, u8),
        held: Reservation,
        now: f64,
    ) -> Option<(usize, usize)> {
        let most_free = (0..N_MACHINES).map(|m| self.cluster.free_nodes(m)).max();
        let most_free = most_free.unwrap_or(0);
        if most_free == 0 {
            self.seen[range].fill(UNKNOWN);
            return None;
        }
        let mut chosen = None;
        // Counted locally: the scan is the engine's innermost loop.
        let mut attempts = 0u64;
        for qi in range {
            if qi < failed && self.seen[qi] & turnable == 0 {
                continue;
            }
            let idx = self.queue[qi];
            if self.jobs[idx].nodes_required > most_free {
                self.seen[qi] = UNKNOWN;
                continue;
            }
            attempts += 1;
            let cm = self.choose(idx);
            self.seen[qi] = 1 << cm;
            let cand = &self.jobs[idx];
            if !self.cluster.can_start(cm, cand.nodes_required) {
                continue;
            }
            let dur = cand.runtime_on(cm);
            let uses_extra = cm == held.machine && now + dur > held.shadow;
            if uses_extra && cand.nodes_required > held.extra {
                continue;
            }
            chosen = Some((qi, cm));
            break;
        }
        self.stats.backfill_attempts += attempts;
        chosen
    }

    /// Start the backfill candidate at queue position `qi` on machine `m`.
    fn start_backfill(&mut self, qi: usize, m: usize, now: f64) -> Result<(), MphpcError> {
        self.stats.backfill_starts += 1;
        let idx = self.queue.remove(qi).expect("scanned position");
        self.start(idx, m, now)
    }

    /// A full scheduling pass at `now`. Returns the snapshot to resume
    /// from if it ends with the head blocked.
    fn full_pass(&mut self, now: f64) -> Result<Option<Blocked>, MphpcError> {
        self.stats.full_rescans += 1;
        loop {
            let Some(&head_idx) = self.queue.front() else {
                return Ok(None);
            };
            let m = self.choose(head_idx);
            let head = &self.jobs[head_idx];
            if self.cluster.can_start(m, head.nodes_required) {
                self.queue.pop_front();
                self.start(head_idx, m, now)?;
                continue;
            }
            let (shadow, extra) = self.cluster.reservation(m, head.nodes_required, now);
            self.auditor.record_reservation(head.id, m, shadow);
            self.stats.reservations += 1;
            let held = Reservation {
                machine: m,
                shadow,
                extra,
            };
            let window = self.window();
            match self.backfill_candidate(1..window, (0, 0), held, now) {
                Some((qi, cm)) => self.start_backfill(qi, cm, now)?,
                None => {
                    return Ok(Some(Blocked {
                        head_idx,
                        held,
                        scanned: window,
                    }))
                }
            }
        }
    }
}

/// [`simulate_full`] for callers without dependencies.
pub fn simulate(
    jobs: &[Job],
    strategy: &mut dyn MachineAssigner,
    config: &SimConfig,
) -> Result<SimResult, MphpcError> {
    simulate_full(jobs, &[], strategy, config).map(|(result, _)| result)
}

/// Give every job of a dependency-free list that lacks an RPV the one
/// `provider` answers for its row `features[i]`, in the calls the event
/// loop's decision points made: one per instant at which such jobs arrive,
/// instants and their rows in the calendar's `(time, seq)` pop order (seq
/// is the job's index), `-0.0` and `0.0` one instant as IEEE `>` batches
/// them. Every answer must pass [`check_rpv`].
pub fn predict_rpvs(
    jobs: &mut [Job],
    features: &[&[f64]],
    provider: &mut dyn RpvProvider,
) -> Result<ScaleStats, MphpcError> {
    if features.len() != jobs.len() {
        let msg = format!(
            "inline rpv: {} feature rows for {} jobs",
            features.len(),
            jobs.len()
        );
        return Err(MphpcError::Simulation(msg));
    }
    // A stable sort keeps an instant's jobs in index order.
    let mut asked: Vec<usize> = (0..jobs.len())
        .filter(|&i| jobs[i].predicted_rpv.is_none())
        .collect();
    asked.sort_by(|&a, &b| jobs[a].submit_time.total_cmp(&jobs[b].submit_time));
    let (mut stats, mut rest) = (ScaleStats::default(), &asked[..]);
    while let Some(&first) = rest.first() {
        let now = jobs[first].submit_time;
        let later = rest.iter().position(|&i| jobs[i].submit_time > now);
        let (instant, tail) = rest.split_at(later.unwrap_or(rest.len()));
        rest = tail;
        let rows: Vec<&[f64]> = instant.iter().map(|&i| features[i]).collect();
        let started = Instant::now();
        let rpvs = provider.predict(&rows)?;
        let us = started.elapsed().as_micros() as u64;
        stats.predict_batches += 1;
        stats.predict_rows += rows.len() as u64;
        stats.predict_us_total += us;
        mphpc_telemetry::histogram_record("sched.predict.lookup_us", us as f64 / rows.len() as f64);
        if rpvs.len() != rows.len() {
            return Err(MphpcError::Simulation(format!(
                "rpv provider returned {} predictions for {} rows",
                rpvs.len(),
                rows.len()
            )));
        }
        for (&i, rpv) in instant.iter().zip(rpvs) {
            let named = |err: MphpcError| {
                err.context(format!("answer of rpv provider {}", provider.name()))
            };
            check_rpv(jobs[i].id, &rpv).map_err(named)?;
            jobs[i].predicted_rpv = Some(rpv);
        }
    }
    mphpc_telemetry::counter_add("sched.predict.batches", stats.predict_batches);
    mphpc_telemetry::counter_add("sched.predict.rows", stats.predict_rows);
    mphpc_telemetry::counter_add("sched.predict.us_total", stats.predict_us_total);
    Ok(stats)
}

/// Run the simulation of `jobs` under `strategy`.
///
/// Jobs may arrive in any order; the queue is FCFS by submit time (ties by
/// position in `jobs`). Invalid jobs are rejected up front as
/// [`MphpcError::InvalidJob`]; internal bookkeeping bugs surface as
/// [`MphpcError::InvariantViolation`] (see [`crate::audit`]) instead of
/// panicking.
///
/// `deps[i]` lists the indices of jobs that must complete before job `i`
/// becomes eligible (its effective submit time is then the max of its own
/// submit time and its last dependency's completion); an empty `deps`
/// slice means no dependencies. Dependent jobs join the same global queue
/// and contend for the same nodes as everything else — this is the
/// substrate for workflow (DAG) scheduling in [`crate::dag`].
pub fn simulate_full(
    jobs: &[Job],
    deps: &[Vec<usize>],
    strategy: &mut dyn MachineAssigner,
    config: &SimConfig,
) -> Result<(SimResult, ScaleStats), MphpcError> {
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
    let _sim_span = mphpc_telemetry::span!("sched.simulate", jobs = jobs.len());

    // Dependency bookkeeping, empty when there are no dependencies at all:
    // `dependents[c]` lists the jobs unblocked by c's completion; a job
    // with open dependencies arrives only once the last one completes.
    let mut open_deps: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); deps.len()];
    for (i, d) in deps.iter().enumerate() {
        for &c in d {
            dependents[c].push(i);
        }
    }

    let mut e = Engine {
        reads: strategy.reads(),
        jobs,
        strategy,
        config,
        cluster: Cluster::new(config.machines),
        arrivals: CalendarQueue::new(),
        seq: 0,
        queue: VecDeque::new(),
        start_time: vec![f64::NAN; jobs.len()],
        end_time: vec![f64::NAN; jobs.len()],
        machine_of: vec![usize::MAX; jobs.len()],
        jobs_per_machine: [0; N_MACHINES],
        node_seconds: [0.0; N_MACHINES],
        stats: ScaleStats::default(),
        auditor: InvariantAuditor::new(config.audit || cfg!(debug_assertions)),
        epoch: 0,
        choice: vec![(u64::MAX, 0); jobs.len()],
        seen: vec![UNKNOWN; jobs.len().min(1 + config.backfill_depth)],
    };
    for (idx, job) in jobs.iter().enumerate() {
        if open_deps.get(idx).map_or(true, |&n| n == 0) {
            e.enqueue_arrival(job.submit_time, idx);
        }
    }

    let mut blocked: Option<Blocked> = None;
    let mut due: Vec<(usize, f64, Running)> = Vec::new();

    loop {
        let arrival = e.arrivals.peek_key().map(EventKey::time);
        let end = e.cluster.next_end();
        let Some(now) = arrival.into_iter().chain(end).min_by(f64::total_cmp) else {
            break;
        };
        // Apply every event at this timestamp before scheduling (IEEE `>`
        // batching, so -0.0 and 0.0 coalesce): the completions in `seq`
        // order, then the arrivals. A dependent released at `now` is pushed
        // while its completion is applied and leaves with this instant's
        // arrivals, after everything already queued for `now`.
        e.cluster.complete_due(now, &mut due);
        due.sort_unstable_by_key(|d| d.2.seq);
        let mut freed = 0u8;
        for &(m, end, run) in &due {
            e.stats.events_dequeued += 1;
            e.auditor.observe_completion(end, run.seq)?;
            freed |= 1 << m;
            if e.reads == Reads::FreeCapacity {
                e.epoch += 1;
            }
            for &d in dependents.get(run.job).map_or(&[][..], Vec::as_slice) {
                open_deps[d] -= 1;
                if open_deps[d] == 0 {
                    e.enqueue_arrival(e.jobs[d].submit_time.max(now), d);
                }
            }
        }
        due.clear();
        while let Some(k) = e.arrivals.peek_key().filter(|k| k.time() <= now) {
            let (_, idx) = e.arrivals.pop().expect("peeked");
            e.stats.events_dequeued += 1;
            e.auditor.observe_arrival(k.time(), k.seq)?;
            e.queue.push_back(idx);
        }
        e.auditor.observe_event_time(now)?;

        // Resume the blocked pass if nothing the head's choice and
        // reservation read has changed (point 2 of the module doc); with
        // nothing freed, only the arrivals since can start.
        let capacity_read = freed != 0 && e.reads == Reads::FreeCapacity;
        let stale = |b: &Blocked| capacity_read || freed & (1 << b.held.machine) != 0;
        if let Some(b) = blocked.take().filter(|b| !stale(b)) {
            debug_assert_eq!(e.queue.front(), Some(&b.head_idx));
            let window = e.window();
            let from = if freed == 0 { b.scanned } else { 1 };
            match e.backfill_candidate(from..window, (b.scanned, freed | UNKNOWN), b.held, now) {
                None => {
                    e.stats.incremental_updates += 1;
                    blocked = Some(Blocked {
                        scanned: window,
                        ..b
                    });
                }
                // Starting it invalidates the snapshot; the full pass
                // below finishes this decision point.
                Some((qi, cm)) => e.start_backfill(qi, cm, now)?,
            }
        }
        if blocked.is_none() {
            blocked = e.full_pass(now)?;
        }

        e.auditor.check_cluster(&e.cluster, now)?;
    }

    // Counters accumulate in `stats` and reach the global registry once:
    // the event loop must not touch it per event.
    if mphpc_telemetry::enabled() {
        let s = &e.stats;
        // Jobs scheduled on an RPV with an entry ≤ 0: legal, and counted.
        let low = |j: &&Job| j.predicted_rpv.is_some_and(|r| !r.iter().all(|v| *v > 0.0));
        let nonpositive = e.jobs.iter().filter(low).count();
        for (name, value) in [
            ("sched.jobs", jobs.len() as u64),
            ("sched.events.enqueued", s.events_enqueued),
            ("sched.events.dequeued", s.events_dequeued),
            ("sched.backfill.incremental_updates", s.incremental_updates),
            ("sched.backfill.full_rescans", s.full_rescans),
            ("sched.reservations", s.reservations),
            ("sched.backfill.attempts", s.backfill_attempts),
            ("sched.backfill.starts", s.backfill_starts),
            ("sched.predict.nonpositive", nonpositive as u64),
            ("sched.audit.checks_passed", e.auditor.checks_passed()),
        ] {
            mphpc_telemetry::counter_add(name, value);
        }
    }

    if let Some(idx) = e.end_time.iter().position(|t| t.is_nan()) {
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
            start: e.start_time[i],
            end: e.end_time[i],
            machine: e.machine_of[i],
        })
        .collect();

    Ok((
        SimResult {
            strategy: e.strategy.name(),
            makespan: makespan(&records),
            avg_bounded_slowdown: avg_bounded_slowdown(&records),
            jobs_per_machine: e.jobs_per_machine,
            node_seconds_per_machine: e.node_seconds,
            records,
        },
        e.stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::run;
    use crate::federation::FnRpvProvider;
    use crate::strategy::{ModelBased, Oracle, RoundRobin, UserRoundRobin};

    fn small_config() -> SimConfig {
        let mut machines = crate::cluster::table1_cluster();
        for m in &mut machines {
            m.total_nodes = 2;
        }
        SimConfig {
            machines,
            backfill_depth: 16,
            audit: true,
        }
    }

    fn job(id: u64, submit: f64, nodes: u32, runtimes: [f64; 4]) -> Job {
        Job {
            id,
            submit_time: submit,
            nodes_required: nodes,
            gpu_capable: false,
            runtimes,
            predicted_rpv: Some(runtimes),
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = vec![job(1, 0.0, 1, [5.0, 5.0, 5.0, 5.0])];
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &small_config()).unwrap();
        assert_eq!(r.makespan, 5.0);
        assert_eq!(r.avg_bounded_slowdown, 1.0);
        assert_eq!(r.jobs_per_machine.iter().sum::<u64>(), 1);
    }

    #[test]
    fn oracle_places_on_fastest() {
        let jobs = vec![job(1, 0.0, 1, [10.0, 2.0, 30.0, 40.0])];
        let mut s = Oracle::new();
        let r = simulate(&jobs, &mut s, &small_config()).unwrap();
        assert_eq!(r.makespan, 2.0);
        assert_eq!(r.jobs_per_machine[1], 1);
    }

    #[test]
    fn model_based_follows_predictions_even_when_wrong() {
        let mut j = job(1, 0.0, 1, [10.0, 2.0, 30.0, 40.0]);
        j.predicted_rpv = Some([1.0, 5.0, 5.0, 5.0]); // wrongly prefers m0
        let mut s = ModelBased::new();
        let r = simulate(&[j], &mut s, &small_config()).unwrap();
        assert_eq!(r.jobs_per_machine[0], 1);
        assert_eq!(r.makespan, 10.0, "pays the true runtime on the wrong pick");
    }

    #[test]
    fn queueing_when_machine_full() {
        // Two 2-node jobs on the same machine: second must wait.
        let jobs = vec![
            job(1, 0.0, 2, [10.0, 10.0, 10.0, 10.0]),
            job(2, 0.0, 2, [10.0, 10.0, 10.0, 10.0]),
        ];
        let mut s = Oracle::new();
        let r = simulate(&jobs, &mut s, &small_config()).unwrap();
        // Oracle fallback sends the second to another machine (all equal
        // speed, first free one wins): both finish at 10.
        assert_eq!(r.makespan, 10.0);
    }

    #[test]
    fn backfill_small_job_does_not_delay_head() {
        // Machine 0 only (make the others unusable by requiring 2 nodes
        // and shrinking them).
        let mut machines = crate::cluster::table1_cluster();
        machines[0].total_nodes = 3;
        for m in &mut machines[1..] {
            m.total_nodes = 0;
        }
        let cfg = SimConfig {
            machines,
            backfill_depth: 16,
            audit: true,
        };
        let jobs = vec![
            job(1, 0.0, 2, [10.0; 4]), // running 0..10, leaves 1 node free
            job(2, 1.0, 3, [10.0; 4]), // head, must wait until 10
            job(3, 2.0, 1, [5.0; 4]),  // ends 7 <= shadow 10: backfills
            job(4, 2.0, 1, [20.0; 4]), // ends 22 > 10 and extra = 0: no backfill
        ];
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &cfg).unwrap();
        let rec = |id: u64| r.records.iter().find(|x| x.job_id == id).unwrap();
        assert_eq!(rec(2).start, 10.0, "head starts exactly at shadow time");
        assert_eq!(rec(3).start, 2.0, "short job backfills");
        assert!(rec(4).start >= 10.0, "long job cannot backfill");
    }

    #[test]
    fn backfill_takes_candidates_in_queue_order() {
        // One 3-node machine; a 2-node job runs 0..10 leaving 1 node; the
        // 3-node head must wait. Two 1-node backfill candidates fit the
        // shadow window, but only one can hold the single free node at a
        // time: FCFS picks the earlier one, though the later is shorter.
        let mut machines = crate::cluster::table1_cluster();
        machines[0].total_nodes = 3;
        for m in &mut machines[1..] {
            m.total_nodes = 0;
        }
        let jobs = vec![
            job(1, 0.0, 2, [10.0; 4]),
            job(2, 1.0, 3, [10.0; 4]), // head, reserved at t=10
            job(3, 2.0, 1, [8.0; 4]),  // earlier, longer (ends 10 <= shadow)
            job(4, 2.0, 1, [2.0; 4]),  // later, shorter
        ];
        let cfg = SimConfig {
            machines,
            backfill_depth: 16,
            audit: true,
        };
        let r = simulate(&jobs, &mut RoundRobin::new(), &cfg).unwrap();
        let start = |id: u64| r.records.iter().find(|x| x.job_id == id).unwrap().start;
        assert_eq!(start(3), 2.0, "FCFS backfills the earlier job");
        assert!(start(4) > 2.0);
    }

    #[test]
    fn stale_reservation_regression() {
        // Regression for the stale EASY reservation bug: the engine used
        // to compute the head's (machine, shadow, extra) once per pass
        // and keep backfilling against it, even though each backfill
        // start advances a stateful strategy's counters and moves the
        // head's machine choice. A long candidate could then land on the
        // machine the head would actually be assigned to, without being
        // subject to its reservation, and delay the head indefinitely.
        //
        // Scenario (UserRoundRobin over CPU machines quartz=3 nodes and
        // ruby=2 nodes; all jobs CPU-only, runtimes identical across
        // machines):
        //   t=0  job1 (2 nodes, 10s) -> quartz; job2 (1 node, 10s) -> ruby
        //   t=1  job3 = HEAD (2 nodes, 5s) blocks; job4 (1 node, 2s)
        //        backfills on quartz. The counter now points at ruby.
        //        Stale engine: job5 (1 node, 100s) is then checked against
        //        quartz's reservation, lands on ruby unconstrained, and
        //        the head — whose choice moved to ruby — waits for it
        //        until t=101.
        //   Fixed engine: the reservation is recomputed after job4
        //        starts; job5 cannot delay the head and the head starts
        //        exactly at the promised shadow time t=10.
        let mut machines = crate::cluster::table1_cluster();
        machines[0].total_nodes = 3; // quartz (CPU)
        machines[1].total_nodes = 2; // ruby (CPU)
        machines[2].total_nodes = 0; // lassen (GPU) unusable
        machines[3].total_nodes = 0; // corona (GPU) unusable
        let cfg = SimConfig {
            machines,
            backfill_depth: 16,
            audit: true,
        };
        let jobs = vec![
            job(1, 0.0, 2, [10.0; 4]),
            job(2, 0.0, 1, [10.0; 4]),
            job(3, 1.0, 2, [5.0; 4]), // the head the stale engine starves
            job(4, 1.0, 1, [2.0; 4]),
            job(5, 1.0, 1, [100.0; 4]),
            job(6, 5.0, 1, [1.0; 4]),
        ];
        let mut s = UserRoundRobin::new();
        let r = simulate(&jobs, &mut s, &cfg).unwrap();
        let rec = |id: u64| r.records.iter().find(|x| x.job_id == id).unwrap();
        assert_eq!(
            rec(3).start,
            10.0,
            "head must start at its shadow time, not behind a 100s backfill"
        );
    }

    #[test]
    fn impossible_job_rejected() {
        let jobs = vec![job(1, 0.0, 100, [1.0; 4])];
        let mut s = RoundRobin::new();
        assert!(simulate(&jobs, &mut s, &small_config()).is_err());
    }

    #[test]
    fn all_jobs_complete_under_load() {
        let jobs: Vec<Job> = (0..200)
            .map(|i| {
                job(
                    i,
                    (i as f64) * 0.1,
                    1 + (i % 2) as u32,
                    [3.0 + (i % 5) as f64, 4.0, 5.0, 6.0],
                )
            })
            .collect();
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &small_config()).unwrap();
        assert_eq!(r.records.len(), 200);
        assert!(r
            .records
            .iter()
            .all(|x| x.end >= x.start && x.start >= x.submit));
        assert!(r.avg_bounded_slowdown >= 1.0);
    }

    #[test]
    fn fcfs_order_respected_on_one_machine() {
        let mut machines = crate::cluster::table1_cluster();
        machines[0].total_nodes = 1;
        for m in &mut machines[1..] {
            m.total_nodes = 0;
        }
        let cfg = SimConfig {
            machines,
            backfill_depth: 0, // no backfill: strict FCFS
            audit: true,
        };
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(i, i as f64 * 0.01, 1, [2.0; 4]))
            .collect();
        let mut s = RoundRobin::new();
        let r = simulate(&jobs, &mut s, &cfg).unwrap();
        let mut starts: Vec<(u64, f64)> = r.records.iter().map(|x| (x.job_id, x.start)).collect();
        starts.sort_by_key(|s| s.0);
        for w in starts.windows(2) {
            assert!(w[0].1 < w[1].1, "earlier submit starts earlier");
        }
    }

    #[test]
    fn dependents_wait_for_their_last_dependency() {
        // 0 and 1 run first; 2 needs both, 3 needs 2 and is submitted late.
        let jobs = vec![
            job(0, 0.0, 1, [4.0; 4]),
            job(1, 0.0, 1, [9.0; 4]),
            job(2, 1.0, 1, [2.0; 4]),
            job(3, 50.0, 1, [1.0; 4]),
        ];
        let deps = vec![vec![], vec![], vec![0, 1], vec![2]];
        let mut s = RoundRobin::new();
        let (r, stats) = simulate_full(&jobs, &deps, &mut s, &small_config()).unwrap();
        let start = |id: u64| r.records.iter().find(|x| x.job_id == id).unwrap().start;
        assert_eq!(
            start(2),
            9.0,
            "released the instant its last dependency ends"
        );
        assert_eq!(
            start(3),
            50.0,
            "its own submit time is later than the release"
        );
        assert_eq!(stats.events_enqueued, 8);
        assert_eq!(stats.events_dequeued, 8);
    }

    #[test]
    fn bad_dependencies_are_rejected() {
        let jobs = vec![job(0, 0.0, 1, [1.0; 4]), job(1, 0.0, 1, [1.0; 4])];
        let run = |deps: &[Vec<usize>]| {
            let mut s = RoundRobin::new();
            simulate_full(&jobs, deps, &mut s, &small_config())
                .unwrap_err()
                .to_string()
        };
        assert!(run(&[vec![]]).contains("deps length 1 does not match 2 jobs"));
        assert!(run(&[vec![2], vec![]]).contains("job 0 depends on out-of-range index 2"));
        assert!(run(&[vec![], vec![1]]).contains("job 1 depends on itself"));
        assert!(run(&[vec![1], vec![0]]).contains("job 0 never completed"));
    }

    fn features_for(jobs: &[Job]) -> Vec<Vec<f64>> {
        jobs.iter()
            .map(|j| vec![j.id as f64 % 7.0, j.nodes_required as f64])
            .collect()
    }

    #[test]
    fn inline_prediction_equals_precomputed() {
        // A deterministic fake predictor: rpv derived from the feature
        // row. Precomputing through it and predicting inline through it
        // must give identical schedules — also for the entries ≤ 0 a
        // trained regressor answers (0.0, -0.0, below zero).
        let predict_row = |row: &[f64]| -> [f64; N_MACHINES] {
            let low = [1.5, 0.0, -0.0, -0.25, 1.5, 0.0, -0.5][row[0] as usize];
            [1.0 + row[0] * 0.125, 1.0 + row[1] * 0.25, low, 2.0 - row[0]]
        };
        // Submissions on a 30 s grid so several jobs share each arrival
        // instant — that's what makes batching observable.
        let mut jobs: Vec<Job> = (0..300)
            .map(|i| {
                job(
                    i,
                    (i / 4) as f64 * 30.0,
                    1 + (i % 2) as u32,
                    [10.0 + (i % 9) as f64; 4],
                )
            })
            .collect();
        let features = features_for(&jobs);
        let rows: Vec<&[f64]> = features.iter().map(Vec::as_slice).collect();
        for (j, f) in jobs.iter_mut().zip(&features) {
            j.predicted_rpv = Some(predict_row(f));
        }
        let cfg = small_config();
        let precomputed = simulate(&jobs, &mut ModelBased::new(), &cfg).unwrap();
        for j in &mut jobs {
            j.predicted_rpv = None;
        }
        let mut provider = FnRpvProvider::new("fake", |rows: &[&[f64]]| {
            Ok(rows.iter().map(|r| predict_row(r)).collect())
        });
        let stats = predict_rpvs(&mut jobs, &rows, &mut provider).unwrap();
        let inlined = simulate(&jobs, &mut ModelBased::new(), &cfg).unwrap();
        assert_eq!(precomputed, inlined);
        assert_eq!(stats.predict_rows, jobs.len() as u64);
        assert_eq!(
            stats.predict_batches, 75,
            "arrivals sharing a timestamp must share a batch"
        );
    }

    #[test]
    fn non_finite_inline_rpvs_fail_the_simulation() {
        let mut jobs = vec![job(7, 0.0, 1, [5.0; 4]), job(8, 0.0, 1, [5.0; 4])];
        for j in &mut jobs {
            j.predicted_rpv = None;
        }
        let features = features_for(&jobs);
        let rows: Vec<&[f64]> = features.iter().map(Vec::as_slice).collect();
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let mut provider = FnRpvProvider::new("flaky", move |rows: &[&[f64]]| {
                let mut out = vec![[1.0; N_MACHINES]; rows.len()];
                out[1][2] = bad;
                Ok(out)
            });
            let err = predict_rpvs(&mut jobs.clone(), &rows, &mut provider).unwrap_err();
            assert!(
                matches!(err.root_cause(), MphpcError::InvalidJob(_)),
                "{err}"
            );
            let msg = err.render_chain();
            assert!(msg.contains("job 8") && msg.contains("flaky"), "{msg}");
        }
    }

    #[test]
    fn rejects_mismatched_features() {
        let jobs = vec![job(1, 0.0, 1, [5.0; 4]), job(2, 0.0, 1, [5.0; 4])];
        let rows: Vec<&[f64]> = vec![&[0.0]];
        let mut provider = FnRpvProvider::new("fake", |rows: &[&[f64]]| {
            Ok(vec![[1.0; N_MACHINES]; rows.len()])
        });
        let err = predict_rpvs(&mut jobs.clone(), &rows, &mut provider).unwrap_err();
        assert!(err.to_string().contains("feature rows"), "{err}");
    }

    /// FNV-1a over a provider's call log: each call's row count, then the
    /// bits of its rows.
    fn log_hash(calls: &[Vec<Vec<f64>>]) -> u64 {
        let words = calls.iter().flat_map(|call| {
            let bits = call.iter().flatten().map(|v| v.to_bits());
            std::iter::once(call.len() as u64).chain(bits)
        });
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn the_provider_is_asked_as_the_event_loop_asked_it() {
        // Tied instants, -0.0 beside 0.0, and jobs that carry an RPV (all
        // of 7.0's): the calls the event loop's decision points made.
        let submits = [5.0, 0.0, -0.0, 5.0, 2.5, 0.0, 7.0, -0.0, 2.5, 5.0];
        let carries = [3, 5, 6];
        let mut jobs: Vec<Job> = submits
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut j = job(i as u64, t, 1 + (i % 2) as u32, [1.0 + i as f64; 4]);
                j.predicted_rpv = carries.contains(&i).then_some([2.0; 4]);
                j
            })
            .collect();
        let signed = |i: usize| if i % 3 == 0 { -0.0 } else { 0.0 };
        let features: Vec<Vec<f64>> = (0..jobs.len()).map(|i| vec![i as f64, signed(i)]).collect();
        let rows: Vec<&[f64]> = features.iter().map(Vec::as_slice).collect();
        let mut calls: Vec<Vec<Vec<f64>>> = Vec::new();
        let mut provider = FnRpvProvider::new("recording", |rows: &[&[f64]]| {
            calls.push(rows.iter().map(|r| r.to_vec()).collect());
            Ok(rows.iter().map(|r| [r[0], 1.0, 2.0, 3.0]).collect())
        });
        let stats = predict_rpvs(&mut jobs, &rows, &mut provider).unwrap();
        assert_eq!((stats.predict_batches, stats.predict_rows), (3, 7));
        let asked: Vec<Vec<f64>> = calls
            .iter()
            .map(|call| call.iter().map(|r| r[0]).collect())
            .collect();
        assert_eq!(asked, [vec![2.0, 7.0, 1.0], vec![4.0, 8.0], vec![0.0, 9.0]]);
        // Pinned from the event loop's own asking, before it moved here
        // (with the calendar's -0.0 key fixed: it ran -0.0 late before).
        assert_eq!(log_hash(&calls), 17_683_125_853_137_821_254);
        for (i, j) in jobs.iter().enumerate() {
            let answered = [i as f64, 1.0, 2.0, 3.0];
            let want = if carries.contains(&i) {
                [2.0; 4]
            } else {
                answered
            };
            assert_eq!(j.predicted_rpv, Some(want), "job {i}");
        }
        let schedule = simulate(&jobs, &mut ModelBased::new(), &small_config()).unwrap();
        assert_eq!(schedule.records.len(), jobs.len());
    }

    #[test]
    fn empty_workload() {
        let mut s = RoundRobin::new();
        let (r, stats) = simulate_full(&[], &[], &mut s, &small_config()).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(stats, ScaleStats::default());
    }

    fn four_node_cluster() -> Cluster {
        let mut configs = crate::cluster::table1_cluster();
        configs[0].total_nodes = 4;
        Cluster::new(configs)
    }

    #[test]
    fn reservation_immediate_when_free() {
        let c = four_node_cluster();
        assert_eq!(c.reservation(0, 2, 5.0), (5.0, 2));
    }

    #[test]
    fn reservation_waits_for_earliest_sufficient_completion() {
        let mut c = four_node_cluster();
        c.start(0, 1, 10.0, run(2, 0)).unwrap();
        c.start(0, 2, 20.0, run(2, 1)).unwrap();
        // Needs 3 nodes: at t=10 two nodes free (0 + 2), not enough; at
        // t=20 four free.
        assert_eq!(c.reservation(0, 3, 0.0), (20.0, 1));
        // Needs 2: at t=10.
        assert_eq!(c.reservation(0, 2, 0.0), (10.0, 0));
    }

    #[test]
    fn reservation_impossible_job() {
        let c = four_node_cluster();
        let (shadow, _) = c.reservation(0, 100, 0.0);
        assert!(shadow.is_infinite());
        assert!(!c.can_ever_run(0, 100));
        assert!(c.can_ever_run(0, 4));
    }

    #[test]
    fn reservation_tie_break_is_state_not_history() {
        // The same running set reached through different start/completion
        // histories must give the same reservation, including extra_nodes
        // at tied end times: job 1 frees first, so the walk continues
        // through job 2 → extra = 2.
        let mut a = four_node_cluster();
        for (id, nodes) in [(1, 1), (2, 3)] {
            a.start(0, id, 10.0, run(nodes, id)).unwrap();
        }
        let mut b = four_node_cluster();
        b.start(0, 9, 1.0, run(4, 0)).unwrap();
        b.complete(0, 9, 1.0).unwrap();
        for (id, nodes) in [(2, 3), (1, 1)] {
            b.start(0, id, 10.0, run(nodes, id)).unwrap();
        }
        assert_eq!(a.reservation(0, 2, 0.0), (10.0, 2));
        assert_eq!(b.reservation(0, 2, 0.0), (10.0, 2));
        assert!(
            b.complete(0, 42, 10.0).is_err(),
            "unknown job is a bookkeeping bug"
        );
    }
}
