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
//! Four structures carry that loop to millions of jobs:
//!
//! 1. **Calendar queue** ([`crate::calendar`]): the global event structure
//!    is O(1) amortized, with a deterministic `(time, seq)` total order.
//!
//! 2. **Free-slot profile.** Each machine keeps a sorted completion profile
//!    (a `BTreeMap` keyed by canonical `(end_time, job_id)`), maintained in
//!    O(log R) per start/completion, so a reservation is a short in-order
//!    prefix walk instead of a sort of every running job.
//!
//! 3. **Blocked-pass snapshot.** When a pass ends with the head blocked and
//!    the next event batch is arrivals only, nothing the previous scan
//!    observed has changed — the cluster is untouched, strategy state only
//!    advances on starts ([`crate::strategy::MachineAssigner`] requires
//!    `choose` to be side-effect free), and every previously rejected
//!    candidate stays rejected (a candidate that fails `can_start` still
//!    fails on an unchanged cluster, and the `now + dur > shadow` backfill
//!    guard is monotone in `now`). Only the newly arrived suffix of the
//!    window needs scanning. Completions or starts invalidate the snapshot
//!    and force a full pass; [`ScaleStats`] counts both kinds.
//!
//! 4. **Batched inline prediction.** Jobs may arrive without a predicted
//!    RPV; every decision point gathers all rows arriving at that simulated
//!    instant into a single [`RpvProvider::predict`] call — the quantized
//!    inference engine is batch-size invariant, so inline predictions are
//!    bitwise the ones a precomputed run would use, and a federated
//!    provider ([`crate::federation::FederatedRpv`]) sends the batch as
//!    a few pipelined multi-row requests instead of one per job.
//!
//! **Dependencies** do not weaken the snapshot: a job with open
//! dependencies is not in the event queue at all; the completion that
//! closes its last one enqueues its arrival at `max(submit, now)`, and that
//! same completion has already discarded the snapshot. A dependent whose
//! submit time lies later arrives as an ordinary arrival.
//!
//! The binary-heap, sort-per-pass engine this one replaced survives as the
//! `cfg(test)` oracle in `reference.rs`; its suite holds every schedule
//! here bit-identical to it.

use crate::audit::InvariantAuditor;
use crate::calendar::{CalendarQueue, EventKey};
use crate::cluster::{Cluster, MachineConfig};
use crate::federation::RpvProvider;
use crate::job::{check_rpv, Job, N_MACHINES};
use crate::metrics::{avg_bounded_slowdown, makespan, JobRecord};
use crate::strategy::MachineAssigner;
use mphpc_errors::MphpcError;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

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

/// Inline prediction hookup: per-job feature rows plus the provider that
/// turns them into RPVs. Rows align with the `jobs` slice by index; jobs
/// that already carry `predicted_rpv` are not re-predicted.
pub struct InlineRpv<'a> {
    /// One feature row per job (same order as the `jobs` slice).
    pub features: &'a [&'a [f64]],
    /// Predictor answering one batch per decision point.
    pub provider: &'a mut dyn RpvProvider,
}

/// Operational counters from one [`simulate_full`] run. Schedule outputs
/// live in [`SimResult`]; these describe how the engine got there. Each
/// field is also flushed once, at the end of the run, to the telemetry
/// counter named in its doc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Events pushed into the calendar queue (`sched.events.enqueued`).
    pub events_enqueued: u64,
    /// Events popped from the calendar queue (`sched.events.dequeued`).
    pub events_dequeued: u64,
    /// Decision points answered by the blocked-pass snapshot: only the
    /// newly arrived window suffix was scanned
    /// (`sched.backfill.incremental_updates`).
    pub incremental_updates: u64,
    /// Decision points that ran a full scheduling pass
    /// (`sched.backfill.full_rescans`).
    pub full_rescans: u64,
    /// EASY reservations computed — full passes only; snapshot hits reuse
    /// the stored reservation (`sched.reservations`).
    pub reservations: u64,
    /// Backfill candidates examined (`sched.backfill.attempts`).
    pub backfill_attempts: u64,
    /// Jobs started by backfilling past a blocked head
    /// (`sched.backfill.starts`).
    pub backfill_starts: u64,
    /// Inline prediction batches issued (`sched.predict.batches`).
    pub predict_batches: u64,
    /// Feature rows predicted inline (`sched.predict.rows`).
    pub predict_rows: u64,
    /// Wall-clock microseconds spent inside the provider — the serving
    /// latency term when the provider is federated
    /// (`sched.predict.us_total`).
    pub predict_us_total: u64,
}

/// Per-machine sorted completion profile: canonical `(end_time, job_id)`
/// order, maintained incrementally. [`EventKey`] already encodes exactly
/// that order (total_cmp time bits, then a u64 tie-break — here the job
/// id), so it doubles as the map key.
struct FreeSlotProfile {
    ends: [BTreeMap<EventKey, u32>; N_MACHINES],
}

impl FreeSlotProfile {
    fn new() -> Self {
        Self {
            ends: Default::default(),
        }
    }

    fn insert(&mut self, m: usize, end: f64, job_id: u64, nodes: u32) {
        self.ends[m].insert(EventKey::new(end, job_id), nodes);
    }

    fn remove(&mut self, m: usize, end: f64, job_id: u64) -> Result<(), MphpcError> {
        self.ends[m]
            .remove(&EventKey::new(end, job_id))
            .ok_or_else(|| {
                MphpcError::InvariantViolation(format!(
                    "free-slot profile: completing job {job_id} (end {end}) missing on machine {m}"
                ))
            })?;
        Ok(())
    }

    /// EASY reservation for a head job needing `nodes` on machine `m`:
    /// `(shadow_time, extra_nodes)`, where `shadow_time` is the earliest
    /// the head can start and `extra_nodes` is how many nodes remain free
    /// at that moment after it starts. Backfilled jobs must either finish
    /// by `shadow_time` or fit in `extra_nodes`.
    ///
    /// Completions are walked in `(end_time, job_id)` order. Equal end
    /// times free their nodes at the same simulated instant, so only
    /// `extra_nodes` (which depends on where the walk stops) is sensitive
    /// to the tie order — the canonical key makes it a pure function of
    /// cluster *state*, independent of the history of starts and
    /// completions that produced it. The walk usually stops after a
    /// handful of entries.
    fn reservation(&self, cluster: &Cluster, m: usize, nodes: u32, now: f64) -> (f64, u32) {
        if cluster.can_start(m, nodes) {
            return (now, cluster.free_nodes(m) - nodes);
        }
        let mut avail = cluster.free_nodes(m);
        for (k, &freed) in &self.ends[m] {
            avail += freed;
            if avail >= nodes {
                return (k.time(), avail - nodes);
            }
        }
        // Machine can never fit the job (ruled out by the up-front check
        // that every job fits somewhere and `can_ever_run` in strategies).
        (f64::INFINITY, 0)
    }

    /// Entries for machine `m` as `(end_time, job_id, nodes)` in profile
    /// order, for the auditor's consistency sweep.
    fn entries(&self, m: usize) -> impl Iterator<Item = (f64, u64, u32)> + '_ {
        self.ends[m].iter().map(|(k, &n)| (k.time(), k.seq, n))
    }
}

#[derive(Clone, Copy)]
enum Ev {
    Arrival(usize),
    Completion { machine: usize, job: usize },
}

/// What a blocked head holds: backfilled jobs must not delay it.
#[derive(Clone, Copy)]
struct Reservation {
    machine: usize,
    shadow: f64,
    extra: u32,
}

/// Snapshot of a pass that ended with the head blocked: while no job
/// starts or completes, the reservation and every scanned candidate's
/// verdict remain valid, so later arrivals only need the unscanned
/// window suffix examined.
struct Blocked {
    head_idx: usize,
    held: Reservation,
    /// Candidates `1..scanned` are known to fail; scanning resumes here.
    scanned: usize,
}

/// How often (in event timestamps) the auditor cross-checks the free-slot
/// profile against the cluster when auditing is on. The check is
/// O(R log R) per machine — exhaustive per-timestamp verification would
/// dominate debug runs; sampling still catches any divergence quickly
/// because profile corruption persists once introduced.
const PROFILE_AUDIT_STRIDE: u64 = 64;

/// Everything one run mutates, so the loop's steps can be methods.
struct Engine<'a> {
    /// Local copy so inline predictions can be patched in as jobs arrive;
    /// strategies then see exactly the jobs a precomputed run would.
    jobs: Vec<Job>,
    strategy: &'a mut dyn MachineAssigner,
    config: &'a SimConfig,
    cluster: Cluster,
    profile: FreeSlotProfile,
    events: CalendarQueue<Ev>,
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
}

impl Engine<'_> {
    fn enqueue(&mut self, time: f64, ev: Ev) {
        self.events.push(EventKey::new(time, self.seq), ev);
        self.seq += 1;
        self.stats.events_enqueued += 1;
    }

    /// One job start: cluster + profile + bookkeeping + completion event.
    /// A start invalidates any blocked-pass snapshot (cluster and strategy
    /// state both change); every caller holds none.
    fn start(&mut self, idx: usize, m: usize, now: f64) -> Result<(), MphpcError> {
        let job = &self.jobs[idx];
        let dur = job.runtime_on(m);
        self.auditor.observe_start(job.id, now)?;
        self.cluster
            .start(m, job.id, job.nodes_required, now + dur)?;
        self.profile
            .insert(m, now + dur, job.id, job.nodes_required);
        self.start_time[idx] = now;
        self.end_time[idx] = now + dur;
        self.machine_of[idx] = m;
        self.jobs_per_machine[m] += 1;
        self.node_seconds[m] += dur * job.nodes_required as f64;
        self.strategy.notify_started(job, m);
        self.enqueue(
            now + dur,
            Ev::Completion {
                machine: m,
                job: idx,
            },
        );
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
    /// queue position and machine.
    fn backfill_candidate(
        &mut self,
        range: Range<usize>,
        held: Reservation,
        now: f64,
    ) -> Option<(usize, usize)> {
        let mut chosen = None;
        // Counted locally: the scan is the engine's innermost loop.
        let mut attempts = 0u64;
        for qi in range {
            attempts += 1;
            let cand = &self.jobs[self.queue[qi]];
            let cm = self.strategy.choose(cand, &self.cluster);
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
            let head = &self.jobs[head_idx];
            let m = self.strategy.choose(head, &self.cluster);
            if self.cluster.can_start(m, head.nodes_required) {
                self.queue.pop_front();
                self.start(head_idx, m, now)?;
                continue;
            }
            let (shadow, extra) =
                self.profile
                    .reservation(&self.cluster, m, head.nodes_required, now);
            self.auditor.record_reservation(head.id, m, shadow);
            self.stats.reservations += 1;
            let held = Reservation {
                machine: m,
                shadow,
                extra,
            };
            let window = self.window();
            match self.backfill_candidate(1..window, held, now) {
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

    fn audit_profile(&mut self) -> Result<(), MphpcError> {
        for m in 0..N_MACHINES {
            self.auditor
                .check_free_slot_profile(&self.cluster, m, self.profile.entries(m))?;
        }
        Ok(())
    }
}

/// [`simulate_full`] for callers with neither dependencies nor inline
/// prediction: every job carries whatever RPV its strategy needs.
pub fn simulate(
    jobs: &[Job],
    strategy: &mut dyn MachineAssigner,
    config: &SimConfig,
) -> Result<SimResult, MphpcError> {
    simulate_full(jobs, &[], strategy, config, None).map(|(result, _)| result)
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
///
/// With `inline`, jobs without a `predicted_rpv` get one from the provider
/// when they arrive, one batch per simulated instant.
pub fn simulate_full(
    jobs: &[Job],
    deps: &[Vec<usize>],
    strategy: &mut dyn MachineAssigner,
    config: &SimConfig,
    mut inline: Option<InlineRpv<'_>>,
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
    if let Some(inl) = &inline {
        if inl.features.len() != jobs.len() {
            return Err(MphpcError::Simulation(format!(
                "inline rpv: {} feature rows for {} jobs",
                inl.features.len(),
                jobs.len()
            )));
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
        jobs: jobs.to_vec(),
        strategy,
        config,
        cluster: Cluster::new(config.machines),
        profile: FreeSlotProfile::new(),
        events: CalendarQueue::new(),
        seq: 0,
        queue: VecDeque::new(),
        start_time: vec![f64::NAN; jobs.len()],
        end_time: vec![f64::NAN; jobs.len()],
        machine_of: vec![usize::MAX; jobs.len()],
        jobs_per_machine: [0; N_MACHINES],
        node_seconds: [0.0; N_MACHINES],
        stats: ScaleStats::default(),
        auditor: InvariantAuditor::new(config.audit || cfg!(debug_assertions)),
    };
    for (idx, job) in jobs.iter().enumerate() {
        if open_deps.get(idx).map_or(true, |&n| n == 0) {
            e.enqueue(job.submit_time, Ev::Arrival(idx));
        }
    }

    let mut blocked: Option<Blocked> = None;
    let mut arrivals_this_ts: Vec<usize> = Vec::new();
    let mut rows_buf: Vec<&[f64]> = Vec::new();
    let mut pred_idx: Vec<usize> = Vec::new();
    let mut timestamps = 0u64;

    while let Some(first) = e.events.peek_key() {
        let now = first.time();
        timestamps += 1;
        arrivals_this_ts.clear();
        // Apply every event at this timestamp before scheduling (IEEE `>`
        // batching, so -0.0 and 0.0 coalesce). A dependent released at
        // `now` is pushed while its instant is being drained and leaves in
        // this same batch, after everything already queued for `now`.
        while let Some(k) = e.events.peek_key() {
            if k.time() > now {
                break;
            }
            let (k, ev) = e.events.pop().expect("peeked");
            e.stats.events_dequeued += 1;
            e.auditor.observe_calendar_dequeue(k.time(), k.seq)?;
            match ev {
                Ev::Arrival(idx) => {
                    e.queue.push_back(idx);
                    arrivals_this_ts.push(idx);
                }
                Ev::Completion { machine, job } => {
                    e.cluster.complete(machine, e.jobs[job].id)?;
                    e.profile.remove(machine, e.end_time[job], e.jobs[job].id)?;
                    // Cluster changed: every cached backfill verdict is
                    // stale.
                    blocked = None;
                    for &d in dependents.get(job).map_or(&[][..], Vec::as_slice) {
                        open_deps[d] -= 1;
                        if open_deps[d] == 0 {
                            e.enqueue(e.jobs[d].submit_time.max(now), Ev::Arrival(d));
                        }
                    }
                }
            }
        }
        e.auditor.observe_event_time(now)?;

        // Inline prediction: one batch for everything arriving now.
        if let Some(inl) = &mut inline {
            rows_buf.clear();
            pred_idx.clear();
            for &idx in &arrivals_this_ts {
                if e.jobs[idx].predicted_rpv.is_none() {
                    rows_buf.push(inl.features[idx]);
                    pred_idx.push(idx);
                }
            }
            if !rows_buf.is_empty() {
                let t0 = std::time::Instant::now();
                let rpvs = inl.provider.predict(&rows_buf)?;
                let us = t0.elapsed().as_micros() as u64;
                e.stats.predict_batches += 1;
                e.stats.predict_rows += rows_buf.len() as u64;
                e.stats.predict_us_total += us;
                if mphpc_telemetry::enabled() {
                    mphpc_telemetry::histogram_record(
                        "sched.predict.lookup_us",
                        us as f64 / rows_buf.len() as f64,
                    );
                }
                if rpvs.len() != pred_idx.len() {
                    return Err(MphpcError::Simulation(format!(
                        "rpv provider returned {} predictions for {} rows",
                        rpvs.len(),
                        pred_idx.len()
                    )));
                }
                for (&idx, rpv) in pred_idx.iter().zip(&rpvs) {
                    check_rpv(e.jobs[idx].id, rpv).map_err(|err| {
                        err.context(format!("answer of rpv provider {}", inl.provider.name()))
                    })?;
                    e.jobs[idx].predicted_rpv = Some(*rpv);
                }
            }
        }

        // Incremental path: the head blocked earlier and nothing it saw
        // has changed — scan only the arrivals that extended the window.
        if let Some(b) = blocked.take() {
            debug_assert_eq!(e.queue.front(), Some(&b.head_idx));
            let window = e.window();
            match e.backfill_candidate(b.scanned..window, b.held, now) {
                None => {
                    // Still blocked; remember how far we looked.
                    e.stats.incremental_updates += 1;
                    blocked = Some(Blocked {
                        scanned: window,
                        ..b
                    });
                }
                // A new arrival backfills. Starting it invalidates the
                // snapshot; the full pass below finishes this decision
                // point.
                Some((qi, cm)) => e.start_backfill(qi, cm, now)?,
            }
        }
        if blocked.is_none() {
            blocked = e.full_pass(now)?;
        }

        e.auditor.check_cluster(&e.cluster, now)?;
        if e.auditor.enabled() && timestamps % PROFILE_AUDIT_STRIDE == 0 {
            e.audit_profile()?;
        }
    }

    // Final exhaustive profile check: both structures must drain empty.
    if e.auditor.enabled() {
        e.audit_profile()?;
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
            ("sched.predict.batches", s.predict_batches),
            ("sched.predict.rows", s.predict_rows),
            ("sched.predict.us_total", s.predict_us_total),
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
        let (r, stats) = simulate_full(&jobs, &deps, &mut s, &small_config(), None).unwrap();
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
            simulate_full(&jobs, deps, &mut s, &small_config(), None)
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
        let inline = InlineRpv {
            features: &rows,
            provider: &mut provider,
        };
        let (inlined, stats) =
            simulate_full(&jobs, &[], &mut ModelBased::new(), &cfg, Some(inline)).unwrap();
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
            let inline = InlineRpv {
                features: &rows,
                provider: &mut provider,
            };
            let err = simulate_full(
                &jobs,
                &[],
                &mut ModelBased::new(),
                &small_config(),
                Some(inline),
            )
            .unwrap_err();
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
        let inline = InlineRpv {
            features: &rows,
            provider: &mut provider,
        };
        let err = simulate_full(
            &jobs,
            &[],
            &mut ModelBased::new(),
            &small_config(),
            Some(inline),
        )
        .unwrap_err();
        assert!(err.to_string().contains("feature rows"), "{err}");
    }

    #[test]
    fn empty_workload() {
        let mut s = RoundRobin::new();
        let (r, stats) = simulate_full(&[], &[], &mut s, &small_config(), None).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(stats, ScaleStats::default());
    }

    fn profile_of(cluster: &Cluster, m: usize) -> FreeSlotProfile {
        let mut p = FreeSlotProfile::new();
        for r in cluster.running(m) {
            p.insert(m, r.end_time, r.job_id, r.nodes);
        }
        p
    }

    fn four_node_cluster() -> Cluster {
        let mut configs = crate::cluster::table1_cluster();
        configs[0].total_nodes = 4;
        Cluster::new(configs)
    }

    #[test]
    fn reservation_immediate_when_free() {
        let c = four_node_cluster();
        assert_eq!(profile_of(&c, 0).reservation(&c, 0, 2, 5.0), (5.0, 2));
    }

    #[test]
    fn reservation_waits_for_earliest_sufficient_completion() {
        let mut c = four_node_cluster();
        c.start(0, 1, 2, 10.0).unwrap();
        c.start(0, 2, 2, 20.0).unwrap();
        let p = profile_of(&c, 0);
        // Needs 3 nodes: at t=10 two nodes free (0 + 2), not enough; at
        // t=20 four free.
        assert_eq!(p.reservation(&c, 0, 3, 0.0), (20.0, 1));
        // Needs 2: at t=10.
        assert_eq!(p.reservation(&c, 0, 2, 0.0), (10.0, 0));
    }

    #[test]
    fn reservation_impossible_job() {
        let c = four_node_cluster();
        let (shadow, _) = profile_of(&c, 0).reservation(&c, 0, 100, 0.0);
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
        let mut pa = FreeSlotProfile::new();
        for (id, nodes) in [(1, 1), (2, 3)] {
            a.start(0, id, nodes, 10.0).unwrap();
            pa.insert(0, 10.0, id, nodes);
        }
        let mut b = four_node_cluster();
        let mut pb = FreeSlotProfile::new();
        b.start(0, 9, 4, 1.0).unwrap();
        pb.insert(0, 1.0, 9, 4);
        b.complete(0, 9).unwrap();
        pb.remove(0, 1.0, 9).unwrap();
        for (id, nodes) in [(2, 3), (1, 1)] {
            b.start(0, id, nodes, 10.0).unwrap();
            pb.insert(0, 10.0, id, nodes);
        }
        assert_eq!(pa.reservation(&a, 0, 2, 0.0), (10.0, 2));
        assert_eq!(pb.reservation(&b, 0, 2, 0.0), (10.0, 2));
        assert!(
            pb.remove(0, 10.0, 42).is_err(),
            "unknown job is a bookkeeping bug"
        );
    }
}
