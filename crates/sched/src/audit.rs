//! Runtime invariant auditor for the scheduling engine.
//!
//! The discrete-event engine maintains several invariants that, if broken,
//! silently corrupt every downstream metric (makespan, slowdown, machine
//! utilisation) rather than crashing. The [`InvariantAuditor`] checks them
//! as the simulation runs and reports a violation as
//! [`MphpcError::InvariantViolation`] naming the machine, job, and times
//! involved:
//!
//! * **event-time monotonicity** — the event clock never moves backwards;
//! * **node conservation** — on every machine, free nodes plus the nodes
//!   held by running jobs always equal the machine's total, and free never
//!   exceeds total;
//! * **queue/cluster consistency** — every running job's completion lies
//!   at or after the current clock (no job is "running" past its end);
//! * **reservation honoured** — once the queue head is given an EASY
//!   reservation, backfilled jobs must never delay it past the promised
//!   shadow time; the head must start at or before the latest shadow
//!   recorded for it;
//! * **free-slot-profile consistency** — the incremental completion
//!   profile that [`crate::engine`] maintains per machine must stay a
//!   faithful mirror of the cluster's running set;
//! * **calendar-queue time ordering** — events leave the
//!   calendar queue in nondecreasing `(time, seq)` order, i.e. the O(1)
//!   bucket structure never reorders the schedule.
//!
//! The auditor is on in debug builds (`cfg!(debug_assertions)`) and can be
//! forced on in release builds via [`crate::engine::SimConfig::audit`].
//! When disabled every check is an early-return, keeping the hot path
//! free of HashMap traffic.

use crate::cluster::Cluster;
use crate::job::N_MACHINES;
use mphpc_errors::MphpcError;
use std::collections::HashMap;

/// Slack for floating-point time comparisons.
const EPS: f64 = 1e-9;

/// Checks engine invariants during a simulation run. One auditor instance
/// lives for the duration of one `simulate` call.
#[derive(Debug)]
pub struct InvariantAuditor {
    enabled: bool,
    last_event_time: f64,
    /// job id → (reserved machine, shadow time) for queue heads that
    /// blocked and received an EASY reservation.
    reservations: HashMap<u64, (usize, f64)>,
    /// Last `(time, seq)` dequeued from the calendar queue.
    last_dequeue: Option<(f64, u64)>,
    /// Checks that ran and passed (for the telemetry layer; a failed
    /// check aborts the simulation, so "ran" and "passed" coincide for
    /// every completed run).
    checks: u64,
}

impl InvariantAuditor {
    /// A new auditor; `enabled = false` turns every check into a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            last_event_time: f64::NEG_INFINITY,
            reservations: HashMap::new(),
            last_dequeue: None,
            checks: 0,
        }
    }

    /// Whether checks are active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of invariant checks that have run (and therefore passed).
    pub fn checks_passed(&self) -> u64 {
        self.checks
    }

    /// The event clock advanced to `now`: it must be monotone.
    pub fn observe_event_time(&mut self, now: f64) -> Result<(), MphpcError> {
        if !self.enabled {
            return Ok(());
        }
        if !now.is_finite() {
            return Err(MphpcError::InvariantViolation(format!(
                "auditor: non-finite event time {now}"
            )));
        }
        if now < self.last_event_time - EPS {
            return Err(MphpcError::InvariantViolation(format!(
                "auditor: event time moved backwards ({} -> {now})",
                self.last_event_time
            )));
        }
        self.last_event_time = self.last_event_time.max(now);
        self.checks += 1;
        Ok(())
    }

    /// The queue head `job_id` blocked and was promised machine `machine`
    /// no later than `shadow`. Later promises overwrite earlier ones: the
    /// engine recomputes the reservation whenever cluster or strategy
    /// state changes, and only the latest promise is binding.
    pub fn record_reservation(&mut self, job_id: u64, machine: usize, shadow: f64) {
        if !self.enabled {
            return;
        }
        self.reservations.insert(job_id, (machine, shadow));
    }

    /// Job `job_id` started at `now`. If it had an outstanding
    /// reservation, it must not start later than the promised shadow time
    /// (backfilled work must never delay the head).
    pub fn observe_start(&mut self, job_id: u64, now: f64) -> Result<(), MphpcError> {
        if !self.enabled {
            return Ok(());
        }
        if let Some((machine, shadow)) = self.reservations.remove(&job_id) {
            if shadow.is_finite() && now > shadow + EPS {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: job {job_id} was reserved machine {machine} by t={shadow} \
                     but only started at t={now} (backfill delayed the head)"
                )));
            }
        }
        self.checks += 1;
        Ok(())
    }

    /// An event left the calendar queue with key `(time, seq)`. Keys must
    /// be nondecreasing in `(total_cmp time, seq)` order — the bucket
    /// structure rotates and resizes internally, and any ordering slip
    /// would silently reorder the whole schedule.
    pub fn observe_calendar_dequeue(&mut self, time: f64, seq: u64) -> Result<(), MphpcError> {
        if !self.enabled {
            return Ok(());
        }
        if let Some((pt, ps)) = self.last_dequeue {
            let ord = pt.total_cmp(&time).then(ps.cmp(&seq));
            if ord != std::cmp::Ordering::Less {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: calendar queue dequeued ({time}, seq {seq}) \
                     after ({pt}, seq {ps})"
                )));
            }
        }
        self.last_dequeue = Some((time, seq));
        self.checks += 1;
        Ok(())
    }

    /// Free-slot-profile consistency: `profile` is machine
    /// `m`'s incremental completion profile as `(end_time, job_id, nodes)`
    /// triples in iteration order. It must (a) be sorted ascending by
    /// `(end_time, job_id)` and (b) hold exactly the cluster's running
    /// set for `m` — same jobs, same end times, same node counts.
    pub fn check_free_slot_profile(
        &mut self,
        cluster: &Cluster,
        m: usize,
        profile: impl Iterator<Item = (f64, u64, u32)>,
    ) -> Result<(), MphpcError> {
        if !self.enabled {
            return Ok(());
        }
        self.checks += 1;
        let name = cluster.configs()[m].name;
        let mut entries: Vec<(f64, u64, u32)> = Vec::with_capacity(cluster.running(m).len());
        let mut prev: Option<(f64, u64)> = None;
        for (end, job_id, nodes) in profile {
            if let Some((pe, pj)) = prev {
                if pe.total_cmp(&end).then(pj.cmp(&job_id)) != std::cmp::Ordering::Less {
                    return Err(MphpcError::InvariantViolation(format!(
                        "auditor: {name} free-slot profile out of order: \
                         ({pe}, job {pj}) before ({end}, job {job_id})"
                    )));
                }
            }
            prev = Some((end, job_id));
            entries.push((end, job_id, nodes));
        }
        let mut expected: Vec<(f64, u64, u32)> = cluster
            .running(m)
            .iter()
            .map(|r| (r.end_time, r.job_id, r.nodes))
            .collect();
        expected.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if entries != expected {
            return Err(MphpcError::InvariantViolation(format!(
                "auditor: {name} free-slot profile diverged from cluster: \
                 profile has {} entries, cluster {} running",
                entries.len(),
                expected.len()
            )));
        }
        Ok(())
    }

    /// Full cluster consistency sweep at time `now`: node conservation per
    /// machine and no running job whose completion is already in the past.
    pub fn check_cluster(&mut self, cluster: &Cluster, now: f64) -> Result<(), MphpcError> {
        if !self.enabled {
            return Ok(());
        }
        self.checks += 1;
        for m in 0..N_MACHINES {
            let name = cluster.configs()[m].name;
            let total = cluster.configs()[m].total_nodes;
            let free = cluster.free_nodes(m);
            if free > total {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: machine {name} has {free} free of {total} total nodes"
                )));
            }
            let held: u32 = cluster.running(m).iter().map(|r| r.nodes).sum();
            if free + held != total {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: machine {name} leaks nodes: {free} free + {held} running != {total}"
                )));
            }
            if let Some(r) = cluster.running(m).iter().find(|r| r.end_time < now - EPS) {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: job {} still running on {name} past its end time {} (now {now})",
                    r.job_id, r.end_time
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        let mut machines = crate::cluster::table1_cluster();
        for m in &mut machines {
            m.total_nodes = 4;
        }
        Cluster::new(machines)
    }

    #[test]
    fn disabled_auditor_accepts_everything() {
        let mut a = InvariantAuditor::new(false);
        a.observe_event_time(5.0).unwrap();
        a.observe_event_time(1.0).unwrap(); // would violate if enabled
        a.record_reservation(1, 0, 2.0);
        a.observe_start(1, 99.0).unwrap();
        assert_eq!(a.checks_passed(), 0, "disabled auditor counts no checks");
    }

    #[test]
    fn enabled_auditor_counts_checks() {
        let mut a = InvariantAuditor::new(true);
        a.observe_event_time(1.0).unwrap();
        a.observe_event_time(2.0).unwrap();
        a.observe_start(1, 2.0).unwrap();
        a.check_cluster(&cluster(), 2.0).unwrap();
        assert_eq!(a.checks_passed(), 4);
    }

    #[test]
    fn detects_backwards_time() {
        let mut a = InvariantAuditor::new(true);
        a.observe_event_time(5.0).unwrap();
        let err = a.observe_event_time(1.0).unwrap_err();
        assert!(matches!(err, MphpcError::InvariantViolation(_)), "{err}");
    }

    #[test]
    fn detects_broken_reservation() {
        let mut a = InvariantAuditor::new(true);
        a.record_reservation(7, 1, 10.0);
        let err = a.observe_start(7, 11.0).unwrap_err();
        assert!(err.to_string().contains("job 7"), "{err}");
        // Honoured (and recomputed) reservations pass.
        a.record_reservation(8, 1, 10.0);
        a.record_reservation(8, 0, 12.0);
        a.observe_start(8, 12.0).unwrap();
    }

    #[test]
    fn detects_node_leak() {
        let mut a = InvariantAuditor::new(true);
        let mut c = cluster();
        a.check_cluster(&c, 0.0).unwrap();
        c.start(0, 1, 2, 10.0).unwrap();
        a.check_cluster(&c, 0.0).unwrap();
        // Corrupt the books: free a node that is still held.
        c.corrupt_free_nodes(0, 3);
        let err = a.check_cluster(&c, 0.0).unwrap_err();
        assert!(err.to_string().contains("leak"), "{err}");
    }

    #[test]
    fn detects_calendar_order_violation() {
        let mut a = InvariantAuditor::new(true);
        a.observe_calendar_dequeue(1.0, 0).unwrap();
        a.observe_calendar_dequeue(1.0, 3).unwrap();
        a.observe_calendar_dequeue(2.0, 1).unwrap();
        let err = a.observe_calendar_dequeue(2.0, 1).unwrap_err();
        assert!(err.to_string().contains("calendar"), "{err}");
        let mut b = InvariantAuditor::new(true);
        b.observe_calendar_dequeue(5.0, 0).unwrap();
        assert!(b.observe_calendar_dequeue(4.0, 1).is_err());
    }

    #[test]
    fn detects_profile_divergence() {
        let mut a = InvariantAuditor::new(true);
        let mut c = cluster();
        c.start(0, 1, 2, 10.0).unwrap();
        c.start(0, 2, 1, 5.0).unwrap();
        // Faithful, sorted profile passes.
        let good = [(5.0, 2u64, 1u32), (10.0, 1, 2)];
        a.check_free_slot_profile(&c, 0, good.iter().copied())
            .unwrap();
        // Out of order.
        let unsorted = [(10.0, 1u64, 2u32), (5.0, 2, 1)];
        let err = a
            .check_free_slot_profile(&c, 0, unsorted.iter().copied())
            .unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
        // Wrong node count.
        let wrong = [(5.0, 2u64, 1u32), (10.0, 1, 3)];
        let err = a
            .check_free_slot_profile(&c, 0, wrong.iter().copied())
            .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        // Missing entry.
        let short = [(5.0, 2u64, 1u32)];
        assert!(a
            .check_free_slot_profile(&c, 0, short.iter().copied())
            .is_err());
    }

    #[test]
    fn detects_overdue_running_job() {
        let mut a = InvariantAuditor::new(true);
        let mut c = cluster();
        c.start(0, 1, 2, 10.0).unwrap();
        a.check_cluster(&c, 10.0).unwrap();
        let err = a.check_cluster(&c, 10.1).unwrap_err();
        assert!(err.to_string().contains("past its end time"), "{err}");
    }
}
