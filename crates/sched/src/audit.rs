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
//!   held by the running set always equal the machine's total, and free
//!   never exceeds total;
//! * **queue/cluster consistency** — every running job's completion lies
//!   at or after the current clock (no job is "running" past its end);
//! * **reservation honoured** — once the queue head is given an EASY
//!   reservation, backfilled jobs must never delay it past the promised
//!   shadow time; the head must start at or before the latest shadow
//!   recorded for it;
//! * **dequeue ordering** — completions leave the running set, and
//!   arrivals the calendar queue, each in increasing `(time, seq)` order:
//!   neither the per-machine completion maps nor the O(1) bucket structure
//!   ever reorders the schedule.
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
    /// Last `(time, seq)` of a completion and of an arrival.
    last_dequeue: [Option<(f64, u64)>; 2],
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
            last_dequeue: [None; 2],
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

    /// A completion that ended at `end` and started with sequence number
    /// `seq` was applied. Completions due at one instant are applied in
    /// `seq` order, so over the run they leave in increasing `(end, seq)`
    /// order.
    pub fn observe_completion(&mut self, end: f64, seq: u64) -> Result<(), MphpcError> {
        self.observe_dequeue(0, "completion", end, seq)
    }

    /// An arrival left the calendar queue with key `(time, seq)`. Keys must
    /// increase in `(total_cmp time, seq)` order — the bucket structure
    /// rotates and resizes internally, and any ordering slip would silently
    /// reorder the whole schedule.
    pub fn observe_arrival(&mut self, time: f64, seq: u64) -> Result<(), MphpcError> {
        self.observe_dequeue(1, "calendar arrival", time, seq)
    }

    fn observe_dequeue(
        &mut self,
        stream: usize,
        what: &str,
        time: f64,
        seq: u64,
    ) -> Result<(), MphpcError> {
        if !self.enabled {
            return Ok(());
        }
        if let Some((pt, ps)) = self.last_dequeue[stream] {
            let ord = pt.total_cmp(&time).then(ps.cmp(&seq));
            if ord != std::cmp::Ordering::Less {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: {what} ({time}, seq {seq}) left after ({pt}, seq {ps})"
                )));
            }
        }
        self.last_dequeue[stream] = Some((time, seq));
        self.checks += 1;
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
            let held: u32 = cluster.running(m).map(|(_, _, r)| r.nodes).sum();
            if free + held != total {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: machine {name} leaks nodes: {free} free + {held} running != {total}"
                )));
            }
            // The running set is in end order: its first entry ends first.
            if let Some((end, job_id, _)) = cluster.running(m).next().filter(|r| r.0 < now - EPS) {
                return Err(MphpcError::InvariantViolation(format!(
                    "auditor: job {job_id} still running on {name} past its end time {end} (now {now})"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::run;

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
        c.start(0, 1, 10.0, run(2, 0)).unwrap();
        a.check_cluster(&c, 0.0).unwrap();
        // Corrupt the books: free a node that is still held.
        c.corrupt_free_nodes(0, 3);
        let err = a.check_cluster(&c, 0.0).unwrap_err();
        assert!(err.to_string().contains("leak"), "{err}");
    }

    #[test]
    fn detects_calendar_order_violation() {
        let mut a = InvariantAuditor::new(true);
        a.observe_arrival(1.0, 0).unwrap();
        a.observe_arrival(1.0, 3).unwrap();
        // Completions are ordered among themselves, not against arrivals.
        a.observe_completion(1.0, 2).unwrap();
        a.observe_arrival(2.0, 1).unwrap();
        let err = a.observe_arrival(2.0, 1).unwrap_err();
        assert!(err.to_string().contains("calendar"), "{err}");
        let mut b = InvariantAuditor::new(true);
        b.observe_arrival(5.0, 0).unwrap();
        assert!(b.observe_arrival(4.0, 1).is_err());
        b.observe_completion(3.0, 7).unwrap();
        let err = b.observe_completion(3.0, 6).unwrap_err();
        assert!(err.to_string().contains("completion"), "{err}");
    }

    #[test]
    fn detects_overdue_running_job() {
        let mut a = InvariantAuditor::new(true);
        let mut c = cluster();
        c.start(0, 1, 10.0, run(2, 0)).unwrap();
        a.check_cluster(&c, 10.0).unwrap();
        let err = a.check_cluster(&c, 10.1).unwrap_err();
        assert!(err.to_string().contains("past its end time"), "{err}");
    }
}
