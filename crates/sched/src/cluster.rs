//! Machine state: free nodes and the running set, which EASY reservations
//! and the event loop's completions both read.

use crate::calendar::EventKey;
use crate::job::N_MACHINES;
use mphpc_errors::MphpcError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Static description of one machine in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Display name.
    pub name: &'static str,
    /// Nodes available to the scheduler.
    pub total_nodes: u32,
    /// Whether the machine has GPUs (for the User+RR strategy).
    pub has_gpu: bool,
}

/// The paper's pool: Quartz, Ruby, Lassen, Corona with their real
/// partition sizes.
pub fn table1_cluster() -> [MachineConfig; N_MACHINES] {
    [
        MachineConfig {
            name: "Quartz",
            total_nodes: 3004,
            has_gpu: false,
        },
        MachineConfig {
            name: "Ruby",
            total_nodes: 1480,
            has_gpu: false,
        },
        MachineConfig {
            name: "Lassen",
            total_nodes: 795,
            has_gpu: true,
        },
        MachineConfig {
            name: "Corona",
            total_nodes: 121,
            has_gpu: true,
        },
    ]
}

/// A running job's entry in its machine's completion map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    /// Nodes held.
    pub nodes: u32,
    /// The event sequence number the start took: completions due at one
    /// instant are applied in this order.
    pub seq: u64,
    /// The job's index in the simulated list.
    pub job: usize,
}

/// Dynamic state of the machine pool: free nodes, and the one record of
/// what runs — per machine, a map keyed by canonical `(end_time, job_id)`.
/// [`EventKey`] encodes exactly that order (total_cmp time bits, then a u64
/// tie-break, here the job id), so it doubles as the map key. Completions
/// leave from the map's front; EASY reservations walk it in order.
#[derive(Debug, Clone)]
pub struct Cluster {
    configs: [MachineConfig; N_MACHINES],
    free: [u32; N_MACHINES],
    ends: [BTreeMap<EventKey, Running>; N_MACHINES],
    /// Per machine, the first end in `ends`, infinite when it is empty:
    /// the event loop reads it every instant.
    first_end: [f64; N_MACHINES],
}

impl Cluster {
    /// Fresh, empty cluster.
    pub fn new(configs: [MachineConfig; N_MACHINES]) -> Self {
        Self {
            configs,
            free: configs.map(|c| c.total_nodes),
            ends: Default::default(),
            first_end: [f64::INFINITY; N_MACHINES],
        }
    }

    /// Machine configurations.
    pub fn configs(&self) -> &[MachineConfig; N_MACHINES] {
        &self.configs
    }

    /// Free nodes on machine `m` right now.
    pub fn free_nodes(&self, m: usize) -> u32 {
        self.free[m]
    }

    /// True if `nodes` can start on machine `m` immediately.
    pub fn can_start(&self, m: usize, nodes: u32) -> bool {
        nodes <= self.configs[m].total_nodes && nodes <= self.free[m]
    }

    /// True if the machine could *ever* run the job.
    pub fn can_ever_run(&self, m: usize, nodes: u32) -> bool {
        nodes <= self.configs[m].total_nodes
    }

    /// Start job `job_id` on machine `m` until `end_time`. A capacity
    /// violation is an internal scheduling bug, reported as
    /// [`MphpcError::InvariantViolation`] (callers gate with
    /// [`Cluster::can_start`]).
    pub fn start(
        &mut self,
        m: usize,
        job_id: u64,
        end_time: f64,
        run: Running,
    ) -> Result<(), MphpcError> {
        if !self.can_start(m, run.nodes) {
            return Err(MphpcError::InvariantViolation(format!(
                "cluster: starting job {job_id} needing {} nodes on {} with {} free",
                run.nodes, self.configs[m].name, self.free[m]
            )));
        }
        self.free[m] -= run.nodes;
        self.ends[m].insert(EventKey::new(end_time, job_id), run);
        if end_time.total_cmp(&self.first_end[m]).is_lt() {
            self.first_end[m] = end_time;
        }
        Ok(())
    }

    /// Complete job `job_id`, which was started on `m` to end at
    /// `end_time`; returns its entry. Completing a job that is not running
    /// there is an internal scheduling bug. The oracle's completion path:
    /// the engine completes through [`Cluster::complete_due`].
    #[cfg(test)]
    pub(crate) fn complete(
        &mut self,
        m: usize,
        job_id: u64,
        end_time: f64,
    ) -> Result<Running, MphpcError> {
        let run = self.ends[m]
            .remove(&EventKey::new(end_time, job_id))
            .ok_or_else(|| {
                MphpcError::InvariantViolation(format!(
                    "cluster: completing job {job_id} (end {end_time}) that is not running on {}",
                    self.configs[m].name
                ))
            })?;
        self.free[m] += run.nodes;
        self.refresh_first_end(m);
        Ok(run)
    }

    fn refresh_first_end(&mut self, m: usize) {
        let first = self.ends[m].first_key_value();
        self.first_end[m] = first.map_or(f64::INFINITY, |(k, _)| k.time());
    }

    /// The earliest end of any running job.
    pub fn next_end(&self) -> Option<f64> {
        let first = self.first_end.into_iter().min_by(f64::total_cmp);
        first.filter(|t| t.is_finite())
    }

    /// Complete every job that ends at or before `now`, appending each as
    /// `(machine, end_time, entry)` to `due`, machine by machine in map
    /// order.
    pub fn complete_due(&mut self, now: f64, due: &mut Vec<(usize, f64, Running)>) {
        for m in 0..N_MACHINES {
            if self.first_end[m] > now {
                continue;
            }
            while let Some(entry) = self.ends[m].first_entry() {
                let end = entry.key().time();
                if end > now {
                    break;
                }
                let run = entry.remove();
                self.free[m] += run.nodes;
                due.push((m, end, run));
            }
            self.refresh_first_end(m);
        }
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
    pub fn reservation(&self, m: usize, nodes: u32, now: f64) -> (f64, u32) {
        if self.can_start(m, nodes) {
            return (now, self.free[m] - nodes);
        }
        let mut avail = self.free[m];
        for (k, run) in &self.ends[m] {
            avail += run.nodes;
            if avail >= nodes {
                return (k.time(), avail - nodes);
            }
        }
        // Machine can never fit the job (ruled out by the up-front check
        // that every job fits somewhere and `can_ever_run` in strategies).
        (f64::INFINITY, 0)
    }

    /// Test-only hook: overwrite the free-node counter to simulate
    /// bookkeeping corruption when exercising the invariant auditor.
    #[cfg(test)]
    pub(crate) fn corrupt_free_nodes(&mut self, m: usize, free: u32) {
        self.free[m] = free;
    }

    /// Jobs running on machine `m` as `(end_time, job_id, entry)`, in
    /// `(end_time, job_id)` order.
    pub fn running(&self, m: usize) -> impl Iterator<Item = (f64, u64, &Running)> {
        self.ends[m].iter().map(|(k, run)| (k.time(), k.seq, run))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        let mut configs = table1_cluster();
        configs[0].total_nodes = 4;
        Cluster::new(configs)
    }

    /// An entry holding `nodes`, started with sequence number `seq`.
    pub(crate) fn run(nodes: u32, seq: u64) -> Running {
        Running {
            nodes,
            seq,
            job: seq as usize,
        }
    }

    #[test]
    fn start_complete_accounting() {
        let mut c = small_cluster();
        assert_eq!(c.free_nodes(0), 4);
        c.start(0, 1, 10.0, run(3, 0)).unwrap();
        assert_eq!(c.free_nodes(0), 1);
        assert!(!c.can_start(0, 2));
        assert!(c.can_start(0, 1));
        assert_eq!(c.complete(0, 1, 10.0).unwrap(), run(3, 0));
        assert_eq!(c.free_nodes(0), 4);
    }

    #[test]
    fn overcommit_is_an_invariant_violation() {
        let mut c = small_cluster();
        let err = c.start(0, 1, 1.0, run(5, 0)).unwrap_err();
        assert!(matches!(err, MphpcError::InvariantViolation(_)), "{err}");
        assert_eq!(c.free_nodes(0), 4, "failed start must not leak nodes");
        let err = c.complete(0, 42, 1.0).unwrap_err();
        assert!(matches!(err, MphpcError::InvariantViolation(_)), "{err}");
    }

    #[test]
    fn due_completions_leave_in_end_order_and_free_their_nodes() {
        let mut c = small_cluster();
        c.start(0, 10, 6.0, run(1, 0)).unwrap();
        c.start(0, 11, 5.0, run(2, 1)).unwrap();
        c.start(1, 12, 5.0, run(1, 2)).unwrap();
        assert_eq!(c.next_end(), Some(5.0));
        let mut due = Vec::new();
        c.complete_due(5.0, &mut due);
        assert_eq!(due, [(0, 5.0, run(2, 1)), (1, 5.0, run(1, 2))]);
        assert_eq!((c.free_nodes(0), c.next_end()), (3, Some(6.0)));
        let running: Vec<_> = c.running(0).map(|(end, id, r)| (end, id, *r)).collect();
        assert_eq!(running, [(6.0, 10, run(1, 0))]);
        c.complete_due(7.0, &mut due);
        assert_eq!((c.free_nodes(0), c.next_end()), (4, None));
    }

    #[test]
    fn table1_capacities() {
        let cfg = table1_cluster();
        assert_eq!(cfg[0].total_nodes, 3004);
        assert_eq!(cfg[3].total_nodes, 121);
        assert!(!cfg[0].has_gpu && !cfg[1].has_gpu);
        assert!(cfg[2].has_gpu && cfg[3].has_gpu);
    }
}
