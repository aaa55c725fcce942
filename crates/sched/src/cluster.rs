//! Machine state: node accounting and EASY reservation computation.

use crate::job::N_MACHINES;
use mphpc_errors::MphpcError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// A running job's footprint on a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// Job id.
    pub job_id: u64,
    /// Absolute end time.
    pub end_time: f64,
    /// Nodes held.
    pub nodes: u32,
}

/// Dynamic state of the machine pool.
#[derive(Debug, Clone)]
pub struct Cluster {
    configs: [MachineConfig; N_MACHINES],
    free: [u32; N_MACHINES],
    running: [Vec<RunningJob>; N_MACHINES],
    /// `job_id → index into running[m]`, so completion is O(1) instead of
    /// a linear scan (at 1M jobs with ~4k concurrently running, the scan
    /// was the second-hottest loop in the simulator).
    slot: [HashMap<u64, usize>; N_MACHINES],
}

impl Cluster {
    /// Fresh, empty cluster.
    pub fn new(configs: [MachineConfig; N_MACHINES]) -> Self {
        let free = [
            configs[0].total_nodes,
            configs[1].total_nodes,
            configs[2].total_nodes,
            configs[3].total_nodes,
        ];
        Self {
            configs,
            free,
            running: Default::default(),
            slot: Default::default(),
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

    /// Start a job on machine `m`. A capacity violation is an internal
    /// scheduling bug, reported as [`MphpcError::InvariantViolation`]
    /// (callers gate with [`Cluster::can_start`]).
    pub fn start(
        &mut self,
        m: usize,
        job_id: u64,
        nodes: u32,
        end_time: f64,
    ) -> Result<(), MphpcError> {
        if !self.can_start(m, nodes) {
            return Err(MphpcError::InvariantViolation(format!(
                "cluster: starting job {job_id} needing {nodes} nodes on {} with {} free",
                self.configs[m].name, self.free[m]
            )));
        }
        self.free[m] -= nodes;
        self.slot[m].insert(job_id, self.running[m].len());
        self.running[m].push(RunningJob {
            job_id,
            end_time,
            nodes,
        });
        Ok(())
    }

    /// Complete a job; returns the freed node count. Completing a job that
    /// is not running on `m` is an internal scheduling bug. O(1): the
    /// `slot` map locates the job, `swap_remove` fills the hole, and the
    /// swapped-in job's slot entry is patched.
    pub fn complete(&mut self, m: usize, job_id: u64) -> Result<u32, MphpcError> {
        let pos = self.slot[m].remove(&job_id).ok_or_else(|| {
            MphpcError::InvariantViolation(format!(
                "cluster: completing job {job_id} that is not running on {}",
                self.configs[m].name
            ))
        })?;
        let freed = self.running[m].swap_remove(pos).nodes;
        if let Some(moved) = self.running[m].get(pos) {
            self.slot[m].insert(moved.job_id, pos);
        }
        self.free[m] += freed;
        Ok(freed)
    }

    /// Test-only hook: overwrite the free-node counter to simulate
    /// bookkeeping corruption when exercising the invariant auditor.
    #[cfg(test)]
    pub(crate) fn corrupt_free_nodes(&mut self, m: usize, free: u32) {
        self.free[m] = free;
    }

    /// Jobs currently running on machine `m`.
    pub fn running(&self, m: usize) -> &[RunningJob] {
        &self.running[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        let mut configs = table1_cluster();
        configs[0].total_nodes = 4;
        Cluster::new(configs)
    }

    #[test]
    fn start_complete_accounting() {
        let mut c = small_cluster();
        assert_eq!(c.free_nodes(0), 4);
        c.start(0, 1, 3, 10.0).unwrap();
        assert_eq!(c.free_nodes(0), 1);
        assert!(!c.can_start(0, 2));
        assert!(c.can_start(0, 1));
        assert_eq!(c.complete(0, 1).unwrap(), 3);
        assert_eq!(c.free_nodes(0), 4);
    }

    #[test]
    fn overcommit_is_an_invariant_violation() {
        let mut c = small_cluster();
        let err = c.start(0, 1, 5, 1.0).unwrap_err();
        assert!(matches!(err, MphpcError::InvariantViolation(_)), "{err}");
        assert_eq!(c.free_nodes(0), 4, "failed start must not leak nodes");
        let err = c.complete(0, 42).unwrap_err();
        assert!(matches!(err, MphpcError::InvariantViolation(_)), "{err}");
    }

    #[test]
    fn out_of_order_completions_keep_slot_map_consistent() {
        // swap_remove moves the last running job into the vacated index;
        // the slot map must follow it or later completions free the
        // wrong footprint.
        let mut c = small_cluster();
        c.start(0, 10, 1, 5.0).unwrap();
        c.start(0, 11, 2, 6.0).unwrap();
        c.start(0, 12, 1, 7.0).unwrap();
        assert_eq!(c.complete(0, 10).unwrap(), 1); // 12 swaps into index 0
        assert_eq!(c.complete(0, 12).unwrap(), 1);
        assert_eq!(c.complete(0, 11).unwrap(), 2);
        assert_eq!(c.free_nodes(0), 4);
        assert!(c.running(0).is_empty());
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
