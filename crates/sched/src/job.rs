//! Jobs: units of work sampled from the MP-HPC dataset.

use mphpc_errors::MphpcError;
use serde::{Deserialize, Serialize};

/// Number of machines in the multi-resource pool (Table I).
pub const N_MACHINES: usize = 4;

/// One schedulable job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id (also used to seed per-job random choices).
    pub id: u64,
    /// Submission time in seconds.
    pub submit_time: f64,
    /// Nodes the job needs (1 or 2 in the paper's run matrix).
    pub nodes_required: u32,
    /// Whether the application has a GPU implementation (drives the
    /// User+RR strategy).
    pub gpu_capable: bool,
    /// True runtime on each machine, Table-I order (observed in the
    /// dataset; drives the simulation clock).
    pub runtimes: [f64; N_MACHINES],
    /// Model-predicted relative runtimes (lower = faster). The prediction
    /// the Model-based strategy consults; `None` for strategies that don't
    /// need it.
    pub predicted_rpv: Option<[f64; N_MACHINES]>,
}

impl Job {
    /// True runtime on machine `m` (Table-I index).
    pub fn runtime_on(&self, m: usize) -> f64 {
        self.runtimes[m]
    }

    /// Basic validity: positive runtimes and node count.
    pub fn validate(&self) -> Result<(), MphpcError> {
        if self.nodes_required == 0 {
            return Err(MphpcError::InvalidJob(format!(
                "job {}: zero nodes",
                self.id
            )));
        }
        if self.runtimes.iter().any(|t| !t.is_finite() || *t <= 0.0) {
            return Err(MphpcError::InvalidJob(format!(
                "job {}: non-positive runtime",
                self.id
            )));
        }
        if !self.submit_time.is_finite() || self.submit_time < 0.0 {
            return Err(MphpcError::InvalidJob(format!(
                "job {}: bad submit time",
                self.id
            )));
        }
        if let Some(rpv) = &self.predicted_rpv {
            if rpv.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                return Err(MphpcError::InvalidJob(format!(
                    "job {}: non-positive predicted RPV",
                    self.id
                )));
            }
        }
        Ok(())
    }
}

/// What an RPV answered by a provider — inline or over the wire — must
/// meet before a strategy sees it: every entry finite. `ModelBased`
/// compares entries with `<`, so a NaN would silently send the job to the
/// first feasible machine. Unlike [`Job::validate`]'s rule for an RPV that
/// comes with the job, entries need not be positive: a trained regressor
/// answers slightly below zero for a machine it finds far faster than the
/// reference (the benchmark's GBT does: `[0.999, 0.738, -0.002, 0.007]`),
/// and such an entry still orders correctly.
pub fn finite_rpv(rpv: &[f64; N_MACHINES]) -> bool {
    rpv.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            id: 1,
            submit_time: 0.0,
            nodes_required: 1,
            gpu_capable: false,
            runtimes: [1.0, 2.0, 3.0, 4.0],
            predicted_rpv: None,
        }
    }

    #[test]
    fn accessors_and_validation() {
        let j = job();
        assert_eq!(j.runtime_on(2), 3.0);
        assert!(j.validate().is_ok());
        let mut bad = j.clone();
        bad.nodes_required = 0;
        assert!(bad.validate().is_err());
        let mut neg = j.clone();
        neg.runtimes[1] = -1.0;
        assert!(neg.validate().is_err());
        let mut sub = j.clone();
        sub.submit_time = f64::NAN;
        assert!(sub.validate().is_err());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut rpv = j.clone();
            rpv.predicted_rpv = Some([1.0, bad, 1.0, 1.0]);
            assert!(rpv.validate().is_err(), "rpv entry {bad}");
            assert_eq!(finite_rpv(&[1.0, bad, 1.0, 1.0]), bad.is_finite());
        }
    }
}
