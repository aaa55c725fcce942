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
        self.predicted_rpv
            .map_or(Ok(()), |rpv| check_rpv(self.id, &rpv))
    }
}

/// The one rule for an RPV that reaches a strategy, whether the job carries
/// it or a provider answers it: every entry finite. `ModelBased` compares
/// with `<`, so a NaN would misplace the job silently, while an entry ≤ 0
/// (a regressor's raw answer, e.g. `[0.999, 0.738, -0.002, 0.007]`) orders
/// correctly.
pub fn check_rpv(job_id: u64, rpv: &[f64; N_MACHINES]) -> Result<(), MphpcError> {
    if rpv.iter().all(|v| v.is_finite()) {
        return Ok(());
    }
    let msg = format!("job {job_id}: non-finite predicted RPV {rpv:?}");
    Err(MphpcError::InvalidJob(msg))
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
        // One RPV rule: finite, any sign.
        for (entry, ok) in [
            (f64::NAN, false),
            (f64::INFINITY, false),
            (f64::NEG_INFINITY, false),
            (0.0, true),
            (-0.0, true),
            (-1.0, true),
        ] {
            let rpv = [1.0, entry, 1.0, 1.0];
            let mut predicted = j.clone();
            predicted.predicted_rpv = Some(rpv);
            assert_eq!(predicted.validate().is_ok(), ok, "rpv entry {entry}");
            assert_eq!(check_rpv(1, &rpv).is_ok(), ok, "rpv entry {entry}");
        }
        let err = check_rpv(9, &[1.0, f64::NAN, 1.0, 1.0]).unwrap_err();
        assert!(matches!(err, MphpcError::InvalidJob(_)), "{err}");
        assert!(err.to_string().contains("job 9: non-finite"), "{err}");
    }
}
