//! Workload generation: sample jobs with replacement from dataset-derived
//! templates (§VII: "a workload of 50,000 jobs randomly sampled from our
//! existing data set with replacement").

use crate::job::{Job, N_MACHINES};
use mphpc_errors::MphpcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A sampleable job shape: one (app, input, scale) row of the dataset with
/// its paired runtimes and the model's prediction for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTemplate {
    /// Nodes the job occupies.
    pub nodes_required: u32,
    /// GPU capability of the application.
    pub gpu_capable: bool,
    /// True runtime on each machine (Table-I order).
    pub runtimes: [f64; N_MACHINES],
    /// Predicted relative runtimes for the model-based strategy.
    pub predicted_rpv: Option<[f64; N_MACHINES]>,
}

/// Poisson-process arrival times: exponential inter-arrival gaps with the
/// given mean rate (jobs per second). `rate == 0` puts every arrival at 0;
/// a negative or NaN rate is an error.
pub fn poisson_arrivals(n: usize, rate: f64, seed: u64) -> Result<Vec<f64>, MphpcError> {
    if rate.is_nan() || rate < 0.0 {
        return Err(MphpcError::InvalidArgument(format!(
            "arrival rate must be 0 or positive, got {rate}"
        )));
    }
    if rate == 0.0 {
        return Ok(vec![0.0; n]);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    Ok((0..n)
        .map(|_| {
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -u.ln() / rate;
            t
        })
        .collect())
}

/// Sample `n` jobs with replacement from `templates`, with Poisson
/// arrivals at `rate` jobs/second (0 = all at time zero), and which
/// template each job was drawn from (`indices[i]` is job `i`'s template):
/// callers line per-job side data up with it, such as the raw feature rows
/// the jobs' RPVs are predicted from. Errors when `templates` is empty or
/// `rate` is negative or NaN.
pub fn sample_jobs_indexed(
    templates: &[JobTemplate],
    n: usize,
    rate: f64,
    seed: u64,
) -> Result<(Vec<Job>, Vec<usize>), MphpcError> {
    if templates.is_empty() {
        return Err(MphpcError::EmptyInput(
            "sample_jobs_indexed: no job templates to sample from",
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10B5);
    let arrivals = poisson_arrivals(n, rate, seed ^ 0xA441)?;
    let mut jobs = Vec::with_capacity(n);
    let mut indices = Vec::with_capacity(n);
    for (i, &submit_time) in arrivals.iter().enumerate() {
        let ti = rng.gen_range(0..templates.len());
        let t = &templates[ti];
        indices.push(ti);
        jobs.push(Job {
            id: i as u64,
            submit_time,
            nodes_required: t.nodes_required,
            gpu_capable: t.gpu_capable,
            runtimes: t.runtimes,
            predicted_rpv: t.predicted_rpv,
        });
    }
    Ok((jobs, indices))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(nodes: u32) -> JobTemplate {
        JobTemplate {
            nodes_required: nodes,
            gpu_capable: nodes == 2,
            runtimes: [1.0, 2.0, 3.0, 4.0],
            predicted_rpv: Some([1.0, 2.0, 3.0, 4.0]),
        }
    }

    #[test]
    fn arrivals_monotone_with_correct_mean() {
        let times = poisson_arrivals(10_000, 2.0, 1).unwrap();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let mean_gap = times.last().unwrap() / 10_000.0;
        assert!((mean_gap - 0.5).abs() < 0.05, "mean gap {mean_gap}");
    }

    #[test]
    fn zero_rate_means_batch_arrival() {
        let times = poisson_arrivals(5, 0.0, 1).unwrap();
        assert!(times.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn negative_or_nan_rate_is_an_error_that_names_it() {
        for (rate, shown) in [(-1.0, "-1"), (f64::NAN, "NaN"), (f64::NEG_INFINITY, "-inf")] {
            let err = sample_jobs_indexed(&[template(1)], 3, rate, 1).unwrap_err();
            assert!(matches!(err, MphpcError::InvalidArgument(_)), "{err}");
            assert!(err.to_string().ends_with(&format!("got {shown}")), "{err}");
        }
    }

    #[test]
    fn sampling_covers_templates_and_is_deterministic() {
        let templates = vec![template(1), template(2)];
        let (a, _) = sample_jobs_indexed(&templates, 1000, 1.0, 42).unwrap();
        assert_eq!(sample_jobs_indexed(&templates, 1000, 1.0, 42).unwrap().0, a);
        let ones = a.iter().filter(|j| j.nodes_required == 1).count();
        assert!(ones > 300 && ones < 700, "both templates drawn: {ones}");
        // Ids unique and sequential.
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
    }

    #[test]
    fn sampled_jobs_inherit_template_fields() {
        let templates = vec![template(2)];
        let (jobs, _) = sample_jobs_indexed(&templates, 10, 0.0, 7).unwrap();
        for j in jobs {
            assert_eq!(j.nodes_required, 2);
            assert!(j.gpu_capable);
            assert_eq!(j.runtimes, [1.0, 2.0, 3.0, 4.0]);
            assert_eq!(j.submit_time, 0.0);
        }
    }

    #[test]
    fn empty_templates_are_an_error() {
        let err = sample_jobs_indexed(&[], 1, 0.0, 1).unwrap_err();
        assert!(matches!(err, MphpcError::EmptyInput(_)), "{err}");
    }

    #[test]
    fn indexed_sampling_matches_plain_and_reports_true_indices() {
        let templates = vec![template(1), template(2)];
        let (jobs, indices) = sample_jobs_indexed(&templates, 500, 0.5, 13).unwrap();
        assert_eq!(indices.len(), jobs.len());
        // Rebuilt plainly from the indices and the seed's arrival stream,
        // the jobs come out the same.
        let arrivals = poisson_arrivals(500, 0.5, 13 ^ 0xA441).unwrap();
        let plain: Vec<Job> = indices
            .iter()
            .zip(&arrivals)
            .enumerate()
            .map(|(i, (&ti, &submit_time))| Job {
                id: i as u64,
                submit_time,
                nodes_required: templates[ti].nodes_required,
                gpu_capable: templates[ti].gpu_capable,
                runtimes: templates[ti].runtimes,
                predicted_rpv: templates[ti].predicted_rpv,
            })
            .collect();
        assert_eq!(plain, jobs, "same seed, same stream, same jobs");
        for (j, &ti) in jobs.iter().zip(&indices) {
            assert_eq!(j.nodes_required, templates[ti].nodes_required);
            assert_eq!(j.gpu_capable, templates[ti].gpu_capable);
        }
        assert!(indices.contains(&0) && indices.contains(&1));
    }
}
