//! Job generators shared by the integration property tests and, through a
//! `#[path]` include, by the in-crate oracle suite (`src/reference.rs`).
//! `Job` comes from whichever crate path the including module imported.

use super::Job;
use proptest::prelude::*;

prop_compose! {
    fn arb_job(id: u64)(
        submit in 0.0f64..1000.0,
        nodes in 1u32..4,
        gpu in any::<bool>(),
        t0 in 1.0f64..500.0,
        t1 in 1.0f64..500.0,
        t2 in 1.0f64..500.0,
        t3 in 1.0f64..500.0,
        has_pred in any::<bool>(),
    ) -> Job {
        Job {
            id,
            submit_time: submit,
            nodes_required: nodes,
            gpu_capable: gpu,
            runtimes: [t0, t1, t2, t3],
            predicted_rpv: has_pred.then_some([t0, t1, t2, t3]),
        }
    }
}

/// Between 1 and `max - 1` jobs with ids `0..n`.
pub fn arb_jobs(max: usize) -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(any::<u64>(), 1..max).prop_flat_map(|ids| {
        let n = ids.len();
        (0..n as u64).map(arb_job).collect::<Vec<_>>()
    })
}
