//! Set-up: collect the campaign the later stages consume.
//!
//! Collection here uses the analytic cache model — the cheap path — so that
//! archsim does almost none of the work of the train, serve and schedule
//! stages; the trace-driven model is the collect stage's subject.

use crate::run::Ctx;
use crate::stages::chain;
use crate::yardstick::Timed;
use mphpc_archsim::cache::CacheModel;
use mphpc_core::schedbridge::templates_from_dataset_raw;
use mphpc_dataset::{build_dataset_with_model, MpHpcDataset};
use mphpc_sched::JobTemplate;
use std::time::Instant;

/// What set-up hands to the stages.
pub struct Inputs {
    pub dataset: MpHpcDataset,
    /// One scheduling template and raw feature row per dataset row.
    pub templates: Vec<JobTemplate>,
    pub features: Vec<[f64; 21]>,
}

fn build(ctx: &Ctx) -> Result<(Inputs, f64, usize), String> {
    let specs = ctx.sizes.campaign.specs();
    let started = Instant::now();
    let dataset = build_dataset_with_model(&specs, ctx.args.seed, CacheModel::Analytic)
        .map_err(chain("set-up collection"))?;
    let collect_s = started.elapsed().as_secs_f64();
    let (templates, features) =
        templates_from_dataset_raw(&dataset).map_err(chain("set-up templates"))?;
    Ok((
        Inputs {
            dataset,
            templates,
            features,
        },
        collect_s,
        specs.len(),
    ))
}

/// Build the inputs `setup_repeats` times; returns the last build and how
/// long each took.
pub fn run(ctx: &mut Ctx) -> Result<(Inputs, Vec<Timed>), String> {
    let mut walls = Vec::new();
    let mut collect_rates = Vec::new();
    let mut last = None;
    for _ in 0..ctx.sizes.setup_repeats {
        let (built, wall) = ctx.timed(|ctx| build(ctx));
        let (inputs, collect_s, runs) = built?;
        walls.push(wall);
        collect_rates.push(runs as f64 / collect_s);
        ctx.ledger.op(inputs.dataset.n_rows() == runs, || {
            format!(
                "set-up collected {} rows from {runs} runs",
                inputs.dataset.n_rows()
            )
        });
        last = Some(inputs);
    }
    let inputs = last.ok_or("set-up must run at least once")?;
    ctx.ledger
        .param("setup_rows", inputs.dataset.n_rows() as f64);
    if ctx.args.trace {
        ctx.ledger.put(
            "archsim.analytic_runs_per_s",
            "runs/s",
            crate::stats::median(&collect_rates),
            collect_rates.len(),
        );
    }
    Ok((inputs, walls))
}
