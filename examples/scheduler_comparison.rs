//! Scheduler comparison: the §VII experiment at example scale.
//!
//! Builds a dataset, trains the predictor, samples a workload of jobs, and
//! runs the FCFS+EASY simulator under all five machine-assignment
//! strategies, printing makespan and average bounded slowdown.
//!
//! Run with: `cargo run --release --example scheduler_comparison`

use mphpc_core::prelude::*;
use mphpc_errors::MphpcError;

fn main() -> Result<(), MphpcError> {
    println!("collecting dataset and training predictor...");
    let dataset = collect(&CollectionConfig::small(8, 2, 2, 7))?;
    let predictor = train_predictor(&dataset, ModelKind::Gbt(Default::default()), 7)?;

    let (templates, features) = templates_from_dataset_raw(&dataset)?;
    println!(
        "sampling 5,000 jobs with replacement from {} dataset rows",
        templates.len()
    );

    let provider = &mut PredictorRpv::new(&predictor);
    let outcomes = run_scale_comparison(&templates, &features, provider, 5_000, 0.0, 7)?;
    let outcomes: Vec<StrategyOutcome> = outcomes.into_iter().map(|o| o.outcome).collect();
    println!(
        "\n{:<14} {:>12} {:>22}   jobs per machine [Q, R, L, C]",
        "strategy", "makespan", "avg bounded slowdown"
    );
    for o in &outcomes {
        println!(
            "{:<14} {:>10.2} h {:>22.2}   {:?}",
            o.strategy,
            o.makespan / 3600.0,
            o.avg_bounded_slowdown,
            o.jobs_per_machine
        );
    }

    let best = outcomes
        .iter()
        .filter(|o| o.strategy != "Oracle")
        .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
        .expect("outcomes nonempty");
    println!("\nbest practical strategy: {}", best.strategy);
    Ok(())
}
