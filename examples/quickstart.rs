//! Quickstart: collect a small MP-HPC dataset, train the XGBoost-style
//! model, and predict a Relative Performance Vector for a new run from one
//! architecture's counters.
//!
//! Run with: `cargo run --release --example quickstart`

use mphpc_core::prelude::*;
use mphpc_errors::MphpcError;

fn main() -> Result<(), MphpcError> {
    // Phase 1 (§IV): collect profiles for a small app × input × scale ×
    // machine matrix and assemble the dataset.
    println!("collecting a small MP-HPC dataset (this simulates ~300 runs)...");
    let dataset = collect(&CollectionConfig::small(6, 2, 2, 42))?;
    println!(
        "dataset: {} rows × 21 features (+ 4 RPV targets)",
        dataset.n_rows()
    );

    // Phase 2: compare the four model families on a 90-10 split.
    let evals = evaluate_models(&dataset, &ModelKind::paper_lineup(), 42)?;
    println!("\nmodel comparison (test split):");
    for e in &evals {
        println!(
            "  {:<16} MAE {:.4}   same-order score {:.3}",
            e.model, e.test.mae, e.test.sos
        );
    }

    // Train and export the production predictor.
    let predictor = train_predictor(&dataset, ModelKind::Gbt(Default::default()), 42)?;

    // Profile a run on ONE architecture (Ruby) and predict its relative
    // performance everywhere.
    let profile = profile_one(AppKind::Amg, "-s 2", Scale::OneNode, SystemId::Ruby, 7)?;
    let rpv = predictor.predict_rpv(&profile)?;
    println!("\nAMG '-s 2' profiled on Ruby (1 node). Predicted RPV (relative runtimes):");
    for (sys, v) in SystemId::TABLE1.iter().zip(rpv) {
        let note = if *sys == SystemId::Ruby {
            " (source)"
        } else {
            ""
        };
        println!("  {:<8} {v:.3}{note}", sys.name());
    }
    let best = SystemId::TABLE1[mphpc_dataset::rpv::argmin(&rpv).unwrap()];
    println!("=> predicted fastest system: {}", best.name());

    // The predictor serialises to JSON for deployment in a scheduler.
    let json = predictor.to_json()?;
    println!("\nexported model: {} bytes of JSON", json.len());
    Ok(())
}
