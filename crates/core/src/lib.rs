//! `mphpc-core` — cross-architecture performance prediction of parallel
//! programs.
//!
//! This crate is the paper's contribution assembled as a library: given
//! hardware performance counters of an application run collected on *one*
//! architecture, predict its **Relative Performance Vector** (RPV) across a
//! set of architectures, and use those predictions to make multi-resource
//! scheduling decisions.
//!
//! The two-phase methodology of §IV maps onto two entry points:
//!
//! 1. **Data collection** — [`pipeline::collect`] runs the application ×
//!    input × scale × machine × repetition matrix through the architecture
//!    simulator and profiler and assembles the MP-HPC dataset
//!    (`mphpc_dataset::MpHpcDataset`, ~11k rows at full size).
//! 2. **Modelling** — [`pipeline::evaluate_models`] reproduces the Fig. 2
//!    comparison (mean / linear / decision forest / XGBoost under a 90-10
//!    split with 5-fold CV), and [`pipeline::train_predictor`] trains and
//!    packages the production model as a [`predictor::PerfPredictor`] that
//!    goes straight from a `RawProfile` to a predicted RPV.
//!
//! Downstream uses:
//! * [`selection`] — §VI-B's gain-based feature selection and top-k
//!   retraining study;
//! * [`schedbridge`] — §VII's scheduling experiment: build job templates
//!   from dataset rows + model predictions and compare the four
//!   machine-assignment strategies on makespan and bounded slowdown;
//! * [`fleet`] — crash-safe multi-process collection: shard the campaign
//!   through `mphpc-storage`'s claim/lease protocol so independent worker
//!   processes converge on the bit-identical single-process dataset and
//!   model even across `kill -9` and restarts.
//!
//! # Quickstart
//! ```no_run
//! use mphpc_core::prelude::*;
//!
//! // 1. Collect a (small) dataset.
//! let cfg = CollectionConfig::small(3, 2, 2, 42);
//! let dataset = collect(&cfg).unwrap();
//! // 2. Train the XGBoost-style model.
//! let predictor = train_predictor(&dataset, ModelKind::Gbt(Default::default()), 42).unwrap();
//! // 3. Predict an RPV from a single profile.
//! let profile = profile_one(AppKind::Amg, "-s 3", Scale::OneNode, SystemId::Ruby, 7).unwrap();
//! let rpv = predictor.predict_rpv(&profile).unwrap();
//! println!("predicted RPV relative to Ruby: {rpv:?}");
//! ```

#![warn(missing_docs)]

pub mod drift;
pub mod fleet;
pub mod pipeline;
pub mod predictor;
pub mod schedbridge;
pub mod selection;
pub mod serving;
pub mod watch;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use crate::pipeline::{
        collect, evaluate_models, evaluate_split, profile_one, train_predictor, CollectionConfig,
        ModelEvaluation, SplitScore,
    };
    pub use crate::predictor::PerfPredictor;
    pub use crate::schedbridge::{
        run_scale_comparison, templates_from_dataset, templates_from_dataset_raw, PredictorRpv,
        ScaleOutcome, StrategyOutcome,
    };
    pub use crate::selection::{feature_selection_study, SelectionReport};
    pub use mphpc_archsim::SystemId;
    pub use mphpc_dataset::MpHpcDataset;
    pub use mphpc_ml::{ModelKind, Regressor};
    pub use mphpc_workloads::{AppKind, Scale};
}

pub use pipeline::{collect, evaluate_models, profile_one, train_predictor, CollectionConfig};
pub use predictor::PerfPredictor;
