//! The end-to-end MP-HPC pipeline: collection, model comparison, and
//! final-model training (§IV's two phases).

use crate::predictor::PerfPredictor;
use mphpc_archsim::cache::CacheSimulator;
use mphpc_archsim::SystemId;
use mphpc_dataset::split::random_split;
use mphpc_dataset::{build_dataset, MpHpcDataset};
use mphpc_errors::{MphpcError, ResultExt};
use mphpc_ml::cv::{cross_validate, CvReport};
use mphpc_ml::{mae, r2, r2_per_output, same_order_score, Matrix, MlDataset, ModelKind, Regressor};
use mphpc_profiler::{profile_run, RawProfile};
use mphpc_workloads::{full_matrix, small_matrix, AppKind, InputConfig, RunSpec, Scale};
use serde::{Deserialize, Serialize};

/// What to collect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Applications to include (`None` = all twenty).
    pub apps: Option<Vec<AppKind>>,
    /// Inputs per application (`None` = the app's full ladder).
    pub inputs_per_app: Option<usize>,
    /// Repetitions per run.
    pub reps: u32,
    /// Base seed for the whole campaign.
    pub seed: u64,
}

impl CollectionConfig {
    /// The paper-scale campaign: every app, every input, 6 reps —
    /// ≈ 11.3k rows, matching the MP-HPC dataset's size.
    pub fn full(seed: u64) -> Self {
        Self {
            apps: None,
            inputs_per_app: None,
            reps: 6,
            seed,
        }
    }

    /// A reduced campaign for tests and examples: the first `n_apps`
    /// applications, `n_inputs` inputs each, `reps` repetitions.
    pub fn small(n_apps: usize, n_inputs: usize, reps: u32, seed: u64) -> Self {
        Self {
            apps: Some(AppKind::ALL.into_iter().take(n_apps).collect()),
            inputs_per_app: Some(n_inputs),
            reps,
            seed,
        }
    }

    /// Expand into the run matrix.
    pub fn specs(&self) -> Vec<RunSpec> {
        match (&self.apps, self.inputs_per_app) {
            (None, None) => full_matrix(&SystemId::TABLE1, self.reps),
            (apps, n_inputs) => {
                let apps: Vec<AppKind> = apps.clone().unwrap_or_else(|| AppKind::ALL.to_vec());
                small_matrix(
                    &SystemId::TABLE1,
                    &apps,
                    n_inputs.unwrap_or(usize::MAX),
                    self.reps,
                )
            }
        }
    }
}

/// Phase 1: run the campaign and assemble the dataset.
pub fn collect(config: &CollectionConfig) -> Result<MpHpcDataset, MphpcError> {
    let specs = config.specs();
    let _span = mphpc_telemetry::span!("pipeline.collect", runs = specs.len());
    build_dataset(&specs, config.seed).context("collecting the dataset")
}

/// Profile a single (app, input, scale, machine) run — the inference-time
/// entry point for new jobs.
pub fn profile_one(
    app: AppKind,
    input_name: &str,
    scale: Scale,
    machine: SystemId,
    seed: u64,
) -> Result<RawProfile, MphpcError> {
    let application = mphpc_workloads::Application::new(app);
    let _span = mphpc_telemetry::span!("pipeline.profile_one", app = application.name());
    let input = application
        .inputs()
        .into_iter()
        .find(|i| i.name == input_name)
        .unwrap_or_else(|| InputConfig::new(input_name, 1.0));
    let spec = RunSpec {
        app,
        input,
        scale,
        machine,
        rep: 0,
    };
    let mut sim = CacheSimulator::new();
    profile_run(&spec, seed, &mut sim).map_err(MphpcError::Profile)
}

/// Scores of one model family on one train/test split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitScore {
    /// MAE on the test rows.
    pub mae: f64,
    /// Same-Order Score on the test rows.
    pub sos: f64,
    /// Pooled R² over all four RPV outputs.
    pub r2: f64,
    /// Column-wise R² per RPV output (Table-I system order): pooled R²
    /// can hide one systematically mispredicted target behind three good
    /// ones.
    pub r2_per_output: Vec<f64>,
}

/// Evaluation results for one model family (one bar pair of Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEvaluation {
    /// Family name.
    pub model: String,
    /// Scores on the held-out 10 % test set.
    pub test: SplitScore,
    /// 5-fold cross-validation report on the training portion.
    pub cv: CvReport,
}

/// Normalise on the train rows and lower both sides to ML matrices.
pub(crate) fn split_to_ml(
    dataset: &MpHpcDataset,
    train_rows: &[usize],
    test_rows: &[usize],
) -> Result<(MlDataset, MlDataset), MphpcError> {
    let normalizer = dataset.fit_normalizer(train_rows)?;
    Ok((
        dataset.to_ml(train_rows, &normalizer)?,
        dataset.to_ml(test_rows, &normalizer)?,
    ))
}

/// Fit `kind` on `train`, predict `test`, score: [`evaluate_split`] for
/// a caller that fitted one normaliser and loops over models or targets.
pub fn fit_and_score(
    kind: ModelKind,
    train: &MlDataset,
    test: &MlDataset,
) -> Result<SplitScore, MphpcError> {
    let model = kind
        .fit(train)
        .context(format!("fitting {}", kind.name()))?;
    let pred = model
        .predict(&test.x)
        .context(format!("predicting with {}", kind.name()))?;
    score_predictions(&pred, test)
}

/// Score predictions of `test`'s rows against its targets.
pub fn score_predictions(pred: &Matrix, test: &MlDataset) -> Result<SplitScore, MphpcError> {
    Ok(SplitScore {
        mae: mae(pred, &test.y)?,
        sos: same_order_score(pred, &test.y)?,
        r2: r2(pred, &test.y)?,
        r2_per_output: r2_per_output(pred, &test.y)?,
    })
}

/// The block every experiment split runs: fit the normaliser on
/// `train_rows`, fit `kind`, predict `test_rows`, score. Tree families
/// predict on the inference engine (`mphpc_ml::quantized`).
pub fn evaluate_split(
    dataset: &MpHpcDataset,
    kind: ModelKind,
    train_rows: &[usize],
    test_rows: &[usize],
) -> Result<SplitScore, MphpcError> {
    let (train, test) = split_to_ml(dataset, train_rows, test_rows)?;
    fit_and_score(kind, &train, &test)
}

/// Phase 2, Fig. 2: every family through [`evaluate_split`]'s block on one
/// 90-10 split, plus 5-fold CV on the training side.
pub fn evaluate_models(
    dataset: &MpHpcDataset,
    kinds: &[ModelKind],
    seed: u64,
) -> Result<Vec<ModelEvaluation>, MphpcError> {
    if dataset.n_rows() < 10 {
        return Err(MphpcError::InvalidDataset(format!(
            "evaluate_models needs at least 10 rows, got {}",
            dataset.n_rows()
        )));
    }
    let _span = mphpc_telemetry::span!(
        "pipeline.evaluate",
        rows = dataset.n_rows(),
        models = kinds.len()
    );
    let (train_rows, test_rows) = random_split(dataset, 0.1, seed)?;
    let (train, test) = split_to_ml(dataset, &train_rows, &test_rows)?;

    let mut evals = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let _model_span = mphpc_telemetry::span!("pipeline.evaluate.model", model = kind.name());
        evals.push(ModelEvaluation {
            model: kind.name().to_string(),
            test: fit_and_score(*kind, &train, &test)?,
            cv: cross_validate(*kind, &train, 5, seed ^ 0xCF01D)?,
        });
    }
    Ok(evals)
}

/// Train the production predictor on a 90 % training split and package it
/// with its normaliser.
pub fn train_predictor(
    dataset: &MpHpcDataset,
    kind: ModelKind,
    seed: u64,
) -> Result<PerfPredictor, MphpcError> {
    if dataset.n_rows() == 0 {
        return Err(MphpcError::EmptyInput("train_predictor: dataset"));
    }
    let _span = mphpc_telemetry::span!(
        "pipeline.train",
        rows = dataset.n_rows(),
        model = kind.name()
    );
    let (train_rows, _) = random_split(dataset, 0.1, seed)?;
    let normalizer = dataset.fit_normalizer(&train_rows)?;
    let train = dataset.to_ml(&train_rows, &normalizer)?;
    let model = kind
        .fit(&train)
        .context(format!("training {}", kind.name()))?;
    Ok(PerfPredictor::new(model, normalizer))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> MpHpcDataset {
        collect(&CollectionConfig::small(4, 2, 2, 11)).unwrap()
    }

    #[test]
    fn collection_config_sizes() {
        assert_eq!(
            CollectionConfig::small(2, 3, 1, 0).specs().len(),
            2 * 3 * 3 * 4
        );
        let full = CollectionConfig::full(0).specs();
        assert!(full.len() > 10_000);
    }

    #[test]
    fn collect_and_evaluate() {
        let d = small_dataset();
        assert_eq!(d.n_rows(), 4 * 2 * 3 * 4 * 2);
        let evals = evaluate_models(&d, &ModelKind::paper_lineup(), 5).unwrap();
        assert_eq!(evals.len(), 4);
        let by_name = |n: &str| evals.iter().find(|e| e.model == n).unwrap();
        let mean = by_name("Mean");
        let gbt = by_name("XGBoost");
        assert!(gbt.test.r2 > mean.test.r2, "XGBoost R2 must beat mean");
        assert_eq!(gbt.test.r2_per_output.len(), 4);
        assert!(gbt.test.r2_per_output.iter().all(|v| v.is_finite()));
        assert!(
            gbt.test.mae < mean.test.mae,
            "XGBoost {} must beat mean {}",
            gbt.test.mae,
            mean.test.mae
        );
        assert!(gbt.test.sos > 0.0);
        assert_eq!(gbt.cv.fold_mae.len(), 5);
    }

    #[test]
    fn evaluate_rejects_tiny_dataset() {
        let d = collect(&CollectionConfig::small(1, 1, 1, 3)).unwrap();
        // 1 app × 1 input × 3 scales × 4 machines = 12 rows: fine.
        assert!(evaluate_models(&d, &[ModelKind::Mean], 1).is_ok());
    }

    #[test]
    fn predictor_round_trip() {
        let d = small_dataset();
        let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 2).unwrap();
        let profile = profile_one(AppKind::Amg, "-s 3", Scale::OneNode, SystemId::Ruby, 7).unwrap();
        let rpv = p.predict_rpv(&profile).unwrap();
        assert!(rpv.iter().all(|v| v.is_finite() && *v > 0.0), "{rpv:?}");
        // Ruby is the source system: its own component should be near 1.
        let ruby = rpv[SystemId::Ruby.table1_index().unwrap()];
        assert!((ruby - 1.0).abs() < 0.5, "self-relative ≈ 1, got {ruby}");
    }

    #[test]
    fn profile_one_accepts_unknown_input_names() {
        let p = profile_one(
            AppKind::CoMd,
            "-s 99custom",
            Scale::OneCore,
            SystemId::Quartz,
            1,
        )
        .unwrap();
        assert_eq!(p.spec.input.name, "-s 99custom");
    }
}
