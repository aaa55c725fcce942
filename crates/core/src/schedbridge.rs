//! Bridge from the dataset + trained model to the scheduling simulation
//! (§VII).
//!
//! Each dataset row becomes a [`JobTemplate`]: the paired true runtimes on
//! all four systems drive the simulation clock, and the model's predicted
//! RPV (from that row's counters) drives the Model-based strategy — so a
//! wrong prediction really does cost simulated time.

use crate::predictor::PerfPredictor;
use mphpc_dataset::features::FEATURE_NAMES;
use mphpc_dataset::MpHpcDataset;
use mphpc_errors::MphpcError;
use mphpc_sched::dag::{simulate_workflows, Task, Workflow};
use mphpc_sched::engine::{simulate_full, InlineRpv, ScaleStats, SimConfig};
use mphpc_sched::strategy::{
    MachineAssigner, ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin,
};
use mphpc_sched::{sample_jobs, sample_jobs_indexed, Job, JobTemplate, RpvProvider};
use serde::{Deserialize, Serialize};

/// Result of one strategy's simulation (one bar of Figs. 7–8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyOutcome {
    /// Strategy name.
    pub strategy: String,
    /// Makespan in seconds.
    pub makespan: f64,
    /// Average bounded slowdown.
    pub avg_bounded_slowdown: f64,
    /// Jobs started per machine (Table-I order).
    pub jobs_per_machine: [u64; 4],
}

/// Build job templates from every dataset row, attaching the model's
/// prediction computed from that row's (already normalised at training
/// time) features. The whole dataset is predicted as one batch through
/// the inference engine (`mphpc_ml::quantized`), so template
/// construction scales to large run matrices.
pub fn templates_from_dataset(
    dataset: &MpHpcDataset,
    predictor: &PerfPredictor,
) -> Result<Vec<JobTemplate>, MphpcError> {
    let (mut templates, raw_rows) = templates_from_dataset_raw(dataset)?;
    let predictions = predictor.predict_features(&raw_rows)?;
    for (t, p) in templates.iter_mut().zip(predictions) {
        t.predicted_rpv = Some(p);
    }
    Ok(templates)
}

/// The un-predicted half of [`templates_from_dataset`]: one template per
/// dataset row with `predicted_rpv: None`, plus that row's raw feature
/// vector (un-normalised; predictors apply their own normaliser). This is
/// the input shape of the engine's inline-prediction path — RPVs are
/// looked up in batches at simulation decision points instead of being
/// precomputed, so the same workload can be driven against a local
/// predictor or a live serving endpoint ([`PredictorRpv`],
/// [`mphpc_sched::FederatedRpv`]).
pub fn templates_from_dataset_raw(
    dataset: &MpHpcDataset,
) -> Result<(Vec<JobTemplate>, Vec<[f64; 21]>), MphpcError> {
    let n = dataset.n_rows();
    if n == 0 {
        return Err(MphpcError::EmptyInput("templates_from_dataset: dataset"));
    }
    let mut raw_rows: Vec<[f64; 21]> = Vec::with_capacity(n);
    let cols: Vec<Vec<f64>> = FEATURE_NAMES
        .iter()
        .map(|&name| {
            dataset
                .frame
                .column(name)
                .and_then(|c| c.to_f64_vec())
                .map_err(MphpcError::from)
        })
        .collect::<Result<_, MphpcError>>()?;
    for i in 0..n {
        let mut row = [0.0; 21];
        for (j, col) in cols.iter().enumerate() {
            row[j] = col[i];
        }
        raw_rows.push(row);
    }

    let mut templates = Vec::with_capacity(n);
    for i in 0..n {
        let nodes = dataset.frame.f64_at("nodes", i)? as u32;
        let gpu_capable = dataset.frame.bool_at("gpu_capable", i)?;
        let mut runtimes = [0.0; 4];
        for (slot, sys) in runtimes.iter_mut().zip(mphpc_archsim::SystemId::TABLE1) {
            *slot = dataset.runtime_on(i, sys)?;
        }
        templates.push(JobTemplate {
            nodes_required: nodes.max(1),
            gpu_capable,
            runtimes,
            predicted_rpv: None,
        });
    }
    Ok((templates, raw_rows))
}

/// [`RpvProvider`] over an in-process [`PerfPredictor`]: the local leg of
/// predictor federation, and the fallback a [`mphpc_sched::FederatedRpv`]
/// degrades to. Produces bit-identical outputs to
/// [`templates_from_dataset`]'s precomputation (same
/// `predict_features` call on the same raw rows), which is what makes an
/// inline-predicted simulation reproduce the precomputed one's schedule
/// exactly.
pub struct PredictorRpv<'a> {
    predictor: &'a PerfPredictor,
}

impl<'a> PredictorRpv<'a> {
    /// Wrap a trained predictor as a batched RPV lookup service.
    pub fn new(predictor: &'a PerfPredictor) -> Self {
        Self { predictor }
    }
}

impl RpvProvider for PredictorRpv<'_> {
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; 4]>, MphpcError> {
        let mut raw = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != FEATURE_NAMES.len() {
                return Err(MphpcError::DimensionMismatch {
                    context: "PredictorRpv::predict",
                    expected: FEATURE_NAMES.len(),
                    found: row.len(),
                });
            }
            let mut r = [0.0; 21];
            r.copy_from_slice(row);
            raw.push(r);
        }
        self.predictor.predict_features(&raw)
    }

    fn name(&self) -> &str {
        "local-predictor"
    }
}

/// Run the four paper strategies (plus the oracle upper bound) on a
/// workload of `n_jobs` sampled from `templates`.
///
/// `arrival_rate` is jobs/second (0 = all submitted at time zero, as in a
/// saturated backlog).
pub fn run_strategy_comparison(
    templates: &[JobTemplate],
    n_jobs: usize,
    arrival_rate: f64,
    seed: u64,
) -> Result<Vec<StrategyOutcome>, MphpcError> {
    let jobs = sample_jobs(templates, n_jobs, arrival_rate, seed)?;
    let outcomes = compare_strategies(&jobs, seed, None)?;
    Ok(outcomes.into_iter().map(|o| o.outcome).collect())
}

/// The four paper strategies plus the oracle upper bound, in Figs. 7–8
/// order. `random_seed` seeds the Random strategy only — every other
/// strategy is deterministic.
pub fn paper_strategies(random_seed: u64) -> Vec<Box<dyn MachineAssigner>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomAssign::new(random_seed)),
        Box::new(UserRoundRobin::new()),
        Box::new(ModelBased::new()),
        Box::new(Oracle::new()),
    ]
}

/// One strategy's simulation: the Figs. 7–8 numbers plus the engine's own
/// counters and the wall-clock the simulation took.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOutcome {
    /// The fields [`run_strategy_comparison`] reports.
    pub outcome: StrategyOutcome,
    /// Calendar-queue / incremental-backfill / prediction counters.
    pub stats: ScaleStats,
    /// Wall-clock seconds for this strategy's simulation alone.
    pub wall_secs: f64,
}

/// The per-strategy loop both comparisons share: `jobs` under each of
/// [`paper_strategies`] on the Table-I cluster, RPVs looked up through
/// `inline` when given.
fn compare_strategies(
    jobs: &[Job],
    seed: u64,
    mut inline: Option<InlineRpv<'_>>,
) -> Result<Vec<ScaleOutcome>, MphpcError> {
    let config = SimConfig::default();
    paper_strategies(seed ^ 0x5EED)
        .iter_mut()
        .map(|s| {
            let started = std::time::Instant::now();
            // Each strategy's run borrows the one provider in turn.
            let hookup = inline.as_mut().map(|i| InlineRpv {
                features: i.features,
                provider: &mut *i.provider,
            });
            let (r, stats) = simulate_full(jobs, &[], s.as_mut(), &config, hookup)?;
            Ok(ScaleOutcome {
                outcome: StrategyOutcome {
                    strategy: r.strategy.to_string(),
                    makespan: r.makespan,
                    avg_bounded_slowdown: r.avg_bounded_slowdown,
                    jobs_per_machine: r.jobs_per_machine,
                },
                stats,
                wall_secs: started.elapsed().as_secs_f64(),
            })
        })
        .collect()
}

/// [`run_strategy_comparison`] with RPVs looked up inline through
/// `provider`, in one batched call per decision point, instead of
/// precomputed per template — the shape that scales to millions of jobs
/// and to a remote predictor.
///
/// `features[t]` is the raw feature row of `templates[t]`
/// (the [`templates_from_dataset_raw`] pairing); each sampled job borrows
/// its template's row for the provider. Pass templates whose
/// `predicted_rpv` is `None` to exercise the inline path — templates that
/// already carry a prediction are left untouched, so the provider is only
/// consulted for the rest. With a [`PredictorRpv`] over the same trained
/// model, outcomes are bit-identical to [`run_strategy_comparison`] on
/// [`templates_from_dataset`] templates.
pub fn run_scale_comparison(
    templates: &[JobTemplate],
    features: &[[f64; 21]],
    provider: &mut dyn RpvProvider,
    n_jobs: usize,
    arrival_rate: f64,
    seed: u64,
) -> Result<Vec<ScaleOutcome>, MphpcError> {
    if templates.len() != features.len() {
        return Err(MphpcError::DimensionMismatch {
            context: "run_scale_comparison: one feature row per template",
            expected: templates.len(),
            found: features.len(),
        });
    }
    let (jobs, indices) = sample_jobs_indexed(templates, n_jobs, arrival_rate, seed)?;
    let rows: Vec<&[f64]> = indices.iter().map(|&t| &features[t][..]).collect();
    let inline = InlineRpv {
        features: &rows,
        provider,
    };
    compare_strategies(&jobs, seed, Some(inline))
}

/// Result of one strategy on a workflow workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowOutcome {
    /// Strategy name.
    pub strategy: String,
    /// Overall makespan in seconds.
    pub makespan: f64,
    /// Mean workflow turnaround (submission → last task done).
    pub mean_workflow_span: f64,
}

/// Build fork-join workflows from dataset-derived templates: a source task,
/// `width` parallel middle tasks, and a sink — the shape of the paper's
/// motivating "ensembles of tasks in a pipeline" (simulation → analysis →
/// reduction).
pub fn workflows_from_templates(
    templates: &[JobTemplate],
    n_workflows: usize,
    width: usize,
    arrival_rate: f64,
    seed: u64,
) -> Result<Vec<Workflow>, MphpcError> {
    use mphpc_archsim::noise::derive_seed;
    if templates.is_empty() {
        return Err(MphpcError::EmptyInput(
            "workflows_from_templates: no job templates",
        ));
    }
    let arrivals = mphpc_sched::poisson_arrivals(n_workflows, arrival_rate, seed ^ 0xDA6);
    Ok((0..n_workflows)
        .map(|wi| {
            let pick = |slot: u64| {
                let idx =
                    derive_seed(seed, &[0xF10u64, wi as u64, slot]) as usize % templates.len();
                &templates[idx]
            };
            let task_from = |id: u32, deps: Vec<u32>, t: &JobTemplate| Task {
                id,
                deps,
                nodes_required: t.nodes_required,
                gpu_capable: t.gpu_capable,
                runtimes: t.runtimes,
                predicted_rpv: t.predicted_rpv,
            };
            let mut tasks = vec![task_from(0, vec![], pick(0))];
            let mut mids = Vec::new();
            for m in 0..width as u32 {
                tasks.push(task_from(1 + m, vec![0], pick(1 + m as u64)));
                mids.push(1 + m);
            }
            tasks.push(task_from(1 + width as u32, mids, pick(99)));
            Workflow {
                submit_time: arrivals[wi],
                tasks,
            }
        })
        .collect())
}

/// Compare the five strategies on a workflow workload.
pub fn run_workflow_comparison(workflows: &[Workflow]) -> Result<Vec<WorkflowOutcome>, MphpcError> {
    let config = SimConfig::default();
    paper_strategies(0x10F)
        .iter_mut()
        .map(|s| {
            let r = simulate_workflows(workflows, s.as_mut(), &config)?;
            Ok(WorkflowOutcome {
                strategy: r.strategy.to_string(),
                makespan: r.makespan,
                mean_workflow_span: r.mean_workflow_span,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{collect, train_predictor, CollectionConfig};
    use mphpc_ml::ModelKind;

    fn setup() -> (MpHpcDataset, PerfPredictor) {
        let d = collect(&CollectionConfig::small(5, 2, 1, 31)).unwrap();
        let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 3).unwrap();
        (d, p)
    }

    #[test]
    fn templates_cover_every_row() {
        let (d, p) = setup();
        let templates = templates_from_dataset(&d, &p).unwrap();
        assert_eq!(templates.len(), d.n_rows());
        for t in &templates {
            assert!(t.nodes_required >= 1 && t.nodes_required <= 2);
            assert!(t.runtimes.iter().all(|r| *r > 0.0));
            assert!(t.predicted_rpv.is_some());
        }
    }

    #[test]
    fn comparison_runs_all_five_strategies() {
        let (d, p) = setup();
        let templates = templates_from_dataset(&d, &p).unwrap();
        let outcomes = run_strategy_comparison(&templates, 400, 0.0, 7).unwrap();
        let names: Vec<&str> = outcomes.iter().map(|o| o.strategy.as_str()).collect();
        assert_eq!(
            names,
            vec!["Round-Robin", "Random", "User+RR", "Model-based", "Oracle"]
        );
        for o in &outcomes {
            assert!(o.makespan > 0.0);
            assert!(o.avg_bounded_slowdown >= 1.0);
            assert_eq!(o.jobs_per_machine.iter().sum::<u64>(), 400);
        }
    }

    #[test]
    fn workflow_comparison_runs_and_orders() {
        let (d, p) = setup();
        let templates = templates_from_dataset(&d, &p).unwrap();
        let workflows = workflows_from_templates(&templates, 60, 3, 0.0, 5).unwrap();
        assert_eq!(workflows.len(), 60);
        for w in &workflows {
            assert!(w.validate().is_ok());
            assert_eq!(w.tasks.len(), 5);
        }
        let outcomes = run_workflow_comparison(&workflows).unwrap();
        assert_eq!(outcomes.len(), 5);
        let get = |n: &str| outcomes.iter().find(|o| o.strategy == n).unwrap();
        assert!(
            get("Model-based").mean_workflow_span <= get("Random").mean_workflow_span * 1.05,
            "model {} vs random {}",
            get("Model-based").mean_workflow_span,
            get("Random").mean_workflow_span
        );
    }

    #[test]
    fn inline_prediction_matches_precomputed_bitwise() {
        let (d, p) = setup();
        let reference = {
            let templates = templates_from_dataset(&d, &p).unwrap();
            run_strategy_comparison(&templates, 400, 0.05, 7).unwrap()
        };
        let (raw_templates, features) = templates_from_dataset_raw(&d).unwrap();
        assert!(raw_templates.iter().all(|t| t.predicted_rpv.is_none()));
        assert_eq!(raw_templates.len(), features.len());
        let mut provider = PredictorRpv::new(&p);
        let scale =
            run_scale_comparison(&raw_templates, &features, &mut provider, 400, 0.05, 7).unwrap();
        assert_eq!(scale.len(), reference.len());
        for (s, r) in scale.iter().zip(&reference) {
            // Bit-identical, not approximately equal: the inline provider
            // runs the very predict_features call the precomputation ran.
            assert_eq!(s.outcome, *r, "{} diverged", r.strategy);
            assert_eq!(
                s.stats.predict_rows, 400,
                "{}: every job predicted",
                r.strategy
            );
            assert!(s.stats.predict_batches > 0);
        }
    }

    #[test]
    fn model_based_beats_random_and_oracle_beats_all() {
        let (d, p) = setup();
        let templates = templates_from_dataset(&d, &p).unwrap();
        let outcomes = run_strategy_comparison(&templates, 1500, 0.0, 11).unwrap();
        let get = |n: &str| outcomes.iter().find(|o| o.strategy == n).unwrap().makespan;
        assert!(
            get("Model-based") < get("Random"),
            "model {} vs random {}",
            get("Model-based"),
            get("Random")
        );
        assert!(get("Oracle") <= get("Model-based") * 1.05);
    }
}
