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
use mphpc_sched::engine::{predict_rpvs, simulate_full, ScaleStats, SimConfig};
use mphpc_sched::strategy::{
    MachineAssigner, ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin,
};
use mphpc_sched::{row_bits, sample_jobs_indexed, JobTemplate, RpvProvider};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

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
/// prediction from that row's features, the whole dataset in one batch.
/// The RPVs ride on the templates, so callers can edit them before
/// scheduling (noise, workflows); [`run_scale_comparison`] asks for none.
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
/// the input shape of [`run_scale_comparison`], which looks RPVs up in one
/// batch per decision point instead of precomputing them, so the same
/// workload can be driven against a local predictor or a live serving
/// endpoint ([`PredictorRpv`], [`mphpc_sched::FederatedRpv`]).
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
///
/// Each distinct row is predicted once: answers are memoised on the raw
/// features' bit patterns. That is exact, because the predictor is
/// borrowed immutably and `predict_features` answers a row identically
/// whatever batch it is in; the memo holds one entry per distinct row the
/// caller has asked about. Rows sent to the model are counted as
/// `sched.predict.model_rows`.
pub struct PredictorRpv<'a> {
    predictor: &'a PerfPredictor,
    memo: HashMap<Box<[u64]>, [f64; 4]>,
}

impl<'a> PredictorRpv<'a> {
    /// Wrap a trained predictor as a batched RPV lookup service.
    pub fn new(predictor: &'a PerfPredictor) -> Self {
        Self {
            predictor,
            memo: HashMap::new(),
        }
    }
}

impl RpvProvider for PredictorRpv<'_> {
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; 4]>, MphpcError> {
        if let Some(row) = rows.iter().find(|r| r.len() != FEATURE_NAMES.len()) {
            return Err(MphpcError::DimensionMismatch {
                context: "PredictorRpv::predict",
                expected: FEATURE_NAMES.len(),
                found: row.len(),
            });
        }
        // The rows the memo lacks, each once, in first-seen order.
        let mut seen = HashSet::new();
        let raw: Vec<[f64; 21]> = rows
            .iter()
            .filter(|r| !self.memo.contains_key(row_bits(r)) && seen.insert(row_bits(r)))
            .map(|r| r[..].try_into().expect("width checked above"))
            .collect();
        if !raw.is_empty() {
            let answers = self.predictor.predict_features(&raw)?;
            mphpc_telemetry::counter_add("sched.predict.model_rows", raw.len() as u64);
            let keys = raw.iter().map(|r| Box::from(row_bits(r)));
            self.memo.extend(keys.zip(answers));
        }
        Ok(rows.iter().map(|r| self.memo[row_bits(r)]).collect())
    }

    fn name(&self) -> &str {
        "local-predictor"
    }
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
/// counters and the wall-clock the strategy took.
///
/// A comparison asks its provider once, for all five strategies. That ask
/// is charged to Model-based, the one strategy that reads RPVs: its
/// `predict_*` counters and `wall_secs` include the ask, the other four
/// report 0 and their simulation alone. Summed over a comparison's
/// outcomes, the counters and walls are what the comparison did.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOutcome {
    /// The Figs. 7–8 numbers.
    pub outcome: StrategyOutcome,
    /// Calendar-queue / incremental-backfill / prediction counters.
    pub stats: ScaleStats,
    /// Wall-clock seconds of this strategy's simulation, plus the ask for
    /// Model-based.
    pub wall_secs: f64,
}

/// Where Model-based, the strategy charged with a comparison's ask, stands
/// in [`paper_strategies`].
const MODEL_BASED: usize = 3;

/// How every comparison runs its strategies: `simulate` each, side by side
/// on `mphpc_par`'s threads. Results come back in strategy order, or the
/// first error in that order.
fn on_each_strategy<R: Send>(
    strategies: Vec<Box<dyn MachineAssigner>>,
    simulate: impl Fn(usize, &mut dyn MachineAssigner) -> Result<R, MphpcError> + Sync,
) -> Result<Vec<R>, MphpcError> {
    let strategies: Vec<Mutex<_>> = strategies.into_iter().map(Mutex::new).collect();
    mphpc_par::par_map(&strategies, |i, s| {
        simulate(i, s.lock().expect("each strategy runs once").as_mut())
    })
    .into_iter()
    .collect()
}

/// Run the four paper strategies (plus the oracle upper bound) on the
/// Table-I cluster over `n_jobs` sampled from `templates`, arriving at
/// `arrival_rate` jobs/second (0 = all at time zero, a saturated backlog).
///
/// `features[t]` is `templates[t]`'s raw feature row (the
/// [`templates_from_dataset_raw`] pairing). One [`predict_rpvs`] call asks
/// `provider` for the RPVs the templates do not carry, one batch per
/// decision point, and all five strategies simulate the answers.
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
    let (mut jobs, indices) = sample_jobs_indexed(templates, n_jobs, arrival_rate, seed)?;
    let rows: Vec<&[f64]> = indices.iter().map(|&t| &features[t][..]).collect();
    let started = Instant::now();
    let asked = predict_rpvs(&mut jobs, &rows, provider)?;
    let asking = started.elapsed();
    let config = SimConfig::default();
    on_each_strategy(paper_strategies(seed ^ 0x5EED), |i, s| {
        let started = Instant::now();
        let (r, stats) = simulate_full(&jobs, &[], s, &config)?;
        let (asked, asking) = match i {
            MODEL_BASED => (asked, asking),
            _ => Default::default(),
        };
        Ok(ScaleOutcome {
            outcome: StrategyOutcome {
                strategy: r.strategy.to_string(),
                makespan: r.makespan,
                avg_bounded_slowdown: r.avg_bounded_slowdown,
                jobs_per_machine: r.jobs_per_machine,
            },
            stats: ScaleStats {
                predict_batches: asked.predict_batches,
                predict_rows: asked.predict_rows,
                predict_us_total: asked.predict_us_total,
                ..stats
            },
            wall_secs: (asking + started.elapsed()).as_secs_f64(),
        })
    })
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
    let arrivals = mphpc_sched::poisson_arrivals(n_workflows, arrival_rate, seed ^ 0xDA6)?;
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
    on_each_strategy(paper_strategies(0x10F), |_, s| {
        let r = simulate_workflows(workflows, s, &config)?;
        Ok(WorkflowOutcome {
            strategy: r.strategy.to_string(),
            makespan: r.makespan,
            mean_workflow_span: r.mean_workflow_span,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{collect, train_predictor, CollectionConfig};
    use mphpc_ml::ModelKind;
    use mphpc_sched::FnRpvProvider;

    fn setup() -> (MpHpcDataset, PerfPredictor) {
        let d = collect(&CollectionConfig::small(5, 2, 1, 31)).unwrap();
        let p = train_predictor(&d, ModelKind::Gbt(Default::default()), 3).unwrap();
        (d, p)
    }

    /// `n` jobs of `d`'s runs under the five strategies, RPVs from `p`.
    fn compare(d: &MpHpcDataset, p: &PerfPredictor, n: usize, r: f64, s: u64) -> Vec<ScaleOutcome> {
        let (templates, features) = templates_from_dataset_raw(d).unwrap();
        run_scale_comparison(&templates, &features, &mut PredictorRpv::new(p), n, r, s).unwrap()
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
        let outcomes = compare(&d, &p, 400, 0.0, 7);
        let names: Vec<_> = outcomes.iter().map(|o| &o.outcome.strategy).collect();
        assert_eq!(
            names,
            vec!["Round-Robin", "Random", "User+RR", "Model-based", "Oracle"]
        );
        for o in outcomes.iter().map(|o| &o.outcome) {
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
        // Templates that carry an RPV are never asked: a provider that
        // fails if it is asked at all schedules them.
        let (raw_templates, features) = templates_from_dataset_raw(&d).unwrap();
        assert!(raw_templates.iter().all(|t| t.predicted_rpv.is_none()));
        let templates = templates_from_dataset(&d, &p).unwrap();
        let mut never = FnRpvProvider::new("never", |_: &[&[f64]]| {
            Err(MphpcError::Serve("asked for a carried RPV".into()))
        });
        let reference =
            run_scale_comparison(&templates, &features, &mut never, 400, 0.05, 7).unwrap();
        let scale = compare(&d, &p, 400, 0.05, 7);
        assert_eq!(scale.len(), reference.len());
        for (s, r) in scale.iter().zip(&reference) {
            // Bit-identical, not approximately equal: the inline provider
            // runs the very predict_features call the precomputation ran.
            assert_eq!(s.outcome, r.outcome, "{} diverged", r.outcome.strategy);
        }
        let asked = |o: &ScaleOutcome| (o.stats.predict_batches > 0, o.stats.predict_rows);
        let want = [(false, 0), (false, 0), (false, 0), (true, 400), (false, 0)];
        assert_eq!(scale.iter().map(asked).collect::<Vec<_>>(), want);
        assert!(reference.iter().all(|o| asked(o) == (false, 0)));
    }

    /// Output bit patterns: the memo must answer exactly, NaN included.
    fn bits(rpvs: &[[f64; 4]]) -> Vec<[u64; 4]> {
        rpvs.iter().map(|r| r.map(f64::to_bits)).collect()
    }

    /// `predict_features`' own answer for each row, one row at a time.
    fn direct(p: &PerfPredictor, rows: &[[f64; 21]]) -> Vec<[u64; 4]> {
        let answers: Vec<[f64; 4]> = rows
            .iter()
            .map(|r| p.predict_features(&[*r]).unwrap()[0])
            .collect();
        bits(&answers)
    }

    fn ask(provider: &mut PredictorRpv<'_>, rows: &[[f64; 21]]) -> Vec<[u64; 4]> {
        let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        bits(&provider.predict(&rows).unwrap())
    }

    #[test]
    fn memo_answers_duplicates_within_a_batch_once() {
        let (d, p) = setup();
        let (_, f) = templates_from_dataset_raw(&d).unwrap();
        let batch = [f[0], f[1], f[0], f[0], f[1]];
        let mut provider = PredictorRpv::new(&p);
        assert_eq!(ask(&mut provider, &batch), direct(&p, &batch));
        assert_eq!(provider.memo.len(), 2, "one entry per distinct row");
    }

    #[test]
    fn memo_answers_rows_repeated_across_batches() {
        let (d, p) = setup();
        let (_, f) = templates_from_dataset_raw(&d).unwrap();
        let mut provider = PredictorRpv::new(&p);
        assert_eq!(ask(&mut provider, &[f[0], f[1]]), direct(&p, &[f[0], f[1]]));
        let second = [f[1], f[2], f[0]];
        assert_eq!(ask(&mut provider, &second), direct(&p, &second));
        assert_eq!(ask(&mut provider, &[f[2]]), direct(&p, &[f[2]]));
        assert_eq!(provider.memo.len(), 3);
    }

    #[test]
    fn memo_keys_on_bits_signed_zero_and_nan() {
        let (d, p) = setup();
        let (_, f) = templates_from_dataset_raw(&d).unwrap();
        let (mut pos, mut neg, mut nan) = (f[0], f[0], f[0]);
        pos[3] = 0.0;
        neg[3] = -0.0;
        nan[5] = f64::NAN;
        let batch = [pos, neg, nan, neg, nan, pos];
        let mut provider = PredictorRpv::new(&p);
        assert_eq!(ask(&mut provider, &batch), direct(&p, &batch));
        assert_eq!(ask(&mut provider, &[nan, neg]), direct(&p, &[nan, neg]));
        assert_eq!(provider.memo.len(), 3, "0.0 and -0.0 are distinct keys");
    }

    #[test]
    fn wrong_width_row_errors_and_leaves_the_memo_intact() {
        let (d, p) = setup();
        let (_, f) = templates_from_dataset_raw(&d).unwrap();
        let mut provider = PredictorRpv::new(&p);
        assert_eq!(ask(&mut provider, &[f[0]]), direct(&p, &[f[0]]));
        let err = provider.predict(&[&f[1][..], &f[2][..20]]).unwrap_err();
        assert!(
            matches!(
                err,
                MphpcError::DimensionMismatch {
                    expected: 21,
                    found: 20,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(provider.memo.len(), 1, "a failed call inserts nothing");
        let after = [f[1], f[0], f[2]];
        assert_eq!(ask(&mut provider, &after), direct(&p, &after));
    }

    /// 40 templates and 21-wide feature rows (some holding `-0.0`), no
    /// model needed: the provider is a test double.
    fn synthetic() -> (Vec<JobTemplate>, Vec<[f64; 21]>) {
        let templates = (0..40)
            .map(|i| JobTemplate {
                nodes_required: 1 + (i % 2) as u32,
                gpu_capable: i % 3 == 0,
                runtimes: [
                    10.0 + i as f64,
                    20.0 + (i * 7 % 13) as f64,
                    5.0 + (i % 11) as f64,
                    15.0,
                ],
                predicted_rpv: None,
            })
            .collect();
        let features = (0..40)
            .map(|i| std::array::from_fn(|k| if k == 20 { -0.0 } else { (i * k % 17) as f64 }))
            .collect();
        (templates, features)
    }

    /// A finite answer that still tells rows apart.
    fn answer(row: &[f64]) -> [f64; 4] {
        [row[1], 1.0, row[2] * 0.5, 4.0]
    }

    /// FNV-1a over a provider's call log: each call's row count, then the
    /// bits of its rows.
    fn fold_log<'a>(log: impl Iterator<Item = &'a Vec<Vec<f64>>>) -> u64 {
        log.fold(0xcbf2_9ce4_8422_2325, |hash, rows| {
            let bits = rows.iter().flat_map(|r| r.iter().map(|v| v.to_bits()));
            std::iter::once(rows.len() as u64)
                .chain(bits)
                .fold(hash, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
        })
    }

    #[test]
    fn a_comparison_asks_the_provider_what_the_event_loop_asked() {
        let (templates, features) = synthetic();
        // Pinned from one strategy's asking. The event loop asked the same
        // calls once per strategy: folded five times, the log reproduces
        // what it asked for all five.
        for (rate, calls_want, hash_want, five_want) in [
            (
                0.0,
                1,
                5_437_174_631_005_024_847u64,
                (5, 6_903_943_193_095_546_335u64),
            ),
            (
                0.05,
                400,
                8_406_018_228_718_804_197,
                (2_000, 7_255_655_024_141_550_565),
            ),
        ] {
            let mut log: Vec<Vec<Vec<f64>>> = Vec::new();
            let mut recording = FnRpvProvider::new("recording", |rows: &[&[f64]]| {
                log.push(rows.iter().map(|r| r.to_vec()).collect());
                Ok(rows.iter().map(|r| answer(r)).collect())
            });
            let outcomes =
                run_scale_comparison(&templates, &features, &mut recording, 400, rate, 7).unwrap();
            assert_eq!(outcomes.len(), 5);
            let rows: usize = log.iter().map(Vec::len).sum();
            let charged: u64 = outcomes.iter().map(|o| o.stats.predict_rows).sum();
            assert_eq!((rows, charged), (400, 400), "rate {rate}");
            let hash = fold_log(log.iter());
            assert_eq!((log.len(), hash), (calls_want, hash_want), "rate {rate}");
            let five = fold_log(log.iter().cycle().take(5 * log.len()));
            assert_eq!((5 * log.len(), five), five_want, "rate {rate}");
        }
    }

    /// A provider that answers like [`answer`] but goes wrong on call
    /// `at` (from 0) in the way `fault` says.
    struct Faulty {
        calls: usize,
        at: usize,
        fault: &'static str,
    }

    impl RpvProvider for Faulty {
        fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; 4]>, MphpcError> {
            let mut out: Vec<[f64; 4]> = rows.iter().map(|r| answer(r)).collect();
            self.calls += 1;
            if self.calls == self.at + 1 {
                match self.fault {
                    "error" => return Err(MphpcError::Serve("predictor went away".into())),
                    "NaN" => out[0][2] = f64::NAN,
                    _ => drop(out.pop()),
                }
            }
            Ok(out)
        }

        fn name(&self) -> &str {
            "faulty"
        }
    }

    #[test]
    fn the_first_error_in_strategy_order_is_the_event_loops() {
        // 400 Poisson arrivals are 400 calls, one per job in arrival order.
        let (templates, features) = synthetic();
        for (fault, at, want) in [
            ("error", 0, "error: serve error: predictor went away"),
            (
                "NaN",
                200,
                "error: answer of rpv provider faulty\n  caused by: invalid job: job 200: \
                 non-finite predicted RPV [10.0, 1.0, NaN, 4.0]",
            ),
            (
                "short",
                399,
                "error: simulation error: rpv provider returned 0 predictions for 1 rows",
            ),
        ] {
            let mut faulty = Faulty {
                calls: 0,
                at,
                fault,
            };
            let err =
                run_scale_comparison(&templates, &features, &mut faulty, 400, 0.05, 7).unwrap_err();
            assert_eq!(err.render_chain(), want, "{fault}");
            assert_eq!(
                faulty.calls,
                at + 1,
                "{fault}: asked nothing after the fault"
            );
        }
    }

    #[test]
    fn model_based_beats_random_and_oracle_beats_all() {
        let (d, p) = setup();
        let outcomes = compare(&d, &p, 1500, 0.0, 11);
        let get = |n: &str| outcomes.iter().find(|o| o.outcome.strategy == n);
        let get = |n: &str| get(n).unwrap().outcome.makespan;
        assert!(
            get("Model-based") < get("Random"),
            "model {} vs random {}",
            get("Model-based"),
            get("Random")
        );
        assert!(get("Oracle") <= get("Model-based") * 1.05);
    }
}
