//! Train and evaluate: ML does all the work, archsim almost none.
//!
//! A unit is one fold of a five-fold split of the set-up dataset: one default
//! GBT fit and one default forest fit on the other four folds, the GBT scored
//! on the held-out one, batch prediction with both models, and single-row
//! prediction with the GBT — the same inference layer used the two ways its
//! callers use it (`/predict` one row at a time, the scheduler a whole backlog
//! at once), so a gain for one that costs the other shows.

use crate::run::Ctx;
use crate::stages::chain;
use crate::stages::setup::Inputs;
use crate::stats::{fnv1a_f64, median, tail_p99};
use crate::yardstick::Timed;
use mphpc_archsim::noise::derive_seed;
use mphpc_core::PerfPredictor;
use mphpc_dataset::features::FEATURE_NAMES;
use mphpc_ml::binning::QuantileBinner;
use mphpc_ml::{mae, ForestParams, GbtParams, Matrix, MlDataset, ModelKind, Regressor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Folds of the cross-validation behind `quality_mae`. The first `FOLDS`
/// units hold out one fold each, so after them every row has been predicted
/// once by a model that never saw it; a single 10 % split scores so few rows
/// that the figure moved by a fifth from seed to seed.
const FOLDS: usize = 5;

/// The rows of fold `k` (held out) and of the other folds (trained on), over
/// `order`, a shuffle of the dataset's row indices.
fn fold_rows(order: &[usize], k: usize) -> (Vec<usize>, Vec<usize>) {
    let bounds = |k: usize| k * order.len() / FOLDS;
    let (lo, hi) = (bounds(k), bounds(k + 1));
    let train = order[..lo].iter().chain(&order[hi..]).copied().collect();
    (train, order[lo..hi].to_vec())
}

/// The predictors the later stages serve and schedule with.
pub struct Models {
    pub gbt: PerfPredictor,
    pub forest: PerfPredictor,
}

fn secs(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let started = Instant::now();
    f()?;
    Ok(started.elapsed().as_secs_f64())
}

fn scaled_s(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(Timed::scaled_s).collect()
}

/// Microseconds of each of `calls` single-row predictions, in call order.
fn row_latencies_us(
    p: &PerfPredictor,
    rows: &[[f64; 21]],
    calls: usize,
) -> Result<Vec<f64>, String> {
    let mut us = Vec::with_capacity(calls);
    for i in 0..calls {
        let row = std::slice::from_ref(&rows[i % rows.len()]);
        let started = Instant::now();
        let rpv = p
            .predict_features(black_box(row))
            .map_err(chain("single-row prediction"))?;
        us.push(started.elapsed().as_nanos() as f64 / 1e3);
        black_box(rpv);
    }
    Ok(us)
}

#[derive(Default)]
struct Samples {
    fit_gbt: Vec<Timed>,
    fit_forest: Vec<Timed>,
    batch_gbt: Vec<Timed>,
    batch_forest: Vec<Timed>,
    /// Single-row latencies at the reference host's speed, and as measured.
    row_us: Vec<f64>,
    row_raw_us: Vec<f64>,
    /// Held-out MAE and row count of each of the first [`FOLDS`] units.
    fold_mae: Vec<(f64, usize)>,
}

struct Fitted {
    models: Rc<Models>,
    train: MlDataset,
}

fn unit(
    ctx: &mut Ctx,
    inputs: &Inputs,
    batch: &[[f64; 21]],
    order: &[usize],
    index: usize,
    out: &mut Samples,
) -> Result<Fitted, String> {
    let seed = ctx.unit_seed(1, index);
    let (batch_calls, row_calls) = (ctx.sizes.batch_calls, ctx.sizes.row_calls);
    let ds = &inputs.dataset;
    let (train, test, normalizer) = ctx
        .tracer
        .span("dataset.split_to_ml", |_| {
            let (train_rows, test_rows) = fold_rows(order, index % FOLDS);
            let normalizer = ds.fit_normalizer(&train_rows)?;
            let train = ds.to_ml(&train_rows, &normalizer)?;
            let test = ds.to_ml(&test_rows, &normalizer)?;
            Ok((train, test, normalizer))
        })
        .map_err(chain("splitting the dataset"))?;

    let gbt_kind = ModelKind::Gbt(GbtParams {
        seed,
        ..GbtParams::default()
    });
    let forest_kind = ModelKind::Forest(ForestParams {
        seed,
        ..ForestParams::default()
    });
    let (gbt, took) = ctx.timed(|ctx| ctx.tracer.span("ml.fit.gbt", |_| gbt_kind.fit(&train)));
    out.fit_gbt.push(took);
    let (forest, took) = ctx.timed(|ctx| {
        ctx.tracer
            .span("ml.fit.forest", |_| forest_kind.fit(&train))
    });
    out.fit_forest.push(took);
    ctx.ledger.op(gbt.is_ok(), || "GBT fit failed".to_string());
    ctx.ledger
        .op(forest.is_ok(), || "forest fit failed".to_string());
    let gbt = gbt.map_err(chain("fitting the GBT"))?;
    let forest = forest.map_err(chain("fitting the forest"))?;

    let test_pred = gbt
        .predict(&test.x)
        .map_err(chain("predicting the held-out fold"))?;
    if index < FOLDS {
        let fold_mae = mae(&test_pred, &test.y).map_err(chain("scoring the held-out fold"))?;
        out.fold_mae.push((fold_mae, test.n_samples()));
    }

    let models = Models {
        gbt: PerfPredictor::new(gbt, normalizer.clone()),
        forest: PerfPredictor::new(forest, normalizer),
    };
    // The first prediction lowers the trees to their inference form. Users
    // pay that once per model load, so it finishes before timing starts; the
    // traced run reports it as `ml.first_predict_ms.*`.
    for p in [&models.gbt, &models.forest] {
        p.predict_features(&batch[..1])
            .map_err(chain("first prediction"))?;
    }
    // A batch call is about as long as a yardstick reading and a single-row
    // call far shorter, so each block of calls shares the readings around it.
    let (batch_s, block) = ctx.timed(|ctx| {
        ctx.tracer
            .span("ml.predict_batch", |_| -> Result<_, String> {
                let mut batch_s = Vec::with_capacity(2 * batch_calls);
                for _ in 0..batch_calls {
                    for p in [&models.gbt, &models.forest] {
                        batch_s.push(secs(|| {
                            let rpvs = p
                                .predict_features(black_box(batch))
                                .map_err(chain("batch prediction"))?;
                            black_box(rpvs);
                            Ok(())
                        })?);
                    }
                }
                Ok(batch_s)
            })
    });
    for pair in batch_s?.chunks_exact(2) {
        let at_block_speed = |raw_s| Timed { raw_s, ..block };
        out.batch_gbt.push(at_block_speed(pair[0]));
        out.batch_forest.push(at_block_speed(pair[1]));
    }
    ctx.ledger.ops_ok(2 * batch_calls);
    let (row_us, block) = ctx.timed(|ctx| {
        ctx.tracer.span("ml.predict_rows", |_| {
            row_latencies_us(&models.gbt, batch, row_calls)
        })
    });
    let row_us = row_us?;
    ctx.ledger.ops_ok(row_us.len());
    out.row_us
        .extend(row_us.iter().map(|us| us / block.slowdown));
    out.row_raw_us.extend(row_us);
    Ok(Fitted {
        models: Rc::new(models),
        train,
    })
}

/// Batch and single-row outputs agree bit for bit, and the batch is the
/// same at one thread as at the run's thread count.
fn verify(ctx: &mut Ctx, models: &Models, batch: &[[f64; 21]]) -> Result<(), String> {
    let probe = &batch[..batch.len().min(512)];
    for (name, p) in [("gbt", &models.gbt), ("forest", &models.forest)] {
        let together = p.predict_features(probe).map_err(chain("probe batch"))?;
        let mut agree = true;
        for (row, expected) in probe.iter().zip(&together) {
            let alone = p
                .predict_features(std::slice::from_ref(row))
                .map_err(chain("probe row"))?;
            agree &= alone[0].map(f64::to_bits) == expected.map(f64::to_bits);
        }
        ctx.ledger.op(agree, || {
            format!("{name}: batch and single-row predictions differ")
        });

        let hash = |threads: usize| -> Result<u64, String> {
            mphpc_par::set_thread_override(Some(threads));
            let rpvs = p.predict_features(batch).map_err(chain("hash batch"));
            mphpc_par::set_thread_override(Some(ctx.args.threads));
            Ok(fnv1a_f64(rpvs?.iter().flatten().copied()))
        };
        let (one, many) = (hash(1)?, hash(ctx.args.threads)?);
        ctx.ledger.op(one == many, || {
            format!(
                "{name}: predictions differ between 1 and {} threads",
                ctx.args.threads
            )
        });
        ctx.ledger
            .check(&format!("predict_fnv1a.{name}"), format!("{many:016x}"));
    }
    Ok(())
}

/// Per-layer numbers of the ML crate, measured on the last unit's data.
fn layer_metrics(
    ctx: &mut Ctx,
    fitted: &Fitted,
    samples: &Samples,
    batch: &[[f64; 21]],
) -> Result<(), String> {
    let x = &fitted.train.x;
    let mut fit_ms = Vec::new();
    let mut transform_ms = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let binner = QuantileBinner::fit(black_box(x), GbtParams::default().max_bins);
        fit_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        black_box(binner.transform(black_box(x)));
        transform_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    ctx.ledger
        .put("ml.binner_fit_ms", "ms", median(&fit_ms), fit_ms.len());
    ctx.ledger.put(
        "ml.binner_transform_ms",
        "ms",
        median(&transform_ms),
        transform_ms.len(),
    );

    let outputs = fitted.train.n_outputs();
    let gbt_trees = (GbtParams::default().n_rounds * outputs) as f64;
    let forest_trees = ForestParams::default().n_trees as f64;
    let n = samples.fit_gbt.len();
    ctx.ledger.put(
        "ml.fit_gbt_trees_per_s",
        "1/s",
        gbt_trees / median(&scaled_s(&samples.fit_gbt)),
        n,
    );
    ctx.ledger.put(
        "ml.fit_forest_trees_per_s",
        "1/s",
        forest_trees / median(&scaled_s(&samples.fit_forest)),
        n,
    );

    let rows = batch.len() as f64;
    for (name, p, batch_s) in [
        ("gbt", &fitted.models.gbt, scaled_s(&samples.batch_gbt)),
        (
            "forest",
            &fitted.models.forest,
            scaled_s(&samples.batch_forest),
        ),
    ] {
        ctx.ledger.put(
            &format!("ml.predict_batch_rows_per_s.{name}"),
            "rows/s",
            rows / median(&batch_s),
            batch_s.len(),
        );
        let row_us = if name == "gbt" {
            samples.row_us.clone()
        } else {
            row_latencies_us(p, batch, ctx.sizes.row_calls / 4)?
        };
        let steady_us = median(&row_us);
        ctx.ledger.put(
            &format!("ml.predict_row_p50_us.{name}"),
            "us",
            steady_us,
            row_us.len(),
        );

        // A model fresh from JSON has no inference form yet: its first
        // prediction pays the lowering, later ones do not.
        let json = p.to_json().map_err(chain("exporting a predictor"))?;
        let started = Instant::now();
        let reloaded = PerfPredictor::from_json(&json).map_err(chain("reloading a predictor"))?;
        let parse_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        black_box(
            reloaded
                .predict_features(&batch[..1])
                .map_err(chain("first prediction"))?,
        );
        let first_ms = started.elapsed().as_secs_f64() * 1e3;
        ctx.ledger.put(
            &format!("ml.first_predict_ms.{name}"),
            "ms",
            (first_ms - steady_us / 1e3).max(0.0),
            1,
        );
        if name == "gbt" {
            ctx.ledger
                .put("ml.model_json_mb", "MB", json.len() as f64 / 1e6, 1);
            ctx.ledger.put("ml.model_json_parse_ms", "ms", parse_ms, 1);
        }
    }

    // `predict_features` = normalise + `model().predict`; the share of the
    // first in the total is what the predictor wrapper costs.
    let p = &fitted.models.gbt;
    let mut data = Vec::with_capacity(batch.len() * FEATURE_NAMES.len());
    for row in batch {
        let mut r = *row;
        p.normalizer()
            .transform_row(&FEATURE_NAMES, &mut r)
            .map_err(chain("normalising"))?;
        data.extend_from_slice(&r);
    }
    let x = Matrix::from_vec(data, batch.len(), FEATURE_NAMES.len());
    let mut whole = Vec::new();
    let mut model_only = Vec::new();
    for _ in 0..3 {
        whole.push(secs(|| {
            p.predict_features(black_box(batch))
                .map(|r| drop(black_box(r)))
                .map_err(chain("batch"))
        })?);
        model_only.push(secs(|| {
            p.model()
                .predict(black_box(&x))
                .map(|r| drop(black_box(r)))
                .map_err(chain("batch"))
        })?);
    }
    let share = (1.0 - median(&model_only) / median(&whole)).max(0.0);
    ctx.ledger.put(
        "core.predict_features_overhead_share",
        "ratio",
        share,
        whole.len(),
    );
    Ok(())
}

/// The train stage's state across rounds.
pub struct Stage {
    batch: Vec<[f64; 21]>,
    /// The dataset's row indices, shuffled once per run: the folds.
    order: Vec<usize>,
    samples: Samples,
    /// The first unit's fits: the models served and scheduled with.
    first: Option<Rc<Models>>,
    last: Option<Fitted>,
}

impl Stage {
    pub fn new(ctx: &Ctx, inputs: &Inputs) -> Self {
        let mut order: Vec<usize> = (0..inputs.dataset.n_rows()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(derive_seed(
            ctx.args.seed,
            &[1, FOLDS as u64],
        )));
        Self {
            order,
            batch: inputs
                .features
                .iter()
                .cycle()
                .take(ctx.sizes.batch_rows)
                .copied()
                .collect(),
            samples: Samples::default(),
            first: None,
            last: None,
        }
    }

    pub fn unit(&mut self, ctx: &mut Ctx, inputs: &Inputs, index: usize) -> Result<(), String> {
        let token = ctx.tracer.open("stage.train");
        let fitted = unit(
            ctx,
            inputs,
            &self.batch,
            &self.order,
            index,
            &mut self.samples,
        );
        ctx.tracer.close(token);
        let fitted = fitted?;
        if self.first.is_none() {
            self.first = Some(Rc::clone(&fitted.models));
        }
        self.last = Some(fitted);
        Ok(())
    }

    pub fn models(&self) -> Option<Rc<Models>> {
        self.first.clone()
    }

    /// Report the stage's metrics, check its outputs, and in a traced run
    /// measure the ML layers; returns the models of the first unit.
    pub fn finish(self, ctx: &mut Ctx) -> Result<Rc<Models>, String> {
        let Stage {
            batch,
            samples,
            first,
            last,
            ..
        } = self;
        let (first, fitted) = first.zip(last).ok_or("the train stage ran no unit")?;

        let identity = |s: f64| s;
        ctx.ledger
            .put_timed("fit_gbt_s", "s", &samples.fit_gbt, identity);
        ctx.ledger
            .put_timed("fit_forest_s", "s", &samples.fit_forest, identity);
        let batches: Vec<Timed> = samples
            .batch_gbt
            .iter()
            .chain(&samples.batch_forest)
            .copied()
            .collect();
        let rows = batch.len() as f64;
        ctx.ledger
            .put_timed("predict_batch_rows_per_s", "rows/s", &batches, |s| rows / s);
        let tail = tail_p99(&samples.row_us);
        let calls = samples.row_us.len();
        ctx.ledger
            .put("predict_row_p50_us", "us", median(&samples.row_us), calls);
        ctx.ledger.put(
            "predict_row_p50_us.raw",
            "us",
            median(&samples.row_raw_us),
            calls,
        );
        ctx.ledger
            .put("predict_row_p99_us", "us", tail.value, samples.row_us.len());
        ctx.ledger
            .param("predict_row_tail_percentile", tail.percentile);
        ctx.ledger
            .param("predict_row_tail_windows", tail.windows as f64);
        // Pooled over the held-out folds, so it does not depend on how many
        // further units the run had time for.
        let scored: usize = samples.fold_mae.iter().map(|(_, rows)| rows).sum();
        let abs_error: f64 = samples
            .fold_mae
            .iter()
            .map(|(mae, rows)| mae * *rows as f64)
            .sum();
        ctx.ledger
            .put("quality_mae", "rpv", abs_error / scored as f64, scored);
        ctx.ledger
            .param("train_rows", fitted.train.n_samples() as f64);

        verify(ctx, &fitted.models, &batch)?;
        if ctx.args.trace {
            layer_metrics(ctx, &fitted, &samples, &batch)?;
        }
        Ok(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition_the_rows() {
        let order: Vec<usize> = (0..23).rev().collect();
        let mut held_out = Vec::new();
        for k in 0..FOLDS {
            let (train, test) = fold_rows(&order, k);
            assert_eq!(train.len() + test.len(), order.len());
            assert!((4..=5).contains(&test.len()), "fold {k}: {}", test.len());
            assert!(test.iter().all(|row| !train.contains(row)));
            held_out.extend(test);
        }
        held_out.sort_unstable();
        assert_eq!(held_out, (0..23).collect::<Vec<_>>());
    }
}
