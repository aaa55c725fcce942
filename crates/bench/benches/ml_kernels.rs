//! ML-substrate micro-benchmarks: histogram tree construction, boosting
//! rounds, binning, and the linear-algebra kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mphpc_ml::binning::QuantileBinner;
use mphpc_ml::hist::{self, GradHess, Variance};
use mphpc_ml::tree::{grow, Criterion as _, TrainingView, TreeParams};
use mphpc_ml::{
    ForestParams, ForestRegressor, GbtParams, GbtRegressor, LinearParams, LinearRegressor, Matrix,
    MlDataset,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic(n: usize, p: usize, k: usize, seed: u64) -> MlDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, p);
    let mut y = Matrix::zeros(n, k);
    for i in 0..n {
        for j in 0..p {
            x.set(i, j, rng.gen_range(-1.0..1.0));
        }
        for j in 0..k {
            let v = x.get(i, j % p) * 2.0 + x.get(i, (j + 1) % p).powi(2);
            y.set(i, j, v);
        }
    }
    MlDataset::new(x, y, (0..p).map(|j| format!("f{j}")).collect()).unwrap()
}

fn bench_binning(c: &mut Criterion) {
    let d = synthetic(10_000, 21, 4, 1);
    let mut group = c.benchmark_group("binning");
    group.throughput(Throughput::Elements(10_000 * 21));
    group.bench_function("fit_and_transform", |b| {
        b.iter(|| {
            let binner = QuantileBinner::fit(&d.x, 64);
            binner.transform(&d.x)
        })
    });
    group.finish();
}

fn bench_gbt_rounds(c: &mut Criterion) {
    let d = synthetic(5_000, 21, 4, 2);
    let mut group = c.benchmark_group("gbt_training");
    group.sample_size(10);
    for rounds in [20usize, 60, 120] {
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |b, &r| {
            let params = GbtParams {
                n_rounds: r,
                ..GbtParams::default()
            };
            b.iter(|| GbtRegressor::fit(std::hint::black_box(&d), params))
        });
    }
    group.finish();
}

fn bench_forest_and_linear(c: &mut Criterion) {
    let d = synthetic(5_000, 21, 4, 3);
    let mut group = c.benchmark_group("baselines_training");
    group.sample_size(10);
    group.bench_function("forest_100_trees", |b| {
        b.iter(|| ForestRegressor::fit(std::hint::black_box(&d), ForestParams::default()))
    });
    group.bench_function("ridge", |b| {
        b.iter(|| LinearRegressor::fit(std::hint::black_box(&d), LinearParams::default()))
    });
    group.finish();
}

/// Isolate the histogram engine: each criterion's accumulation kernel,
/// sibling subtraction, and one full tree grown under each criterion,
/// without the ensemble loop around them.
fn bench_tree_kernels(c: &mut Criterion) {
    let d = synthetic(20_000, 21, 4, 4);
    let view = TrainingView::fit(&d.x, 64);
    let n = d.n_samples();
    let rows: Vec<u32> = (0..n as u32).collect();
    let grad: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let hess = vec![1.0; n];
    let gbt_params = TreeParams {
        max_depth: 9,
        min_child_weight: 2.0,
        colsample: 0.9,
        ..TreeParams::default()
    };
    let forest_params = ForestParams::default().tree;
    let gh = GradHess {
        grad: &grad,
        hess: &hess,
        params: &gbt_params,
    };
    let variance = Variance::new(&d.y, &forest_params);

    let mut group = c.benchmark_group("hist_kernels");
    group.throughput(Throughput::Elements((n * d.n_features()) as u64));
    let mut arena = vec![0.0; view.layout.stats_len(gh.width())];
    group.bench_function("accumulate_gh_20k_rows", |b| {
        b.iter(|| {
            arena.iter_mut().for_each(|v| *v = 0.0);
            gh.accumulate(&view, &rows, &mut arena);
            std::hint::black_box(arena.last().copied())
        })
    });
    let mut target_arena = vec![0.0; view.layout.stats_len(variance.width())];
    group.bench_function("accumulate_targets_20k_rows", |b| {
        b.iter(|| {
            target_arena.iter_mut().for_each(|v| *v = 0.0);
            variance.accumulate(&view, &rows, &mut target_arena);
            std::hint::black_box(target_arena.last().copied())
        })
    });
    let child: Vec<f64> = arena.iter().map(|v| v * 0.5).collect();
    group.bench_function("sibling_subtract", |b| {
        b.iter(|| {
            let mut parent = arena.clone();
            hist::subtract(&mut parent, &child);
            std::hint::black_box(parent.last().copied())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("tree_build");
    group.sample_size(20);
    group.bench_function("gbt_tree_20k_rows_depth9", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(17);
            grow(
                std::hint::black_box(&view),
                rows.clone(),
                Vec::new(),
                &gh,
                &gbt_params,
                &mut rng,
                |_, _, _| {},
            )
        })
    });
    group.bench_function("variance_tree_20k_rows_depth12", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(17);
            grow(
                std::hint::black_box(&view),
                rows.clone(),
                Vec::new(),
                &variance,
                &forest_params,
                &mut rng,
                |_, _, _| {},
            )
        })
    });
    group.finish();
}

/// Inference: the reference per-row enum-tree traversal vs the quantized
/// bin-indexed engine (what `predict` routes to), for single-row latency
/// and batched throughput.
fn bench_inference(c: &mut Criterion) {
    let train = synthetic(5_000, 21, 4, 5);
    let gbt = GbtRegressor::fit(&train, GbtParams::default()).expect("fit");
    let forest = ForestRegressor::fit(&train, ForestParams::default()).expect("fit");
    // Lower both models outside the timed region: serving steady-state
    // is what the scheduler bridge and CV loops see after the first call.
    gbt.quantized().expect("lower");
    forest.quantized().expect("lower");

    // Per-call latency distribution for the serving path, measured through
    // the telemetry histogram (criterion reports means; tail latency is
    // what the micro-batching server's deadline arithmetic cares about).
    single_row_latency_histogram(&gbt, &forest);

    let one = synthetic(1, 21, 4, 6);
    let mut group = c.benchmark_group("inference_single_row");
    group.bench_function("gbt_reference", |b| {
        b.iter(|| gbt.predict_reference(std::hint::black_box(&one.x)))
    });
    group.bench_function("gbt_quantized", |b| {
        b.iter(|| gbt.predict(std::hint::black_box(&one.x)))
    });
    group.bench_function("forest_reference", |b| {
        b.iter(|| forest.predict_reference(std::hint::black_box(&one.x)))
    });
    group.bench_function("forest_quantized", |b| {
        b.iter(|| forest.predict(std::hint::black_box(&one.x)))
    });
    group.finish();

    for rows in [5_000usize, 20_000] {
        let batch = synthetic(rows, 21, 4, 7);
        let mut group = c.benchmark_group(format!("inference_batch_{rows}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_function("gbt_reference", |b| {
            b.iter(|| gbt.predict_reference(std::hint::black_box(&batch.x)))
        });
        group.bench_function("gbt_quantized", |b| {
            b.iter(|| gbt.predict(std::hint::black_box(&batch.x)))
        });
        group.bench_function("forest_reference", |b| {
            b.iter(|| forest.predict_reference(std::hint::black_box(&batch.x)))
        });
        group.bench_function("forest_quantized", |b| {
            b.iter(|| forest.predict(std::hint::black_box(&batch.x)))
        });
        group.finish();
    }
}

/// Record 2000 fresh single-row predicts per engine into a telemetry
/// histogram and print p50/p99 (µs). Rows vary per call so the branch
/// history and cache state look like live serving traffic, not a single
/// hot row replayed.
fn single_row_latency_histogram(gbt: &GbtRegressor, forest: &ForestRegressor) {
    let probes = synthetic(2_000, 21, 4, 8);
    let rows: Vec<Matrix> = (0..probes.x.rows())
        .map(|i| Matrix::from_rows(&[probes.x.row(i).to_vec()]))
        .collect();
    let time_all = |f: &dyn Fn(&Matrix) -> Matrix| {
        let mut hist = mphpc_telemetry::HistSummary::new();
        let mut sink = 0.0;
        for x in &rows {
            let t0 = std::time::Instant::now();
            sink += f(x).get(0, 0);
            hist.record(t0.elapsed().as_secs_f64() * 1e6);
        }
        std::hint::black_box(sink);
        hist
    };
    let gbt_ref = time_all(&|x| gbt.predict_reference(x).expect("predict"));
    let gbt_q = time_all(&|x| gbt.predict(x).expect("predict"));
    let forest_ref = time_all(&|x| forest.predict_reference(x).expect("predict"));
    let forest_q = time_all(&|x| forest.predict(x).expect("predict"));
    for (name, hist) in [
        ("gbt_reference", gbt_ref),
        ("gbt_quantized", gbt_q),
        ("forest_reference", forest_ref),
        ("forest_quantized", forest_q),
    ] {
        println!(
            "single_row_latency/{name}: p50 {:.1} µs, p99 {:.1} µs",
            hist.p50(),
            hist.p99()
        );
    }
}

criterion_group!(
    benches,
    bench_binning,
    bench_gbt_rounds,
    bench_forest_and_linear,
    bench_tree_kernels,
    bench_inference
);
criterion_main!(benches);
