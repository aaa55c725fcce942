//! Substrate micro-benchmarks and design-choice ablations:
//!
//! * trace-driven vs analytic cache model (the DESIGN.md ablation: the
//!   analytic model is the fast path for very large sweeps);
//! * synthetic trace generation (bitmap-indexed LRU stack), over the locality
//!   regimes whose costs differ: deep reuse, shallow reuse, streaming;
//! * profiler run cost (one dataset cell);
//! * parallel map scaling of the collection driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mphpc_archsim::cache::CacheSimulator;
use mphpc_archsim::machine::{corona, quartz};
use mphpc_archsim::noise::rng_for;
use mphpc_archsim::trace::{TraceGenerator, DEFAULT_TRACE_LEN};
use mphpc_archsim::LocalityProfile;
use mphpc_profiler::profile_run;
use mphpc_workloads::{AppKind, InputConfig, RunSpec, Scale};

fn profile() -> LocalityProfile {
    LocalityProfile {
        working_set_bytes: 2.0e8,
        theta: 0.6,
        streaming: 0.25,
    }
}

/// The locality regimes the trace path's costs depend on: `mixed` draws deep
/// reuse distances, `reuse_heavy` re-touches a small working set (shallow
/// order-statistic queries, every set warm), `streaming` mostly touches fresh
/// lines (first-touch set allocation).
fn locality_regimes() -> [(&'static str, LocalityProfile); 3] {
    let regime = |working_set_bytes, theta, streaming| LocalityProfile {
        working_set_bytes,
        theta,
        streaming,
    };
    [
        ("mixed", profile()),
        ("reuse_heavy", regime(256.0 * 1024.0, 0.3, 0.0)),
        ("streaming", regime(2.0e8, 0.6, 0.5)),
    ]
}

fn bench_cache_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_model_ablation");
    group.throughput(Throughput::Elements(DEFAULT_TRACE_LEN as u64));
    // Quartz's node-shared L3 at full sharing has few sets; Corona's unshared
    // L3 on a one-core run has 131 072, the largest set table in Table I.
    for (machine, cpu, ranks) in [
        ("quartz_node", quartz().cpu, 36),
        ("corona_core", corona().cpu, 1),
    ] {
        for (regime, locality) in locality_regimes() {
            let id = BenchmarkId::new("trace_driven", format!("{machine}/{regime}"));
            group.bench_function(id, |b| {
                let mut sim = CacheSimulator::new();
                let mut rng = rng_for(1, &[]);
                b.iter(|| sim.run(&locality, 0.25, &cpu, ranks, &mut rng))
            });
        }
    }
    group.bench_function("analytic", |b| {
        let cpu = quartz().cpu;
        let mut sim = CacheSimulator::analytic();
        let mut rng = rng_for(1, &[]);
        b.iter(|| sim.run(&profile(), 0.25, &cpu, 36, &mut rng))
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    for n in [8_192usize, 32_768, 131_072] {
        group.throughput(Throughput::Elements(n as u64));
        for (regime, locality) in locality_regimes() {
            group.bench_with_input(BenchmarkId::new(regime, n), &n, |b, &n| {
                let mut gen = TraceGenerator::new();
                let mut out = Vec::new();
                let mut rng = rng_for(2, &[]);
                b.iter(|| {
                    gen.generate_into(&locality, n, 0.3, 64, &mut rng, &mut out);
                    out.len()
                })
            });
        }
    }
    group.finish();
}

fn bench_profiler_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiler");
    group.sample_size(20);
    for (label, app) in [("cpu_app", AppKind::CoMd), ("gpu_app", AppKind::Sw4Lite)] {
        let spec = RunSpec {
            app,
            input: InputConfig::new("-s 3", 1.0),
            scale: Scale::OneNode,
            machine: mphpc_archsim::SystemId::Quartz,
            rep: 0,
        };
        group.bench_function(label, |b| {
            let mut sim = CacheSimulator::new();
            b.iter(|| profile_run(std::hint::black_box(&spec), 7, &mut sim).unwrap())
        });
    }
    group.finish();
}

fn bench_par_map(c: &mut Criterion) {
    let items: Vec<u64> = (0..4096).collect();
    let work = |x: u64| {
        // ~1 µs of arithmetic per item.
        let mut acc = x;
        for i in 0..800 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    let mut group = c.benchmark_group("par_map_scaling");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            mphpc_par::par_map_with(&items, mphpc_par::ParConfig::sequential(), |_, &x| work(x))
        })
    });
    group.bench_function("parallel_default", |b| {
        b.iter(|| mphpc_par::par_map(&items, |_, &x| work(x)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_models,
    bench_trace_generation,
    bench_profiler_run,
    bench_par_map
);
criterion_main!(benches);
