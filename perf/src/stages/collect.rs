//! Collect: the paper's phase 1 with the trace-driven cache model.
//!
//! A unit is a campaign through `pipeline::collect` (every chosen app × one
//! input × three scales × four machines), the dataset's CSV round trip,
//! `train_predictor` with the default GBT, the predictor's JSON round trip
//! through the artifact store, and `predict_rpv` on freshly profiled runs.
//! The stack-distance cache simulation should own most of it.

use crate::run::Ctx;
use crate::stages::chain;
use crate::stats::fnv1a;
use crate::workload::spread_apps;
use crate::yardstick::Timed;
use mphpc_archsim::cache::CacheSimulator;
use mphpc_archsim::exec::simulate_run_with;
use mphpc_archsim::machine::machine_by_id;
use mphpc_archsim::noise::{derive_seed, rng_for};
use mphpc_archsim::trace::{MemRef, TraceGenerator, DEFAULT_TRACE_LEN};
use mphpc_core::pipeline::{collect, profile_one, train_predictor, CollectionConfig};
use mphpc_core::PerfPredictor;
use mphpc_dataset::split::random_split;
use mphpc_dataset::{build_dataset_from_profiles, MpHpcDataset};
use mphpc_frame::{read_csv_str, write_csv_string};
use mphpc_ml::ModelKind;
use mphpc_profiler::{profile_matrix, profile_run};
use mphpc_storage::{LocalDirStorage, Storage};
use mphpc_workloads::{Application, RunSpec};
use std::hint::black_box;
use std::time::Instant;

fn campaign(apps: usize, seed: u64) -> CollectionConfig {
    CollectionConfig {
        apps: Some(spread_apps(apps)),
        inputs_per_app: Some(1),
        reps: 1,
        seed,
    }
}

#[derive(Default)]
struct Samples {
    /// `pipeline::collect` alone, and the whole unit.
    collect: Vec<Timed>,
    wall: Vec<Timed>,
}

/// What the first unit leaves for verification and replay.
struct First {
    specs: Vec<RunSpec>,
    seed: u64,
    dataset: MpHpcDataset,
    csv: String,
    model_json: String,
    matrix_wall_s: f64,
}

/// `pipeline::collect`, or in a traced unit the two calls it is made of, so
/// that each can carry a span. Returns the parallel driver's wall seconds too.
fn collect_dataset(
    ctx: &mut Ctx,
    cfg: &CollectionConfig,
    specs: &[RunSpec],
    traced: bool,
) -> Result<(MpHpcDataset, f64), String> {
    let Ctx { tracer, ledger, .. } = ctx;
    if !traced {
        let collected = collect(cfg);
        ledger.op(collected.is_ok(), || "pipeline::collect failed".to_string());
        return Ok((collected.map_err(chain("collecting"))?, 0.0));
    }
    let started = Instant::now();
    let profiles: Result<Vec<_>, String> = tracer
        .span("profiler.profile_matrix", |_| {
            profile_matrix(specs, cfg.seed)
        })
        .into_iter()
        .collect();
    let matrix_wall_s = started.elapsed().as_secs_f64();
    let profiles = profiles.map_err(|e| format!("profiling: {e}"));
    ledger.op(profiles.is_ok(), || "profile_matrix failed".to_string());
    let dataset = tracer.span("dataset.build", |_| {
        build_dataset_from_profiles(&profiles?).map_err(chain("building the dataset"))
    })?;
    Ok((dataset, matrix_wall_s))
}

/// What follows collection in a unit: the CSV round trip, training, the
/// predictor's JSON round trip through the store, and predicting fresh
/// profiles. Returns the re-read dataset, the model's JSON, and whether the
/// reloaded predictor predicted the same bits.
fn train_and_predict(
    ctx: &mut Ctx,
    store: &LocalDirStorage,
    dataset: &MpHpcDataset,
    specs: &[RunSpec],
    seed: u64,
) -> Result<(MpHpcDataset, String, bool), String> {
    let n_profiles = ctx.sizes.collect_profiles;
    let csv_path = ctx.scratch.join("dataset.csv");
    let tracer = &mut ctx.tracer;
    tracer
        .span("dataset.write_csv", |_| dataset.write_csv(&csv_path))
        .map_err(chain("writing the CSV"))?;
    let reread = tracer
        .span("dataset.read_csv", |_| MpHpcDataset::read_csv(&csv_path))
        .map_err(chain("reading the CSV"))?;
    let predictor = tracer
        .span("core.train_small", |_| {
            train_predictor(dataset, ModelKind::Gbt(Default::default()), seed)
        })
        .map_err(chain("training"))?;
    let (model_json, reloaded) = tracer
        .span("core.predictor_json", |t| {
            let json = predictor.to_json()?;
            t.span("storage.put_atomic", |_| {
                store.put_atomic("model.json", json.as_bytes())
            })?;
            let reloaded = PerfPredictor::from_json(&json)?;
            Ok((json, reloaded))
        })
        .map_err(chain("the predictor's JSON round trip"))?;
    let mut same_bits = true;
    tracer.span("core.predict_profiles", |_| -> Result<(), String> {
        for k in 0..n_profiles {
            let spec = &specs[(k * 37 + 5) % specs.len()];
            let profile = profile_one(
                spec.app,
                &spec.input.name,
                spec.scale,
                spec.machine,
                derive_seed(seed, &[k as u64]),
            )
            .map_err(chain("profiling one run"))?;
            let rpv = predictor
                .predict_rpv(&profile)
                .map_err(chain("predicting an RPV"))?;
            let again = reloaded
                .predict_rpv(&profile)
                .map_err(chain("predicting an RPV"))?;
            same_bits &= rpv.map(f64::to_bits) == again.map(f64::to_bits);
        }
        Ok(())
    })?;
    Ok((reread, model_json, same_bits))
}

fn unit(
    ctx: &mut Ctx,
    store: &LocalDirStorage,
    index: usize,
    traced: bool,
    out: &mut Samples,
) -> Result<First, String> {
    let seed = ctx.unit_seed(2, index);
    let cfg = campaign(ctx.sizes.collect_apps, seed);
    let specs = cfg.specs();

    let (collected, collect_took) = ctx.timed(|ctx| collect_dataset(ctx, &cfg, &specs, traced));
    let (dataset, matrix_wall_s) = collected?;
    let (rest, rest_took) = ctx.timed(|ctx| train_and_predict(ctx, store, &dataset, &specs, seed));
    let (reread, model_json, same_bits) = rest?;
    out.collect.push(collect_took);
    out.wall.push(collect_took.then(rest_took));

    // Output checks, outside the timed intervals.
    let ledger = &mut ctx.ledger;
    ledger.ops_ok(specs.len() + ctx.sizes.collect_profiles);
    ledger.op(
        dataset.n_rows() == specs.len() && dataset.incomplete_groups == 0,
        || format!("{} rows from {} runs", dataset.n_rows(), specs.len()),
    );
    let audit = dataset.audit();
    ledger.op(audit.is_ok(), || format!("dataset audit: {audit:?}"));
    ledger.op(reread == dataset, || {
        "the CSV round trip changed the dataset".to_string()
    });
    ledger.op(same_bits, || {
        "the JSON-reloaded predictor predicts differently".to_string()
    });
    let csv = write_csv_string(&dataset.frame);
    Ok(First {
        specs,
        seed,
        dataset,
        csv,
        model_json,
        matrix_wall_s,
    })
}

/// The same campaign at one thread and at the run's thread count must give
/// byte-identical CSV.
fn verify_threads(ctx: &mut Ctx) -> Result<(), String> {
    let cfg = campaign(ctx.sizes.collect_apps.min(2), ctx.unit_seed(2, usize::MAX));
    let hash = |threads: usize| -> Result<u64, String> {
        mphpc_par::set_thread_override(Some(threads));
        let ds = collect(&cfg).map_err(chain("collecting for the thread check"));
        mphpc_par::set_thread_override(Some(ctx.args.threads));
        Ok(fnv1a(write_csv_string(&ds?.frame).as_bytes()))
    };
    let (one, many) = (hash(1)?, hash(ctx.args.threads)?);
    ctx.ledger.op(one == many, || {
        format!("CSV differs between 1 and {} threads", ctx.args.threads)
    });
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn profile_run_us(spec: &RunSpec, seed: u64, sim: &mut CacheSimulator) -> Result<f64, String> {
    let t = Instant::now();
    black_box(profile_run(spec, seed, sim).map_err(|e| format!("replaying profile_run: {e}"))?);
    Ok(t.elapsed().as_secs_f64() * 1e6)
}

/// Per-layer numbers by replay: every eighth run of the first unit goes
/// through `profile_run` and then through each function it nests, alone and
/// on one thread, and the nesting is resolved by subtraction.
fn layer_metrics(ctx: &mut Ctx, first: &First, store: &LocalDirStorage) -> Result<(), String> {
    let mut sim = CacheSimulator::new();
    let mut trace_buf: Vec<MemRef> = Vec::new();
    let (mut profile_us, mut demands_us, mut simulate_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cache_us, mut gen_us) = (Vec::new(), Vec::new());
    let mut cache_refs = 0u64;
    let mut cache_us_by_run = Vec::new();
    for spec in first.specs.iter().step_by(8) {
        // Once before and once after the inner calls, so that a change of
        // the host's speed in between does not bias the shares.
        let before_us = profile_run_us(spec, first.seed, &mut sim)?;

        let machine = machine_by_id(spec.machine).ok_or("replay: unknown machine")?;
        let app: Application = spec.application();
        let t = Instant::now();
        let demands = black_box(app.demands(&spec.input));
        demands_us.push(t.elapsed().as_secs_f64() * 1e6);

        let config = spec.scale.run_config(&machine, app.spec.gpu);
        let run_seed = derive_seed(first.seed, &spec.seed_labels());
        let t = Instant::now();
        black_box(
            simulate_run_with(&machine, &demands, config, run_seed, &mut sim)
                .map_err(|e| format!("replaying simulate_run_with: {e}"))?,
        );
        simulate_us.push(t.elapsed().as_secs_f64() * 1e6);

        let mut run_cache_us = 0.0;
        for (ki, d) in demands.iter().enumerate() {
            if config.use_gpu && machine.has_gpu() && d.gpu_offloadable {
                continue; // offloaded kernels do not touch the CPU cache model
            }
            let stores = d.mix.store / (d.mix.load + d.mix.store).max(f64::MIN_POSITIVE);
            let mut rng = rng_for(run_seed, &[0xCAC4E, ki as u64]);
            let t = Instant::now();
            let result = sim.run(
                &d.locality,
                stores,
                &machine.cpu,
                config.ranks_per_node.max(1),
                &mut rng,
            );
            let us = t.elapsed().as_secs_f64() * 1e6;
            cache_refs += black_box(result).total_refs;
            cache_us.push(us);
            run_cache_us += us;

            let line = machine
                .cpu
                .cache_levels
                .first()
                .map_or(64, |l| l.line_bytes);
            let mut rng = rng_for(run_seed, &[0xCAC4E, ki as u64]);
            let t = Instant::now();
            TraceGenerator::new().generate_into(
                &d.locality,
                DEFAULT_TRACE_LEN,
                stores,
                line,
                &mut rng,
                &mut trace_buf,
            );
            gen_us.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(&trace_buf);
        }
        cache_us_by_run.push(run_cache_us);
        profile_us.push((before_us + profile_run_us(spec, first.seed, &mut sim)?) / 2.0);
    }
    let n = profile_us.len();
    let l = &mut ctx.ledger;
    l.put("workloads.demands_us_per_run", "us", mean(&demands_us), n);
    l.put(
        "archsim.trace_gen_us_per_kernel",
        "us",
        mean(&gen_us),
        gen_us.len(),
    );
    l.put(
        "archsim.cache_run_us_per_kernel",
        "us",
        mean(&cache_us),
        cache_us.len(),
    );
    l.put(
        "archsim.cache_refs_per_s",
        "1/s",
        cache_refs as f64 / (cache_us.iter().sum::<f64>() / 1e6),
        cache_us.len(),
    );
    l.put("archsim.simulate_run_us", "us", mean(&simulate_us), n);
    let cache_share = cache_us_by_run.iter().sum::<f64>() / profile_us.iter().sum::<f64>();
    l.put("archsim.cache_share", "ratio", cache_share, n);
    l.put("profiler.profile_run_us", "us", mean(&profile_us), n);
    l.put(
        "profiler.self_us_per_run",
        "us",
        (mean(&profile_us) - mean(&simulate_us)).max(0.0),
        n,
    );
    // Sequential time of all runs, estimated from the sample, over the
    // thread-seconds the parallel driver held.
    let sequential_s = mean(&profile_us) / 1e6 * first.specs.len() as f64;
    let efficiency = sequential_s / (ctx.args.threads as f64 * first.matrix_wall_s);
    l.put("par.collect_efficiency", "ratio", efficiency, n);
    ctx.tracer.replayed_child(
        "profiler.profile_matrix",
        (cache_share * first.matrix_wall_s * 1e9) as u64,
    );

    // The dataset, frame, storage and core layers, each call alone.
    let t = Instant::now();
    let (train_rows, _) =
        random_split(&first.dataset, 0.1, first.seed).map_err(chain("replaying the split"))?;
    let normalizer = first
        .dataset
        .fit_normalizer(&train_rows)
        .map_err(chain("replaying fit_normalizer"))?;
    black_box(
        first
            .dataset
            .to_ml(&train_rows, &normalizer)
            .map_err(chain("replaying to_ml"))?,
    );
    let to_ml_s = t.elapsed().as_secs_f64();
    l.put("dataset.to_ml_ms", "ms", to_ml_s * 1e3, 1);
    ctx.tracer
        .replayed_child("core.train_small", (to_ml_s * 1e9) as u64);

    let mb = first.csv.len() as f64 / 1e6;
    let t = Instant::now();
    black_box(write_csv_string(black_box(&first.dataset.frame)));
    l.put(
        "frame.csv_write_mb_per_s",
        "MB/s",
        mb / t.elapsed().as_secs_f64(),
        1,
    );
    let t = Instant::now();
    black_box(
        read_csv_str(black_box(&first.csv)).map_err(|e| format!("replaying read_csv_str: {e}"))?,
    );
    l.put(
        "frame.csv_read_mb_per_s",
        "MB/s",
        mb / t.elapsed().as_secs_f64(),
        1,
    );
    let mut put_ms = Vec::new();
    for (key, bytes) in [
        ("replay/dataset.csv", first.csv.as_bytes()),
        ("replay/model.json", first.model_json.as_bytes()),
    ] {
        let t = Instant::now();
        store
            .put_atomic(key, bytes)
            .map_err(chain("replaying put_atomic"))?;
        put_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    l.put("storage.put_atomic_ms", "ms", mean(&put_ms), put_ms.len());

    let units = ctx.tracer.count("core.train_small").max(1) as f64;
    l.put(
        "dataset.build_s",
        "s",
        ctx.tracer.total_s("dataset.build") / units,
        units as usize,
    );
    l.put(
        "core.train_small_s",
        "s",
        ctx.tracer.total_s("core.train_small") / units,
        units as usize,
    );
    l.put(
        "core.predictor_json_ms",
        "ms",
        ctx.tracer.total_self_s("core.predictor_json") / units * 1e3,
        units as usize,
    );
    Ok(())
}

/// `collect.unattributed_share`: the part of the traced units' wall time no
/// span inside them accounts for.
fn unattributed_share(ctx: &Ctx) -> f64 {
    let unit_s = ctx.tracer.total_s("collect.unit");
    if unit_s == 0.0 {
        return 0.0;
    }
    ctx.tracer.total_self_s("collect.unit") / unit_s
}

/// The collect stage's state across rounds.
pub struct Stage {
    store: LocalDirStorage,
    samples: Samples,
    first: Option<First>,
}

impl Stage {
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        Ok(Self {
            store: LocalDirStorage::open(ctx.scratch.join("store"))
                .map_err(chain("opening the artifact store"))?,
            samples: Samples::default(),
            first: None,
        })
    }

    pub fn unit(&mut self, ctx: &mut Ctx, index: usize, traced: bool) -> Result<(), String> {
        let stage = ctx.tracer.open("stage.collect");
        let token = ctx.tracer.open("collect.unit");
        let result = unit(ctx, &self.store, index, traced, &mut self.samples);
        ctx.tracer.close(token);
        ctx.tracer.close(stage);
        let data = result?;
        // Replay needs a traced unit's parallel wall time; a traced run's
        // first unit is traced.
        if self.first.is_none() {
            self.first = Some(data);
        }
        Ok(())
    }

    pub fn finish(self, ctx: &mut Ctx) -> Result<(), String> {
        let Stage {
            store,
            samples,
            first,
        } = self;
        let first = first.ok_or("the collect stage ran no unit")?;
        let runs = first.specs.len() as f64;
        ctx.ledger
            .put_timed("collect_runs_per_s", "runs/s", &samples.collect, |s| {
                runs / s
            });
        ctx.ledger
            .put_timed("pipeline_wall_s", "s", &samples.wall, |s| s);
        ctx.ledger
            .param("collect_runs_per_unit", first.specs.len() as f64);
        ctx.ledger
            .check("csv_fnv1a", format!("{:016x}", fnv1a(first.csv.as_bytes())));
        verify_threads(ctx)?;

        if ctx.args.trace {
            layer_metrics(ctx, &first, &store)?;
            let share = unattributed_share(ctx);
            ctx.ledger.put(
                "collect.unattributed_share",
                "ratio",
                share,
                ctx.tracer.count("collect.unit"),
            );
        }
        Ok(())
    }
}
