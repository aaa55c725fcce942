//! Experiments beyond the paper (DESIGN.md §3, X1–X6) and Figs. 7–8 at
//! 20× scale. Their claims are this repository's own findings, as
//! EXPERIMENTS.md records them.

use crate::ExpSize::{Full, Medium, Small};
use crate::{cells, gbt, num, number, print_columns, print_table, rises, Claim, Ctx, Tables};
use mphpc_archsim::cache::CacheModel;
use mphpc_archsim::noise::{lognormal_perturb, rng_for};
use mphpc_core::pipeline::{evaluate_models, evaluate_split, fit_and_score, train_predictor};
use mphpc_core::schedbridge::{
    run_scale_comparison, run_workflow_comparison, templates_from_dataset,
    templates_from_dataset_raw, workflows_from_templates, PredictorRpv,
};
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_dataset::split::{random_split, size_split};
use mphpc_dataset::{build_dataset_with_model, RpvReference};
use mphpc_errors::MphpcError;
use mphpc_ml::tree::TreeParams;
use mphpc_ml::{GbtParams, ModelKind};
use mphpc_sched::engine::{simulate, SimConfig};
use mphpc_sched::strategy::ModelBased;
use mphpc_sched::{sample_jobs, FederatedRpv, JobTemplate, RpvProvider, ScaleStats};
use mphpc_serve::{serve, ModelRegistry, PredictModel, ServeConfig};
use mphpc_telemetry::TelemetryMode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SATURATED: &str = "Extension — makespan vs";

pub(crate) const SENSITIVITY: &[Claim] = &[
    Claim {
        text: "X1: under a saturated backlog, uninformative predictions move the Model-based makespan < 5 %",
        min_size: Small,
        holds: |t| {
            let exact = num(t, SATURATED, "0.00", "makespan");
            (num(t, SATURATED, "uninformative", "makespan") - exact).abs() < 0.05 * exact
        },
    },
    Claim {
        text: "X1: in the open system, mean response time grows exact < σ = 2.0 < uninformative",
        min_size: Small,
        holds: |t| {
            let rows = ["exact model", "σ = 2.0", "uninformative"];
            rises(t, "Extension — open system", "mean response time", &rows)
        },
    },
];

/// The templates with every predicted RPV component multiplied by
/// log-normal noise of `sigma`, or — `None` — replaced by a fresh random
/// vector that carries no information; noise stream `rng_for(seed, labels)`.
fn degrade(
    templates: &[JobTemplate],
    sigma: Option<f64>,
    seed: u64,
    labels: &[u64],
) -> Vec<JobTemplate> {
    let rng = &mut rng_for(seed, labels);
    templates
        .iter()
        .map(|t| {
            let mut t = t.clone();
            match sigma {
                None => t.predicted_rpv = Some([(); 4].map(|_| lognormal_perturb(1.0, 1.5, rng))),
                Some(sigma) => {
                    for v in t.predicted_rpv.iter_mut().flatten() {
                        *v = lognormal_perturb(*v, sigma, rng);
                    }
                }
            }
            t
        })
        .collect()
}

/// X1: how accurate does the model have to be? Degrade the trained
/// model's predictions (not the true runtimes) with increasing
/// multiplicative noise and re-run the Model-based scheduling simulation,
/// saturated and as an open system at moderate load — where machines are
/// not always full, so the per-job machine choice is real.
pub(crate) fn sensitivity(ctx: &Ctx) -> Tables {
    let dataset = ctx.dataset()?;
    let predictor = train_predictor(dataset, gbt(), ctx.seed)?;
    let templates = templates_from_dataset(dataset, &predictor)?;
    let (n_jobs, rate) = match ctx.size {
        Small => (3_000, 0.05),
        Medium => (10_000, 0.15),
        Full => (30_000, 0.30),
    };
    let run = |noisy: &[JobTemplate], rate: f64| {
        let jobs = sample_jobs(noisy, n_jobs, rate, ctx.seed)?;
        simulate(&jobs, &mut ModelBased::new(), &SimConfig::default())
    };

    // Last: no information at all — the strategy stays capacity-aware.
    let sigmas = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0].map(Some);
    let mut rows = Vec::new();
    for sigma in sigmas.into_iter().chain([None]) {
        let labels = sigma.map_or(vec![0xDEAD], |s| vec![0x5E45, (s * 1000.0) as u64]);
        let r = run(&degrade(&templates, sigma, ctx.seed, &labels), 0.0)?;
        rows.push(vec![
            sigma.map_or("uninformative".to_string(), |s| format!("{s:.2}")),
            format!("{:.3} h", r.makespan / 3600.0),
            format!("{:.2}", r.avg_bounded_slowdown),
        ]);
    }
    let saturated = print_table(
        "Extension — makespan vs prediction-noise sigma (Model-based strategy)",
        &["prediction noise σ", "makespan", "avg bounded slowdown"],
        rows,
    );

    let mut rows = Vec::new();
    for (label, sigma) in [
        ("exact model", Some(0.0)),
        ("σ = 0.5", Some(0.5)),
        ("σ = 2.0", Some(2.0)),
        ("uninformative", None),
    ] {
        let labels = [
            0x0BE4,
            (sigma.unwrap_or(0.0) * 1000.0) as u64,
            sigma.is_none() as u64,
        ];
        let r = run(&degrade(&templates, sigma, ctx.seed, &labels), rate)?;
        // Mean job response time (wait + run) is where placement quality
        // shows in an open system.
        let mean_response = r
            .records
            .iter()
            .map(|rec| rec.end - rec.submit)
            .sum::<f64>()
            / r.records.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("{:.1} s", mean_response),
            format!("{:.2}", r.avg_bounded_slowdown),
        ]);
    }
    let open = print_table(
        &format!("Extension — open system at {rate} jobs/s: accuracy now matters"),
        &["predictions", "mean response time", "avg bounded slowdown"],
        rows,
    );
    Ok(vec![saturated, open])
}

pub(crate) const RPV_REFERENCE: &[Claim] = &[Claim {
    text: "X2: MAE scales with the target range — max-relative < self-relative < min-relative",
    min_size: Small,
    holds: |t| {
        let rows = [
            "relative to slowest (max)",
            "self-relative (paper)",
            "relative to fastest (min)",
        ];
        rises(t, "Extension — RPV reference", "MAE", &rows)
    },
}];

/// X2: §IV defines RPVs relative to an arbitrary system plus the
/// `rpv(·,·,min)` and `rpv(·,·,max)` variants; the paper models the
/// self-relative form. Retrain XGBoost against each target normalisation.
pub(crate) fn rpv_reference(ctx: &Ctx) -> Tables {
    let dataset = ctx.dataset()?;
    let (tr, te) = random_split(dataset, 0.1, ctx.seed)?;
    let norm = dataset.fit_normalizer(&tr)?;
    let mut rows = Vec::new();
    for (label, reference) in [
        ("self-relative (paper)", RpvReference::SelfSystem),
        ("relative to fastest (min)", RpvReference::Min),
        ("relative to slowest (max)", RpvReference::Max),
    ] {
        let train = dataset.to_ml_with_reference(&tr, &norm, reference)?;
        let test = dataset.to_ml_with_reference(&te, &norm, reference)?;
        let score = fit_and_score(gbt(), &train, &test)?;
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", score.mae),
            format!("{:.4}", score.sos),
        ]);
    }
    Ok(vec![print_table(
        "Extension — RPV reference-system ablation (XGBoost)",
        &["target normalisation", "MAE", "SOS"],
        rows,
    )])
}

/// X3: XGBoost hyper-parameter sweep (rounds × depth × learning rate) —
/// the tuning pass the paper performed implicitly when selecting its model.
pub(crate) fn hyperparams(ctx: &Ctx) -> Tables {
    let dataset = ctx.dataset()?;
    let (tr, te) = random_split(dataset, 0.1, ctx.seed)?;
    let norm = dataset.fit_normalizer(&tr)?;
    let train = dataset.to_ml(&tr, &norm)?;
    let test = dataset.to_ml(&te, &norm)?;

    let mut rows = Vec::new();
    let mut best = (f64::INFINITY, String::new());
    for rounds in [40usize, 120, 240] {
        for depth in [3usize, 6, 9] {
            for lr in [0.05f64, 0.12, 0.3] {
                let params = GbtParams {
                    n_rounds: rounds,
                    learning_rate: lr,
                    tree: TreeParams {
                        max_depth: depth,
                        ..GbtParams::default().tree
                    },
                    ..GbtParams::default()
                };
                let score = fit_and_score(ModelKind::Gbt(params), &train, &test)?;
                if score.mae < best.0 {
                    best = (score.mae, format!("rounds={rounds} depth={depth} lr={lr}"));
                }
                rows.push(vec![
                    rounds.to_string(),
                    depth.to_string(),
                    format!("{lr}"),
                    format!("{:.4}", score.mae),
                    format!("{:.4}", score.sos),
                ]);
            }
        }
    }
    let table = print_table(
        "Extension — GBT hyper-parameter sweep",
        &["rounds", "depth", "lr", "MAE", "SOS"],
        rows,
    );
    println!("\nbest configuration: {} (MAE {:.4})", best.1, best.0);
    Ok(vec![table])
}

pub(crate) const CACHE_ABLATION: &[Claim] = &[Claim {
    text: "X4: the trace-driven cache model buys a lower XGBoost MAE than the analytic one",
    min_size: Small,
    holds: |t| {
        rises(
            t,
            "Ablation — cache-model",
            "XGBoost MAE",
            &["trace-driven", "analytic"],
        )
    },
}];

/// `archsim.cache.{first_touches, refs}` as counted so far.
fn cache_counters() -> [u64; 2] {
    let report = mphpc_telemetry::capture();
    ["archsim.cache.first_touches", "archsim.cache.refs"].map(|n| report.counter(n).unwrap_or(0))
}

/// X4 (DESIGN.md §5): trace-driven set-associative cache simulation vs the
/// closed-form analytic stack-distance model — a fully-associative
/// approximation, orders of magnitude faster. Builds the dataset both ways
/// and compares the downstream model quality.
pub(crate) fn cache_ablation(ctx: &Ctx) -> Tables {
    let specs = ctx.size.config(ctx.seed).specs();
    // The first-touch share is read off the `archsim.cache.*` counters, which
    // count only while telemetry is on: without `--telemetry`, switch it on
    // for the builds and drop what it recorded.
    let quiet = !mphpc_telemetry::enabled();
    if quiet {
        mphpc_telemetry::set_mode(TelemetryMode::Summary);
    }
    let mut rows = Vec::new();
    for (label, model) in [
        ("trace-driven", CacheModel::Trace),
        ("analytic", CacheModel::Analytic),
    ] {
        eprintln!("[collect] building dataset with the {label} cache model ...");
        let before = cache_counters();
        let start = Instant::now();
        let dataset = build_dataset_with_model(&specs, ctx.seed, model)?;
        let build_secs = start.elapsed().as_secs_f64();
        let after = cache_counters();
        let (first_touches, refs) = (after[0] - before[0], after[1] - before[1]);
        let evals = evaluate_models(&dataset, &[gbt()], ctx.seed)?;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}s", build_secs),
            // Compulsory misses the trace model charges without simulating.
            match first_touches {
                0 => "–".to_string(),
                n => format!("{:.1}%", 100.0 * n as f64 / refs as f64),
            },
            format!("{:.4}", evals[0].test.mae),
            format!("{:.4}", evals[0].test.sos),
        ]);
    }
    if quiet {
        mphpc_telemetry::reset();
        mphpc_telemetry::set_mode(TelemetryMode::Off);
    }
    Ok(vec![print_table(
        "Ablation — cache-model backend vs dataset build time and model quality",
        &[
            "cache model",
            "build time",
            "first touches",
            "XGBoost MAE",
            "XGBoost SOS",
        ],
        rows,
    )])
}

const EXTRAPOLATION: &str = "Extension — problem-size";

const SPLITS: [&str; 3] = [
    "random 75/25 (interpolation)",
    "hold out largest 1 input(s)",
    "hold out largest 2 input(s)",
];

pub(crate) const SIZE_EXTRAPOLATION: &[Claim] = &[
    Claim {
        text: "X5: MAE grows from interpolation to one and to two held-out sizes",
        // Needs three inputs per application: two to hold out, one to train on.
        min_size: Medium,
        holds: |t| rises(t, EXTRAPOLATION, "MAE", &SPLITS),
    },
    Claim {
        text: "X5: the ordering survives extrapolation — SOS ≥ 0.7 on every split",
        // Measured false at medium (0.57 / 0.60 with one input left to train on).
        min_size: Full,
        holds: |t| {
            cells(t, EXTRAPOLATION, "SOS")
                .iter()
                .all(|c| number(c) >= 0.7)
        },
    },
];

/// X5: hold out every application's largest inputs and ask the model for
/// problem sizes it never saw — the deployment case where a user scales up
/// a familiar code. The baseline is interpolation at matched test size.
pub(crate) fn size_extrapolation(ctx: &Ctx) -> Tables {
    let dataset = ctx.dataset()?;
    let splits = [
        random_split(dataset, 0.25, ctx.seed)?,
        size_split(dataset, 1)?,
        size_split(dataset, 2)?,
    ];
    let mut rows = Vec::new();
    for (label, (tr, te)) in SPLITS.iter().zip(splits) {
        // A campaign with two inputs per application has nothing left to
        // train on once both are held out.
        if tr.is_empty() || te.is_empty() {
            continue;
        }
        let score = evaluate_split(dataset, gbt(), &tr, &te)?;
        rows.push(vec![
            label.to_string(),
            tr.len().to_string(),
            te.len().to_string(),
            format!("{:.4}", score.mae),
            format!("{:.4}", score.sos),
        ]);
    }
    Ok(vec![print_table(
        "Extension — problem-size extrapolation (XGBoost)",
        &["split", "train rows", "test rows", "MAE", "SOS"],
        rows,
    )])
}

const WORKFLOWS: &str = "Extension — workflow";
const TURNAROUND: &str = "mean workflow turnaround";

pub(crate) const WORKFLOW: &[Claim] = &[Claim {
    text: "X6: mean workflow turnaround Oracle ≤ Model-based (within 2 %) < User+RR < Round-Robin, Random",
    min_size: Small,
    holds: |t| {
        let span = |strategy| num(t, WORKFLOWS, strategy, TURNAROUND);
        span("Model-based") <= 1.02 * span("Oracle")
            && rises(t, WORKFLOWS, TURNAROUND, &["Model-based", "User+RR", "Round-Robin"])
            && rises(t, WORKFLOWS, TURNAROUND, &["User+RR", "Random"])
    },
}];

/// X6: workflow (DAG) scheduling — the paper's motivating use case.
/// Fork-join workflows (source → 4 parallel tasks → sink) sampled from the
/// dataset trickle in as an open system; placement errors propagate along
/// the critical path, so per-workflow turnaround separates the strategies
/// more sharply than independent jobs do.
pub(crate) fn workflow(ctx: &Ctx) -> Tables {
    let dataset = ctx.dataset()?;
    let predictor = train_predictor(dataset, gbt(), ctx.seed)?;
    let templates = templates_from_dataset(dataset, &predictor)?;
    let n_workflows = match ctx.size {
        Small => 300,
        Medium => 1_000,
        Full => 4_000,
    };
    let (width, rate) = (4, 0.2);
    eprintln!(
        "[workflow] {n_workflows} fork-join workflows of {} tasks ...",
        width + 2
    );
    let workflows = workflows_from_templates(&templates, n_workflows, width, rate, ctx.seed)?;
    let outcomes = run_workflow_comparison(&workflows)?;

    let user = outcomes
        .iter()
        .find(|o| o.strategy == "User+RR")
        .ok_or_else(|| MphpcError::Simulation("comparison lost the User+RR baseline".into()))?
        .mean_workflow_span;
    let vs_user = |span: f64| format!("{:+.1}%", 100.0 * (span - user) / user);
    Ok(vec![print_columns(
        "Extension — workflow scheduling (fork-join DAGs)",
        &outcomes,
        &[
            ("strategy", &|o| o.strategy.clone()),
            ("mean workflow turnaround", &|o| {
                format!("{:.1} s", o.mean_workflow_span)
            }),
            ("vs User+RR", &|o| vs_user(o.mean_workflow_span)),
            ("makespan", &|o| format!("{:.3} h", o.makespan / 3600.0)),
        ],
    )])
}

const AT_SCALE: &str = "Figs. 7–8 @ scale";

pub(crate) const SCHED_SCALE: &[Claim] = &[Claim {
    text: "Figs. 7–8 @ scale: Model-based makespan within 2 % of Oracle and below every model-blind strategy",
    min_size: Small,
    holds: |t| {
        let makespan = |strategy| num(t, AT_SCALE, strategy, "makespan");
        makespan("Model-based") <= 1.02 * makespan("Oracle")
            && ["Round-Robin", "Random", "User+RR"]
                .iter()
                .all(|blind| rises(t, AT_SCALE, "makespan", &["Model-based", blind]))
    },
}];

/// Socket timeout of a federated lookup; past it the run degrades to the
/// local predictor.
const LOOKUP_TIMEOUT: Duration = Duration::from_secs(2);
/// Pipelined `/predict` requests in flight: the default server's
/// `max_pipeline`, so the window is as wide as the server reads ahead.
const LOOKUPS_IN_FLIGHT: usize = 32;

/// Million-job scheduling (DESIGN.md §17): Figs. 7–8 at 20× the paper's
/// 50,000-job workload, with RPVs predicted *inline* — batched lookups at
/// simulation decision points instead of a precomputed template table. By
/// default a local in-process predictor sits behind the batched lookup
/// interface; `--federate` answers the lookups over live HTTP from an
/// `mphpc serve` endpoint instead, each decision-point batch as pipelined
/// multi-row requests with a bounded number in flight, and degrades
/// gracefully to the local predictor.
pub(crate) fn sched_scale(ctx: &Ctx) -> Tables {
    let dataset = ctx.dataset()?;
    let predictor = train_predictor(dataset, gbt(), ctx.seed)?;
    let (templates, features) = templates_from_dataset_raw(dataset)?;
    let (jobs, rate, seed, n) = (ctx.jobs, ctx.rate, ctx.seed, templates.len());
    eprintln!("[scale] {jobs} jobs sampled from {n} templates, rate {rate}/s, seed {seed}");

    // An ephemeral serving endpoint when federating without --addr. Kept
    // alive until the runs finish; jobs keep completing locally if it
    // dies — that is the degradation path, not a failure.
    let mut addr = ctx.addr.clone();
    let mut server = None;
    if ctx.federate && addr.is_none() {
        let model = Arc::new(ServedPredictor::new(predictor.clone())) as Arc<dyn PredictModel>;
        let registry = Arc::new(ModelRegistry::new(predictor_loader()));
        registry.install("default", model);
        let handle = serve(ServeConfig::default(), registry)?;
        eprintln!("[serve] ephemeral predictor endpoint on {}", handle.addr());
        addr = Some(handle.addr().to_string());
        server = Some(handle);
    }

    let mut local = PredictorRpv::new(&predictor);
    let mut remote = addr.filter(|_| ctx.federate).map(|addr| {
        FederatedRpv::new(
            &addr,
            "default",
            LOOKUP_TIMEOUT,
            LOOKUPS_IN_FLIGHT,
            Box::new(PredictorRpv::new(&predictor)),
        )
    });
    let provider: &mut dyn RpvProvider = match &mut remote {
        Some(federated) => federated,
        None => &mut local,
    };
    let started = Instant::now();
    let outcomes = run_scale_comparison(&templates, &features, provider, jobs, rate, seed)?;
    let scale_wall = started.elapsed().as_secs_f64();

    let passes = |s: &ScaleStats| format!("{}/{}", s.incremental_updates, s.full_rescans);
    let mut tables = vec![print_columns(
        &format!("Figs. 7–8 @ scale — {jobs} jobs, inline-predicted"),
        &outcomes,
        &[
            ("strategy", &|o| o.outcome.strategy.clone()),
            ("makespan", &|o| {
                format!("{:.3} h", o.outcome.makespan / 3600.0)
            }),
            ("avg bdd slowdown", &|o| {
                format!("{:.2}", o.outcome.avg_bounded_slowdown)
            }),
            ("wall", &|o| format!("{:.1}s", o.wall_secs)),
            ("events", &|o| o.stats.events_dequeued.to_string()),
            ("incr/full passes", &|o| passes(&o.stats)),
            ("predict batches/rows", &|o| {
                format!("{}/{}", o.stats.predict_batches, o.stats.predict_rows)
            }),
        ],
    )];
    if let Some(federated) = &remote {
        tables.push(print_columns(
            "Predictor federation — live serving lookups",
            &[federated.stats()],
            &[
                ("requests", &|s| s.requests.to_string()),
                ("responses", &|s| s.responses.to_string()),
                ("rows", &|s| s.rows.to_string()),
                ("rows sent", &|s| s.sent_rows.to_string()),
                ("timeouts", &|s| s.timeouts.to_string()),
                ("fallback rows", &|s| s.fallbacks.to_string()),
                ("mean request", &|s| {
                    format!("{:.0} us", s.mean_latency_us())
                }),
                ("max request", &|s| format!("{} us", s.latency_us_max)),
                ("degraded", &|s| s.degraded.to_string()),
            ],
        ));
    }
    eprintln!("[scale] 5 strategies x {jobs} jobs in {scale_wall:.1}s wall");
    if let Some(handle) = server {
        handle.shutdown();
        handle.join();
    }
    Ok(tables)
}
