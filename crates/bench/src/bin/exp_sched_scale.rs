//! Million-job scheduling at scale (DESIGN.md §17): the Figs. 7–8
//! experiment at 20× the paper's 50,000-job workload, with RPVs predicted
//! *inline* — batched lookups at simulation decision points instead of a
//! precomputed template table.
//!
//! By default a local in-process predictor sits behind the batched lookup
//! interface. `--federate` answers RPV lookups over live HTTP from an
//! `mphpc serve` endpoint instead (an ephemeral in-process one unless
//! `--addr` points elsewhere), each decision-point batch as pipelined
//! multi-row requests with a bounded number in flight, per-request
//! latency accounting, and graceful degradation to the local predictor.
//!
//! `--telemetry jsonl` exports both printed tables as `"type":"table"`
//! records beside the `sched.*` counters — the artifact CI asserts on and
//! uploads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mphpc_bench::{load_or_build_dataset, print_table, ExpArgs};
use mphpc_core::pipeline::train_predictor;
use mphpc_core::schedbridge::{
    run_scale_comparison, templates_from_dataset_raw, PredictorRpv, ScaleOutcome,
};
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_errors::MphpcError;
use mphpc_ml::ModelKind;
use mphpc_sched::{FederatedRpv, FederationStats, RpvProvider};
use mphpc_serve::{serve, ModelRegistry, PredictModel, ServeConfig};

/// Socket timeout of a federated lookup; past it the run degrades to the
/// local predictor.
const LOOKUP_TIMEOUT: Duration = Duration::from_secs(2);
/// Pipelined `/predict` requests in flight: the default server's
/// `max_pipeline`, so the window is as wide as the server reads ahead.
const LOOKUPS_IN_FLIGHT: usize = 32;

const USAGE: &str = "\n\
    \x20            [--jobs N] [--rate JOBS_PER_SEC] [--federate] [--addr HOST:PORT]\n\
    \n\
    --jobs      workload size (default 1000000 — Figs. 7–8 @ 20x)\n\
    --rate      Poisson arrival rate; 0 = saturated backlog (default 0)\n\
    --federate  answer RPV lookups from a live serving endpoint; an\n\
    \x20          ephemeral in-process server is started unless --addr";

fn main() -> std::process::ExitCode {
    mphpc_bench::run(body)
}

fn body() -> Result<(), MphpcError> {
    let (mut jobs, mut rate, mut federate, mut addr) = (1_000_000usize, 0.0f64, false, None);
    let args = ExpArgs::from_env_with(USAGE, |flag, value| {
        match flag {
            "--jobs" => jobs = value().parse().ok().filter(|&n| n > 0)?,
            "--rate" => rate = value().parse().ok()?,
            "--federate" => federate = true,
            "--addr" => addr = Some(value()),
            _ => return None,
        }
        Some(())
    });
    let dataset = load_or_build_dataset(args)?;
    let predictor = train_predictor(&dataset, ModelKind::Gbt(Default::default()), args.seed)?;
    let (templates, features) = templates_from_dataset_raw(&dataset)?;
    eprintln!(
        "[scale] {jobs} jobs sampled from {} templates, rate {rate}/s, seed {}",
        templates.len(),
        args.seed
    );

    // An ephemeral serving endpoint when federating without --addr. Kept
    // alive until the runs finish; jobs keep completing locally if it
    // dies — that is the degradation path, not a failure.
    let mut server = None;
    if federate && addr.is_none() {
        let model = Arc::new(ServedPredictor::new(predictor.clone())) as Arc<dyn PredictModel>;
        let registry = Arc::new(ModelRegistry::new(predictor_loader()));
        registry.install("default", model);
        let handle = serve(ServeConfig::default(), registry)?;
        eprintln!("[serve] ephemeral predictor endpoint on {}", handle.addr());
        addr = Some(handle.addr().to_string());
        server = Some(handle);
    }

    let mut local = PredictorRpv::new(&predictor);
    let mut remote = addr.filter(|_| federate).map(|addr| {
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
    let outcomes = run_scale_comparison(&templates, &features, provider, jobs, rate, args.seed)?;
    let scale_wall = started.elapsed().as_secs_f64();

    print_scale_table(&outcomes, jobs);
    if let Some(federated) = &remote {
        print_federation(&federated.stats());
    }
    eprintln!("[scale] 5 strategies x {jobs} jobs in {scale_wall:.1}s wall");
    if let Some(handle) = server {
        handle.shutdown();
        handle.join();
    }
    Ok(())
}

fn print_scale_table(outcomes: &[ScaleOutcome], jobs: usize) {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.outcome.strategy.clone(),
                format!("{:.3} h", o.outcome.makespan / 3600.0),
                format!("{:.2}", o.outcome.avg_bounded_slowdown),
                format!("{:.1}s", o.wall_secs),
                format!("{}", o.stats.events_dequeued),
                format!("{}/{}", o.stats.incremental_updates, o.stats.full_rescans),
                format!("{}/{}", o.stats.predict_batches, o.stats.predict_rows),
            ]
        })
        .collect();
    print_table(
        &format!("Figs. 7–8 @ scale — {jobs} jobs, inline-predicted"),
        &[
            "strategy",
            "makespan",
            "avg bdd slowdown",
            "wall",
            "events",
            "incr/full passes",
            "predict batches/rows",
        ],
        &rows,
    );
}

fn print_federation(stats: &FederationStats) {
    print_table(
        "Predictor federation — live serving lookups",
        &[
            "requests",
            "responses",
            "rows",
            "timeouts",
            "fallback rows",
            "mean request",
            "max request",
            "degraded",
        ],
        &[vec![
            stats.requests.to_string(),
            stats.responses.to_string(),
            stats.rows.to_string(),
            stats.timeouts.to_string(),
            stats.fallbacks.to_string(),
            format!("{:.0} us", stats.mean_latency_us()),
            format!("{} us", stats.latency_us_max),
            stats.degraded.to_string(),
        ]],
    );
}
