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
//! `--jsonl PATH` appends one machine-readable line per strategy run, the
//! artifact CI uploads.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mphpc_bench::{load_or_build_dataset, print_table, ExpArgs, ExpSize};
use mphpc_core::pipeline::train_predictor;
use mphpc_core::schedbridge::{
    run_scale_comparison, templates_from_dataset_raw, PredictorRpv, ScaleOutcome,
};
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_errors::MphpcError;
use mphpc_ml::ModelKind;
use mphpc_sched::{FederatedRpv, FederationStats};
use mphpc_serve::{serve, ModelRegistry, PredictModel, ServeConfig};

#[derive(Debug, Clone)]
struct Args {
    jobs: usize,
    rate: f64,
    seed: u64,
    size: ExpSize,
    federate: bool,
    addr: Option<String>,
    timeout_ms: u64,
    inflight: usize,
    jsonl: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: exp_sched_scale [--jobs N] [--rate JOBS_PER_SEC] [--seed N]\n\
         \x20                      [--size small|medium|full]\n\
         \x20                      [--federate] [--addr HOST:PORT] [--timeout-ms N]\n\
         \x20                      [--inflight N] [--jsonl PATH]\n\
         \x20                      [--telemetry off|summary|jsonl|trace]\n\
         \n\
         --jobs      workload size (default 1000000 — Figs. 7–8 @ 20x)\n\
         --rate      Poisson arrival rate; 0 = saturated backlog (default 0)\n\
         --federate  answer RPV lookups from a live serving endpoint; an\n\
         \x20          ephemeral in-process server is started unless --addr\n\
         --inflight  pipelined multi-row requests in flight (default 32)\n\
         --jsonl     append one JSON line per strategy run to PATH"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        jobs: 1_000_000,
        rate: 0.0,
        seed: 2024,
        size: ExpSize::Medium,
        federate: false,
        addr: None,
        timeout_ms: 2_000,
        inflight: 32,
        jsonl: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    // `next!` consumes the flag's value operand.
    macro_rules! next {
        () => {{
            i += 1;
            argv.get(i).unwrap_or_else(|| usage())
        }};
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--jobs" => out.jobs = next!().parse().unwrap_or_else(|_| usage()),
            "--rate" => out.rate = next!().parse().unwrap_or_else(|_| usage()),
            "--seed" => out.seed = next!().parse().unwrap_or_else(|_| usage()),
            "--size" => out.size = ExpSize::parse(next!()).unwrap_or_else(|| usage()),
            "--federate" => out.federate = true,
            "--addr" => out.addr = Some(next!().clone()),
            "--timeout-ms" => out.timeout_ms = next!().parse().unwrap_or_else(|_| usage()),
            "--inflight" => {
                out.inflight = next!()
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--jsonl" => out.jsonl = Some(next!().clone()),
            "--telemetry" => {
                let mode =
                    mphpc_telemetry::TelemetryMode::parse(next!()).unwrap_or_else(|| usage());
                mphpc_telemetry::set_mode(mode);
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if out.jobs == 0 {
        usage();
    }
    out
}

fn main() -> std::process::ExitCode {
    mphpc_bench::run(body)
}

fn body() -> Result<(), MphpcError> {
    let args = parse_args();
    let exp_args = ExpArgs {
        size: args.size,
        seed: args.seed,
        fleet: 1,
    };
    let dataset = load_or_build_dataset(exp_args)?;
    let predictor = train_predictor(&dataset, ModelKind::Gbt(Default::default()), args.seed)?;
    let (templates, features) = templates_from_dataset_raw(&dataset)?;
    eprintln!(
        "[scale] {} jobs sampled from {} templates, rate {}/s, seed {}",
        args.jobs,
        templates.len(),
        args.rate,
        args.seed
    );

    // An ephemeral serving endpoint when federating without --addr. Kept
    // alive until the runs finish; jobs keep completing locally if it
    // dies — that is the degradation path, not a failure.
    let mut server = None;
    let addr = if args.federate {
        match &args.addr {
            Some(a) => Some(a.clone()),
            None => {
                let model =
                    Arc::new(ServedPredictor::new(predictor.clone())) as Arc<dyn PredictModel>;
                let registry = Arc::new(ModelRegistry::new(predictor_loader()));
                registry.install("default", model);
                let handle = serve(ServeConfig::default(), registry)?;
                let a = handle.addr().to_string();
                eprintln!("[serve] ephemeral predictor endpoint on {a}");
                server = Some(handle);
                Some(a)
            }
        }
    } else {
        None
    };

    let started = Instant::now();
    let (outcomes, federation) = if let Some(addr) = &addr {
        let mut provider = FederatedRpv::new(
            addr,
            "default",
            Duration::from_millis(args.timeout_ms),
            args.inflight,
            Box::new(PredictorRpv::new(&predictor)),
        );
        let outcomes = run_scale_comparison(
            &templates,
            &features,
            &mut provider,
            args.jobs,
            args.rate,
            args.seed,
        )?;
        (outcomes, Some(provider.stats()))
    } else {
        let mut provider = PredictorRpv::new(&predictor);
        let outcomes = run_scale_comparison(
            &templates,
            &features,
            &mut provider,
            args.jobs,
            args.rate,
            args.seed,
        )?;
        (outcomes, None)
    };
    let scale_wall = started.elapsed().as_secs_f64();

    print_scale_table(&outcomes, args.jobs);
    if let Some(stats) = &federation {
        print_federation(stats);
    }
    eprintln!(
        "[scale] 5 strategies x {} jobs in {scale_wall:.1}s wall",
        args.jobs
    );

    if let Some(path) = &args.jsonl {
        write_jsonl(path, &args, &outcomes, federation.as_ref(), scale_wall)?;
        eprintln!("[jsonl] appended {} records to {path}", outcomes.len());
    }
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

/// One JSON line per strategy run — hand-rendered so the artifact shape
/// is stable regardless of serializer.
fn write_jsonl(
    path: &str,
    args: &Args,
    outcomes: &[ScaleOutcome],
    federation: Option<&FederationStats>,
    scale_wall: f64,
) -> Result<(), MphpcError> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| MphpcError::Storage(format!("open {path}: {e}")))?;
    for o in outcomes {
        let mut line = format!(
            "{{\"exp\":\"sched_scale\",\"jobs\":{},\"rate\":{},\"seed\":{},\
             \"strategy\":\"{}\",\"makespan_s\":{},\"avg_bounded_slowdown\":{},\
             \"wall_s\":{},\"total_wall_s\":{},\"events_enqueued\":{},\
             \"events_dequeued\":{},\"incremental_updates\":{},\"full_rescans\":{},\
             \"reservations\":{},\"backfill_starts\":{},\"predict_batches\":{},\
             \"predict_rows\":{},\"predict_us_total\":{}",
            args.jobs,
            args.rate,
            args.seed,
            o.outcome.strategy,
            o.outcome.makespan,
            o.outcome.avg_bounded_slowdown,
            o.wall_secs,
            scale_wall,
            o.stats.events_enqueued,
            o.stats.events_dequeued,
            o.stats.incremental_updates,
            o.stats.full_rescans,
            o.stats.reservations,
            o.stats.backfill_starts,
            o.stats.predict_batches,
            o.stats.predict_rows,
            o.stats.predict_us_total,
        );
        if let Some(f) = federation {
            line.push_str(&format!(
                ",\"federation\":{{\"requests\":{},\"responses\":{},\"rows\":{},\
                 \"timeouts\":{},\"fallbacks\":{},\"mean_lookup_us\":{},\"degraded\":{}}}",
                f.requests,
                f.responses,
                f.rows,
                f.timeouts,
                f.fallbacks,
                f.mean_latency_us(),
                f.degraded,
            ));
        }
        line.push_str("}\n");
        file.write_all(line.as_bytes())
            .map_err(|e| MphpcError::Storage(format!("write {path}: {e}")))?;
    }
    Ok(())
}
