//! `mphpc` — command-line interface to the cross-architecture performance
//! prediction pipeline.
//!
//! Subcommands mirror the deployment workflow:
//!
//! ```text
//! mphpc collect --out dataset.csv [--apps 6] [--inputs 2] [--reps 2] [--seed N]
//! mphpc train   --dataset dataset.csv --out model.json [--model gbt|forest|linear|mean]
//! mphpc predict --model model.json --app AMG --input "-s 3" --scale 1node --machine Ruby
//! mphpc sched   --dataset dataset.csv --model model.json [--jobs 20000]
//! mphpc pipeline [--apps 6] [--inputs 2] [--reps 2] [--jobs 2000] [--seed N]
//! mphpc serve   --model model.json [--addr 127.0.0.1:8077] [--shards N]
//! mphpc watch   --store store/ --model model.json [--addr 127.0.0.1:8077] [--ticks N]
//! mphpc info
//! ```
//!
//! Every subcommand accepts `--telemetry off|summary|jsonl|trace` to record
//! hierarchical span timings and counters across training, inference, and
//! simulation (see DESIGN.md §12).

use mphpc_archsim::SystemId;
use mphpc_core::fleet;
use mphpc_core::pipeline::{
    collect, evaluate_models, profile_one, train_predictor, CollectionConfig,
};
use mphpc_core::predictor::PerfPredictor;
use mphpc_core::schedbridge::{run_strategy_comparison, templates_from_dataset};
use mphpc_dataset::MpHpcDataset;
use mphpc_errors::MphpcError;
use mphpc_ml::{ModelKind, Regressor};
use mphpc_workloads::{all_apps, app_by_name, Scale};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let flags = &args[1..];
    let result = match command.as_str() {
        "collect" => cmd_collect(flags),
        "train" => cmd_train(flags),
        "predict" => cmd_predict(flags),
        "sched" => cmd_sched(flags),
        "pipeline" => cmd_pipeline(flags),
        "serve" => cmd_serve(flags),
        "watch" => cmd_watch(flags),
        "fleet" => cmd_fleet(flags),
        "info" => cmd_info(flags),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(MphpcError::InvalidArgument(format!(
            "unknown command '{other}'"
        ))),
    };
    mphpc_telemetry::flush("mphpc");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Print the whole context chain, outermost frame first, so a
            // failure deep in the pipeline still names the boundary that
            // caught it.
            eprintln!("{}", e.render_chain());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "mphpc — cross-architecture performance prediction

USAGE:
  mphpc collect --out <csv> [--apps N] [--inputs N] [--reps N] [--seed N]
  mphpc train   --dataset <csv> --out <json> [--model gbt|forest|linear|mean] [--seed N]
  mphpc predict --model <json> --app <name> --input <cfg> --scale 1core|1node|2node --machine <name>
  mphpc sched   --dataset <csv> --model <json> [--jobs N] [--rate R] [--seed N]
  mphpc pipeline [--apps N] [--inputs N] [--reps N] [--jobs N] [--rate R] [--seed N]
  mphpc serve   --model <json> [--addr H:P] [--shards N] [--max-batch N] [--queue-cap N]
                [--deadline-ms N] [--max-conns N] [--read-deadline-ms N]
                [--idle-timeout-ms N] [--poller epoll|poll]
  mphpc watch   --store <dir> --model <json> [--addr H:P] [--name <model>] [--ticks N]
                [--poll-ms N] [--holdout N] [--epsilon E] [--extra N] [--min-rows N]
                [--min-shadow-rows N] [--shadow-wait-ms N] [--rollback-window-ms N]
                [--rollback-errors N] [--drift-window N]
  mphpc fleet init   --store <dir> [--apps N] [--inputs N] [--reps N] [--seed N]
                     [--shards N] [--model gbt|forest|linear|mean|none] [--ttl-ms N]
  mphpc fleet work   --store <dir> --worker <id>
  mphpc fleet run    --store <dir> [--workers N] [--out <csv>] [--model-out <json>]
  mphpc fleet merge  --store <dir> [--out <csv>] [--model-out <json>]
  mphpc fleet status --store <dir>
  mphpc info

Common options:
  --telemetry off|summary|jsonl|trace   record span timings and counters"
    );
    ExitCode::FAILURE
}

/// `command`'s `--flag value` pairs. `known` names, space-separated, the
/// flags the command reads (`--telemetry`, common to all, is applied
/// here, before the command does any work); any other flag, or a word
/// that is not a flag's value, is an error — never silently ignored, so a
/// mistyped `--sed 7` cannot quietly run seed 2024.
fn parse_opts(
    command: &str,
    args: &[String],
    known: &str,
) -> Result<HashMap<String, String>, MphpcError> {
    let mut opts = HashMap::new();
    for pair in args.chunks(2) {
        let Some(key) = pair[0].strip_prefix("--") else {
            return Err(MphpcError::InvalidArgument(format!(
                "unexpected argument '{}' for '{command}'",
                pair[0]
            )));
        };
        if key != "telemetry" && !known.split_whitespace().any(|flag| flag == key) {
            return Err(MphpcError::InvalidArgument(format!(
                "unknown option --{key} for '{command}'"
            )));
        }
        opts.insert(key.to_string(), pair.get(1).cloned().unwrap_or_default());
    }
    let Some(word) = opts.get("telemetry") else {
        return Ok(opts);
    };
    let mode = mphpc_telemetry::TelemetryMode::parse(word).ok_or_else(|| {
        MphpcError::InvalidArgument(format!(
            "unknown telemetry mode '{word}' (use off|summary|jsonl|trace)"
        ))
    })?;
    mphpc_telemetry::set_mode(mode);
    Ok(opts)
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, MphpcError> {
    opts.get(key)
        .map(String::as_str)
        .filter(|v| !v.is_empty())
        .ok_or_else(|| MphpcError::InvalidArgument(format!("missing required option --{key}")))
}

/// `--key <value>` read as a `T`, `None` when the flag was not given. A
/// value that does not parse is an error, never silently the default.
fn opt<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, MphpcError> {
    let Some(value) = opts.get(key) else {
        return Ok(None);
    };
    value.parse().map(Some).map_err(|_| {
        let wanted = std::any::type_name::<T>();
        MphpcError::InvalidArgument(format!("--{key} wants a {wanted}, got '{value}'"))
    })
}

fn seed(opts: &HashMap<String, String>) -> Result<u64, MphpcError> {
    Ok(opt(opts, "seed")?.unwrap_or(2024))
}

/// The campaign `collect` and `fleet init` run: `--apps` (the first N of
/// Table II, all 20 by default), `--inputs`, `--reps`, `--seed`.
fn collection_config(opts: &HashMap<String, String>) -> Result<CollectionConfig, MphpcError> {
    let n_apps: usize = opt(opts, "apps")?.unwrap_or(20);
    Ok(CollectionConfig {
        apps: Some(
            mphpc_workloads::AppKind::ALL
                .into_iter()
                .take(n_apps.clamp(1, 20))
                .collect(),
        ),
        inputs_per_app: opt(opts, "inputs")?,
        reps: opt(opts, "reps")?.unwrap_or(2),
        seed: seed(opts)?,
    })
}

fn cmd_collect(args: &[String]) -> Result<(), MphpcError> {
    let opts = &parse_opts("collect", args, "out apps inputs reps seed")?;
    let out = req(opts, "out")?;
    let cfg = collection_config(opts)?;
    eprintln!("collecting {} runs ...", cfg.specs().len());
    let dataset = collect(&cfg)?;
    dataset.write_csv(out)?;
    println!("wrote {} rows to {out}", dataset.n_rows());
    Ok(())
}

fn parse_model(word: Option<&String>) -> Result<ModelKind, MphpcError> {
    fleet::model_kind_from_name(word.map(String::as_str).unwrap_or("gbt"))
}

fn cmd_train(args: &[String]) -> Result<(), MphpcError> {
    let opts = &parse_opts("train", args, "dataset out model seed")?;
    let dataset = MpHpcDataset::read_csv(req(opts, "dataset")?)?;
    let out = req(opts, "out")?;
    let kind = parse_model(opts.get("model"))?;
    eprintln!("training {} on {} rows ...", kind.name(), dataset.n_rows());
    let predictor = train_predictor(&dataset, kind, seed(opts)?)?;
    // Atomic: a crash (or a concurrent `mphpc serve` loading the model)
    // must never observe a half-written export.
    mphpc_storage::atomic_write_file(out, predictor.to_json()?.as_bytes())
        .map_err(|e| MphpcError::io(out, e))?;
    println!("wrote {} model to {out}", kind.name());
    Ok(())
}

fn parse_scale(word: &str) -> Result<Scale, MphpcError> {
    match word {
        "1core" => Ok(Scale::OneCore),
        "1node" => Ok(Scale::OneNode),
        "2node" | "2nodes" => Ok(Scale::TwoNodes),
        other => Err(MphpcError::InvalidArgument(format!(
            "unknown scale '{other}' (use 1core|1node|2node)"
        ))),
    }
}

fn parse_machine(word: &str) -> Result<SystemId, MphpcError> {
    SystemId::TABLE1
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(word))
        .ok_or_else(|| {
            MphpcError::InvalidArgument(format!(
                "unknown machine '{word}' (Quartz|Ruby|Lassen|Corona)"
            ))
        })
}

fn cmd_predict(args: &[String]) -> Result<(), MphpcError> {
    let opts = &parse_opts("predict", args, "model app input scale machine seed")?;
    let model_path = req(opts, "model")?;
    let json = std::fs::read_to_string(model_path).map_err(|e| MphpcError::io(model_path, e))?;
    let predictor = PerfPredictor::from_json(&json)?;
    let app = app_by_name(req(opts, "app")?).ok_or_else(|| {
        MphpcError::InvalidArgument("unknown application (see `mphpc info`)".into())
    })?;
    let input = req(opts, "input")?;
    let scale = parse_scale(req(opts, "scale")?)?;
    let machine = parse_machine(req(opts, "machine")?)?;

    eprintln!(
        "profiling {} {input} at {} on {} ...",
        app.name(),
        scale.label(),
        machine.name()
    );
    let profile = profile_one(app.spec.kind, input, scale, machine, seed(opts)?)?;
    let rpv = predictor.predict_rpv(&profile)?;

    println!(
        "predicted relative runtimes (vs {}, lower = faster), model = {}:",
        machine.name(),
        predictor.model().model_name()
    );
    for (sys, v) in SystemId::TABLE1.iter().zip(rpv) {
        println!("  {:<8} {v:.3}", sys.name());
    }
    let best = SystemId::TABLE1[mphpc_dataset::rpv::argmin(&rpv).unwrap()];
    println!("fastest predicted system: {}", best.name());
    Ok(())
}

fn cmd_sched(args: &[String]) -> Result<(), MphpcError> {
    let opts = &parse_opts("sched", args, "dataset model jobs rate seed")?;
    let dataset = MpHpcDataset::read_csv(req(opts, "dataset")?)?;
    let model_path = req(opts, "model")?;
    let json = std::fs::read_to_string(model_path).map_err(|e| MphpcError::io(model_path, e))?;
    let predictor = PerfPredictor::from_json(&json)?;
    let n_jobs: usize = opt(opts, "jobs")?.unwrap_or(20_000);
    let rate: f64 = opt(opts, "rate")?.unwrap_or(0.0);

    print_strategy_comparison(&dataset, &predictor, n_jobs, rate, seed(opts)?)
}

/// Figs. 7–8 on `dataset`'s runs, RPVs from `predictor`: one table row per
/// strategy.
fn print_strategy_comparison(
    dataset: &MpHpcDataset,
    predictor: &PerfPredictor,
    n_jobs: usize,
    rate: f64,
    seed: u64,
) -> Result<(), MphpcError> {
    let templates = templates_from_dataset(dataset, predictor)?;
    eprintln!("simulating {n_jobs} jobs under 5 strategies ...");
    let outcomes = run_strategy_comparison(&templates, n_jobs, rate, seed)?;
    println!(
        "{:<14} {:>12} {:>22}",
        "strategy", "makespan (h)", "avg bounded slowdown"
    );
    for o in &outcomes {
        println!(
            "{:<14} {:>12.3} {:>22.2}",
            o.strategy,
            o.makespan / 3600.0,
            o.avg_bounded_slowdown
        );
    }
    Ok(())
}

/// End-to-end demo on a synthetic campaign: collect → evaluate → train →
/// schedule, all in one process — the run that exercises every
/// instrumented layer (training rounds, batch inference, sim events), so
/// `mphpc pipeline --telemetry summary` prints the full span tree.
fn cmd_pipeline(args: &[String]) -> Result<(), MphpcError> {
    let opts = &parse_opts("pipeline", args, "apps inputs reps jobs rate seed model")?;
    let _span = mphpc_telemetry::span!("pipeline");
    let n_apps: usize = opt(opts, "apps")?.unwrap_or(6);
    let inputs: usize = opt(opts, "inputs")?.unwrap_or(2);
    let reps: u32 = opt(opts, "reps")?.unwrap_or(2);
    let n_jobs: usize = opt(opts, "jobs")?.unwrap_or(2_000);
    let rate: f64 = opt(opts, "rate")?.unwrap_or(0.0);
    let seed = seed(opts)?;

    let cfg = CollectionConfig::small(n_apps.clamp(1, 20), inputs, reps, seed);
    eprintln!("collecting {} runs ...", cfg.specs().len());
    let dataset = collect(&cfg)?;

    let kind = parse_model(opts.get("model"))?;
    eprintln!(
        "evaluating {} on {} rows ...",
        kind.name(),
        dataset.n_rows()
    );
    let evals = evaluate_models(&dataset, &[kind], seed)?;
    for e in &evals {
        println!(
            "{:<10} test MAE {:.4}  pooled R2 {:.4}  per-output R2 {:?}",
            e.model,
            e.test.mae,
            e.test.r2,
            e.test
                .r2_per_output
                .iter()
                .map(|v| (v * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        );
    }

    let predictor = train_predictor(&dataset, kind, seed)?;
    print_strategy_comparison(&dataset, &predictor, n_jobs, rate, seed)
}

/// Host a trained model over HTTP: load the `mphpc train` export, start
/// the micro-batching server, and block until `POST /shutdown` drains it.
fn cmd_serve(args: &[String]) -> Result<(), MphpcError> {
    let known = "model addr shards max-batch queue-cap deadline-ms max-conns \
                 read-deadline-ms idle-timeout-ms poller";
    let opts = &parse_opts("serve", args, known)?;
    let model_path = req(opts, "model")?;
    let json = std::fs::read_to_string(model_path).map_err(|e| MphpcError::io(model_path, e))?;
    let registry = std::sync::Arc::new(mphpc_serve::ModelRegistry::new(
        mphpc_core::serving::predictor_loader(),
    ));
    let loaded = registry.load_json("default", &json)?;
    eprintln!(
        "loaded {} ({}, {} features) from {model_path}",
        loaded.tag(),
        loaded.model.kind(),
        loaded.model.n_features()
    );

    let mut cfg = mphpc_serve::ServeConfig {
        addr: opts
            .get("addr")
            .filter(|a| !a.is_empty())
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8077".to_string()),
        ..Default::default()
    };
    if let Some(n) = opt(opts, "shards")? {
        cfg.shards = n;
    }
    if let Some(n) = opt(opts, "max-conns")? {
        cfg.max_conns = n;
    }
    if let Some(ms) = opt(opts, "read-deadline-ms")? {
        cfg.read_deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = opt(opts, "idle-timeout-ms")? {
        cfg.idle_timeout = std::time::Duration::from_millis(ms);
    }
    match opts.get("poller").map(String::as_str) {
        None | Some("epoll") => {}
        Some("poll") => cfg.force_poll = true,
        Some(other) => {
            return Err(MphpcError::InvalidArgument(format!(
                "unknown poller '{other}' (use epoll|poll)"
            )))
        }
    }
    if let Some(n) = opt(opts, "max-batch")? {
        cfg.batch.max_batch = n;
    }
    if let Some(n) = opt(opts, "queue-cap")? {
        cfg.batch.queue_cap = n;
    }
    if let Some(ms) = opt(opts, "deadline-ms")? {
        cfg.batch.deadline = std::time::Duration::from_millis(ms);
    }

    let handle = mphpc_serve::serve(cfg, registry)?;
    // Scripts (and the CI smoke test) scrape the bound address from this
    // line, so print it eagerly on stdout.
    println!("mphpc-serve listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let stats = handle.join();
    println!("{}", stats.render());
    Ok(())
}

/// `mphpc watch` — the online-learning loop (DESIGN.md §16): tail the
/// store for fresh fleet shards, grow the versioned dataset, warm-start
/// retrain, shadow-score against the live server, and canary-promote.
fn cmd_watch(args: &[String]) -> Result<(), MphpcError> {
    use mphpc_core::watch::{TickDecision, WatchConfig, Watcher};
    let known = "store model addr name ticks poll-ms holdout epsilon extra min-rows \
                 min-shadow-rows shadow-wait-ms rollback-window-ms rollback-errors drift-window";
    let opts = &parse_opts("watch", args, known)?;

    let store = mphpc_storage::LocalDirStorage::open(req(opts, "store")?)?;
    let model_path = req(opts, "model")?;
    let json = std::fs::read_to_string(model_path).map_err(|e| MphpcError::io(model_path, e))?;
    let base = PerfPredictor::from_json(&json)?;

    let mut cfg = WatchConfig::default();
    if let Some(addr) = opts.get("addr").filter(|a| !a.is_empty()) {
        cfg.addr = addr.clone();
    }
    if let Some(name) = opts.get("name").filter(|n| !n.is_empty()) {
        cfg.model = name.clone();
    }
    if let Some(n) = opt(opts, "holdout")? {
        cfg.holdout = n;
    }
    if let Some(e) = opt(opts, "epsilon")? {
        cfg.epsilon = e;
    }
    if let Some(n) = opt(opts, "extra")? {
        cfg.extra = n;
    }
    if let Some(n) = opt(opts, "min-rows")? {
        cfg.min_new_rows = n;
    }
    if let Some(n) = opt(opts, "min-shadow-rows")? {
        cfg.min_shadow_rows = n;
    }
    if let Some(ms) = opt(opts, "shadow-wait-ms")? {
        cfg.shadow_wait = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = opt(opts, "rollback-window-ms")? {
        cfg.rollback_window = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = opt(opts, "rollback-errors")? {
        cfg.rollback_errors = n;
    }
    if let Some(n) = opt(opts, "drift-window")? {
        cfg.drift_window = n;
    }
    let ticks: Option<u64> = opt(opts, "ticks")?;
    let poll = std::time::Duration::from_millis(opt(opts, "poll-ms")?.unwrap_or(500));

    let addr = cfg.addr.clone();
    let mut watcher = Watcher::new(&store, cfg, base)?;
    eprintln!(
        "watching {} for shards (serving {addr}), {} row(s) committed so far",
        req(opts, "store")?,
        watcher.dataset_rows()
    );
    use std::io::Write as _;
    watcher.run(ticks, poll, |outcome| {
        match outcome {
            Ok(report) => {
                let prefix = format!(
                    "tick {}: +{} shard(s) (+{} row(s), {} quarantined){}{}",
                    report.tick,
                    report.ingested_shards,
                    report.new_rows,
                    report.quarantined_shards,
                    report
                        .dataset_version
                        .map(|v| format!(" -> dataset v{v}"))
                        .unwrap_or_default(),
                    if report.drift_fired { " [drift]" } else { "" },
                );
                match &report.decision {
                    TickDecision::Idle => {}
                    TickDecision::Deferred { pending_rows } => {
                        println!("{prefix}; deferred ({pending_rows} row(s) pending)")
                    }
                    TickDecision::Refused { reason } => {
                        println!("{prefix}; candidate refused: {reason}")
                    }
                    TickDecision::Promoted {
                        version,
                        shadow_rows,
                    } => println!(
                        "{prefix}; promoted v{version} after {shadow_rows} mirrored row(s)"
                    ),
                    TickDecision::RolledBack {
                        promoted,
                        restored,
                        errors,
                    } => println!(
                        "{prefix}; promoted v{promoted} then rolled back to v{restored} \
                         after {errors} serving error(s)"
                    ),
                }
            }
            Err(e) => eprintln!("watch tick failed: {}", e.render_chain()),
        }
        let _ = std::io::stdout().flush();
    })
}

/// `mphpc fleet <init|work|run|merge|status>` — storage-coordinated
/// multi-process collection and training (DESIGN.md §15).
///
/// `args` is everything after `fleet`: the action word, then its flags.
fn cmd_fleet(args: &[String]) -> Result<(), MphpcError> {
    let Some(action) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(MphpcError::InvalidArgument(
            "fleet wants an action: init|work|run|merge|status".into(),
        ));
    };
    let known = match action.as_str() {
        "init" => "store apps inputs reps seed shards model ttl-ms",
        "work" => "store worker",
        "run" => "store workers out model-out",
        "merge" => "store out model-out",
        "status" => "store",
        other => {
            return Err(MphpcError::InvalidArgument(format!(
                "unknown fleet action '{other}' (use init|work|run|merge|status)"
            )))
        }
    };
    let opts = &parse_opts(&format!("fleet {action}"), &args[1..], known)?;
    let store = mphpc_storage::LocalDirStorage::open(req(opts, "store")?)?;
    let out_path = |key: &str| {
        opts.get(key)
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    };
    match action.as_str() {
        "init" => {
            let cfg = collection_config(opts)?;
            let n_shards: usize = opt(opts, "shards")?.unwrap_or(8);
            let ttl_ms: u64 = opt(opts, "ttl-ms")?.unwrap_or(30_000);
            let model = match opts.get("model").map(String::as_str) {
                None | Some("none") => None,
                Some(word) => Some(word),
            };
            let manifest = fleet::fleet_init(
                &store,
                &cfg,
                n_shards,
                std::time::Duration::from_millis(ttl_ms),
                model,
                0,
            )?;
            println!(
                "initialised generation {}: {} specs in {} shards",
                manifest.generation,
                cfg.specs().len(),
                manifest.shards.len()
            );
        }
        "work" => {
            let worker = req(opts, "worker")?;
            let outcome = fleet::fleet_work(&store, worker)?;
            println!(
                "worker {worker}: completed {} shard(s) ({} reclaimed) in {} pass(es)",
                outcome.completed, outcome.reclaimed, outcome.passes
            );
        }
        "run" => {
            let n_workers: usize = opt(opts, "workers")?.unwrap_or(3).max(1);
            let exe = std::env::current_exe().map_err(|e| MphpcError::io("current_exe", e))?;
            let store_dir = req(opts, "store")?;
            eprintln!("spawning {n_workers} worker process(es) ...");
            let children: Vec<_> = (0..n_workers)
                .map(|i| {
                    let mut cmd = std::process::Command::new(&exe);
                    cmd.args(["fleet", "work", "--store", store_dir])
                        .args(["--worker", &format!("w{i}")]);
                    if let Some(mode) = opts.get("telemetry") {
                        cmd.args(["--telemetry", mode]);
                    }
                    cmd.spawn()
                        .map_err(|e| MphpcError::io(exe.display().to_string(), e))
                })
                .collect::<Result<_, _>>()?;
            for (i, mut child) in children.into_iter().enumerate() {
                let status = child
                    .wait()
                    .map_err(|e| MphpcError::io(format!("worker w{i}"), e))?;
                if !status.success() {
                    // Not fatal: surviving workers reclaim a dead worker's
                    // shards, and the merge below fails loudly if coverage
                    // is actually incomplete.
                    eprintln!("worker w{i} exited with {status}");
                }
            }
            let outcome = fleet::fleet_merge(
                &store,
                out_path("out").as_deref(),
                out_path("model-out").as_deref(),
            )?;
            report_merge(&outcome, opts);
        }
        "merge" => {
            let outcome = fleet::fleet_merge(
                &store,
                out_path("out").as_deref(),
                out_path("model-out").as_deref(),
            )?;
            report_merge(&outcome, opts);
        }
        "status" => print!("{}", fleet::fleet_status(&store)?),
        _ => unreachable!("the action picked its flags above"),
    }
    Ok(())
}

fn report_merge(outcome: &fleet::MergeOutcome, opts: &HashMap<String, String>) {
    println!(
        "merged {} shard(s) into {} rows{}",
        outcome.shards,
        outcome.rows,
        if outcome.dataset_reused {
            " (dataset reused from a previous merge)"
        } else {
            ""
        }
    );
    if let Some(out) = opts.get("out").filter(|v| !v.is_empty()) {
        println!("wrote dataset to {out}");
    }
    if let Some(model) = &outcome.model {
        println!(
            "trained {model} model{}",
            if outcome.model_reused {
                " (reused from a previous merge)"
            } else {
                ""
            }
        );
        if let Some(path) = opts.get("model-out").filter(|v| !v.is_empty()) {
            println!("wrote model to {path}");
        }
    }
}

fn cmd_info(args: &[String]) -> Result<(), MphpcError> {
    parse_opts("info", args, "")?;
    println!("machines (Table I):");
    for m in mphpc_archsim::machine::table1_machines() {
        let gpu = m
            .gpu
            .as_ref()
            .map(|g| format!("{} × {}", g.gpus_per_node, g.model))
            .unwrap_or_else(|| "—".into());
        println!(
            "  {:<8} {:<24} {:>3} cores @ {:.1} GHz   GPU: {gpu}",
            m.id.name(),
            m.cpu.model,
            m.cpu.cores_per_node,
            m.cpu.clock_ghz
        );
    }
    println!("\napplications (Table II):");
    for a in all_apps() {
        println!(
            "  {:<14} gpu={:<5} {}",
            a.name(),
            a.spec.gpu,
            a.spec.description
        );
    }
    Ok(())
}
