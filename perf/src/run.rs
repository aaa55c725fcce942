//! One workload run: set-up, then rounds over the four stages, then the
//! record.
//!
//! The host's speed drifts over seconds, so no stage is measured in one
//! block. A run makes a few rounds; each round runs one unit of every stage in
//! data-path order, and the emphasised stage repeats its unit until the
//! round's share of `--seconds` is used. Every metric is therefore sampled
//! across the whole run, and is reported as the median over its units.

use crate::report::{peak_rss_mib, Ledger, RunRecord};
use crate::stages::{collect, sched, serve, setup, train};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Sizes, Stage, Workload};
use crate::yardstick::{Timed, Yardstick};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub trace: bool,
    pub smoke: bool,
}

/// State the stages share.
pub struct Ctx {
    pub args: RunArgs,
    pub sizes: Sizes,
    pub tracer: Tracer,
    pub ledger: Ledger,
    pub yardstick: Yardstick,
    /// Directory for files the run writes (datasets, models, traces).
    pub scratch: PathBuf,
}

impl Ctx {
    /// A seed for one unit of one stage, distinct per (run seed, stage, unit).
    pub fn unit_seed(&self, stage: u64, unit: usize) -> u64 {
        mphpc_archsim::noise::derive_seed(self.args.seed, &[stage, unit as u64])
    }

    /// Run `f` and time it, with a yardstick reading right before and right
    /// after, so the duration can be reported at the reference host's speed.
    /// The readings carry a span of their own: they are the harness's time,
    /// not the layer's.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Ctx) -> R) -> (R, Timed) {
        let before_ms = self.read_yardstick();
        let started = Instant::now();
        let out = f(self);
        let raw_s = started.elapsed().as_secs_f64();
        let after_ms = self.read_yardstick();
        (out, Timed::new(raw_s, before_ms, after_ms))
    }

    fn read_yardstick(&mut self) -> f64 {
        let Ctx {
            tracer, yardstick, ..
        } = self;
        tracer.span("harness.yardstick", |_| yardstick.read_ms())
    }
}

/// Drives the units of the emphasised stage: how long each round lets it
/// run, which of its units are traced, and how long they took.
struct Emphasis {
    stage: Stage,
    trace: bool,
    units: usize,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

impl Emphasis {
    /// Run one unit of `stage`; if it is the emphasised stage, repeat until
    /// `until`. `unit(ctx, index, traced)` gets a running unit index.
    ///
    /// In a traced run every second unit of the emphasised stage runs with
    /// the tracer paused, so the same process yields the untraced time the
    /// tracing overhead is measured against; other stages are always traced.
    fn run(
        &mut self,
        ctx: &mut Ctx,
        stage: Stage,
        round: usize,
        until: Instant,
        mut unit: impl FnMut(&mut Ctx, usize, bool) -> Result<(), String>,
    ) -> Result<(), String> {
        if stage != self.stage {
            return unit(ctx, round, self.trace);
        }
        loop {
            let traced = self.trace && self.units.is_multiple_of(2);
            let was = ctx.tracer.set_enabled(traced);
            let started = Instant::now();
            let result = unit(ctx, self.units, traced);
            let wall = started.elapsed().as_secs_f64();
            ctx.tracer.set_enabled(was);
            result?;
            self.units += 1;
            if traced {
                self.traced_s.push(wall);
            } else {
                self.untraced_s.push(wall);
            }
            // A traced run needs one unit of each kind to compare.
            let paired = !self.trace || !self.untraced_s.is_empty();
            if paired && Instant::now() >= until {
                return Ok(());
            }
        }
    }

    /// `trace.overhead_share`: how much slower the traced units ran than
    /// the untraced ones, as a share of the untraced time. The fastest unit
    /// of each kind is compared: interference from the host only ever adds
    /// time, and with a handful of units it would swamp a median.
    fn overhead_share(&self) -> f64 {
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        if self.traced_s.is_empty() || self.untraced_s.is_empty() {
            return 0.0;
        }
        fastest(&self.traced_s) / fastest(&self.untraced_s) - 1.0
    }
}

/// The directory the harness writes into: `perf/` under the build's target
/// directory, which the repository's `.gitignore` covers.
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perf")
}

/// A directory of this run's own, unique among concurrent runs.
fn scratch_dir(workload: Workload) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = output_dir().join(format!(
        "{}-{}-{}",
        workload.name(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Where a workload's Chrome trace is written.
pub fn trace_path(workload: Workload) -> PathBuf {
    output_dir().join(format!("{}.trace.json", workload.name()))
}

/// The rounds, then each stage's metrics and checks. The server is left in
/// `server_slot` so the caller can stop it whether or not a stage failed.
fn rounds(
    ctx: &mut Ctx,
    inputs: &setup::Inputs,
    server_slot: &mut Option<serve::Server>,
) -> Result<(), String> {
    let n_rounds = ctx.sizes.rounds;
    let emphasised = ctx.args.workload.emphasis();
    let mut emphasis = Emphasis {
        stage: emphasised,
        trace: ctx.args.trace,
        units: 0,
        traced_s: Vec::new(),
        untraced_s: Vec::new(),
    };
    let mut train = train::Stage::new(ctx, inputs);
    let mut collect = collect::Stage::new(ctx)?;
    let mut serving: Option<serve::Stage> = None;
    let mut sched = sched::Stage::default();

    let window_start = Instant::now();
    for round in 0..n_rounds {
        // This round's share of `--seconds`, less what the stages after the
        // emphasised one still need within the round.
        let round_end = ctx.args.seconds * (round + 1) as f64 / n_rounds as f64;
        let tail = ctx.sizes.tail_after(emphasised);
        let until = window_start + Duration::from_secs_f64((round_end - tail).max(0.0));

        emphasis.run(ctx, Stage::Train, round, until, |ctx, index, _| {
            train.unit(ctx, inputs, index)
        })?;
        emphasis.run(ctx, Stage::Collect, round, until, |ctx, index, traced| {
            collect.unit(ctx, index, traced)
        })?;
        if serving.is_none() {
            // The first round's fits are the models served for the whole run.
            let models = train.models().ok_or("no model was fitted")?;
            let server = server_slot.insert(serve::start(&models)?);
            serving = Some(serve::Stage::new(ctx, inputs, server)?);
        }
        let (server, serve_stage) = match (server_slot.as_ref(), serving.as_mut()) {
            (Some(server), Some(stage)) => (server, stage),
            _ => return Err("the server did not start".to_string()),
        };
        serve_stage.slice(ctx, server, (emphasised == Stage::Serve).then_some(until))?;
        let models = train.models().ok_or("no model was fitted")?;
        emphasis.run(ctx, Stage::Sched, round, until, |ctx, index, traced| {
            sched.unit(ctx, inputs, &models, server, index, traced)
        })?;
    }
    ctx.ledger
        .param("window_s", window_start.elapsed().as_secs_f64());
    ctx.ledger.param("emphasis_units", emphasis.units as f64);

    // Metrics, output checks and (traced) per-layer replays, stage by stage.
    let models = train.finish(ctx)?;
    collect.finish(ctx)?;
    let server = server_slot.as_ref().ok_or("the server did not start")?;
    serving
        .ok_or("the serve stage did not start")?
        .finish(ctx, server)?;
    sched.finish(ctx, inputs, &models, server)?;
    if ctx.args.trace {
        let n = emphasis.traced_s.len();
        ctx.ledger.put(
            "trace.overhead_share",
            "ratio",
            emphasis.overhead_share(),
            n,
        );
    }
    Ok(())
}

/// Execute one workload and return its record. `Err` is a harness failure
/// (the run could not be carried out); failed operations of the program are
/// counted in the record instead.
pub fn run_workload(args: RunArgs) -> Result<RunRecord, String> {
    let process_start = Instant::now();
    mphpc_par::set_thread_override(Some(args.threads));
    let sizes = Sizes::of(args.workload, args.seed, args.smoke);
    let scratch = scratch_dir(args.workload)?;
    let startup_s = process_start.elapsed().as_secs_f64();
    let mut ctx = Ctx {
        tracer: Tracer::new(args.trace),
        ledger: Ledger::default(),
        yardstick: Yardstick::new(args.smoke),
        sizes,
        scratch,
        args,
    };

    // Set-up is what a run needs before its first round: starting up, then
    // building the inputs. The inputs are built several times and the median
    // build stands in for them, so one slow repeat cannot move the metric.
    let (inputs, builds) = setup::run(&mut ctx)?;
    ctx.ledger
        .put_timed("setup_s", "s", &builds, |build_s| startup_s + build_s);

    let mut server = None;
    let staged = rounds(&mut ctx, &inputs, &mut server);
    if let Some(server) = server {
        server.stop();
    }
    staged?;

    if ctx.args.trace {
        ctx.ledger
            .param("trace_spans", ctx.tracer.spans().len() as f64);
        let path = trace_path(ctx.args.workload);
        std::fs::write(&path, ctx.tracer.chrome_trace_json(ctx.args.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    ctx.ledger.put("peak_rss_mb", "MiB", peak_rss_mib(), 1);
    let readings = ctx.yardstick.readings_ms();
    ctx.ledger.param("yardstick_ms", median(readings));
    ctx.ledger
        .param("yardstick_readings", readings.len() as f64);
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    let Ctx { args, ledger, .. } = ctx;
    Ok(RunRecord {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        threads: args.threads,
        trace: args.trace,
        smoke: args.smoke,
        params: ledger.params,
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        checks: ledger.checks,
        metrics: ledger.metrics,
    })
}
