//! Schedule: the Figs. 7–8 study on the scale engine.
//!
//! A unit is one `run_scale_comparison`: sample the jobs, then simulate the
//! five strategies, RPVs looked up through a provider at decision points.
//! `sched_backlog` submits everything at time zero (full-rescan backfill,
//! one huge predict batch per strategy), `sched_stream` at a Poisson rate
//! (incremental updates, one tiny batch per arrival), and `sched_fed` looks
//! RPVs up over HTTP from the live server — saturated, pipelined use of the
//! serving layer through its real client, the opposite of the open loop.
//! Every run also checks that a federated simulation equals the local one.

use crate::run::Ctx;
use crate::stages::chain;
use crate::stages::serve::Server;
use crate::stages::setup::Inputs;
use crate::stages::train::Models;
use crate::stats::median;
use crate::workload::{self, FED_TIMEOUT_S, FED_WINDOW};
use crate::yardstick::Timed;
use mphpc_core::schedbridge::{run_scale_comparison, PredictorRpv, ScaleOutcome};
use mphpc_errors::MphpcError;
use mphpc_sched::{sample_jobs_indexed, CalendarQueue, EventKey, FederatedRpv, RpvProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Metric suffix of each strategy, in the order the comparison runs them.
const STRATEGIES: [&str; 5] = ["round_robin", "random", "user_rr", "model_based", "oracle"];

#[derive(Debug, Default, Clone, Copy)]
struct ProviderStats {
    batches: u64,
    rows: u64,
    secs: f64,
}

/// Counts, and in traced units times, the calls into a provider.
struct Counting<P> {
    inner: P,
    stats: Rc<RefCell<ProviderStats>>,
    timed: bool,
}

impl<P: RpvProvider> RpvProvider for Counting<P> {
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; 4]>, MphpcError> {
        let started = self.timed.then(Instant::now);
        let out = self.inner.predict(rows);
        let mut stats = self.stats.borrow_mut();
        stats.batches += 1;
        stats.rows += rows.len() as u64;
        if let Some(t) = started {
            stats.secs += t.elapsed().as_secs_f64();
        }
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What one comparison yields besides its outcomes.
struct Comparison {
    outcomes: Vec<ScaleOutcome>,
    /// `run_scale_comparison` alone.
    wall: Timed,
    provider: ProviderStats,
    fallback_rows: u64,
}

/// One comparison to run.
#[derive(Clone, Copy)]
struct Sim {
    jobs: usize,
    /// Poisson arrivals per second; 0 submits everything at time zero.
    rate: f64,
    seed: u64,
    /// Whether to time the provider's calls (traced units only).
    timed: bool,
}

/// [`compare_once`], repeated once if the federated provider fell back: the
/// host pauses for seconds now and then, the server then drops the
/// connection on its own read deadline, and the client degrades for good.
/// The repeat is counted in the `sched_units_repeated` parameter; a second
/// fallback is a failed operation like any other.
fn compare(
    ctx: &mut Ctx,
    inputs: &Inputs,
    models: &Models,
    server: Option<&Server>,
    sim: Sim,
) -> Result<Comparison, String> {
    let first = compare_once(ctx, inputs, models, server, sim)?;
    if first.fallback_rows == 0 {
        return Ok(first);
    }
    ctx.ledger.bump("sched_units_repeated");
    compare_once(ctx, inputs, models, server, sim)
}

fn compare_once(
    ctx: &mut Ctx,
    inputs: &Inputs,
    models: &Models,
    server: Option<&Server>,
    sim: Sim,
) -> Result<Comparison, String> {
    let Sim {
        jobs,
        rate,
        seed,
        timed,
    } = sim;
    let stats = Rc::new(RefCell::new(ProviderStats::default()));
    let fallback_stats = Rc::new(RefCell::new(ProviderStats::default()));
    let local = |stats: &Rc<RefCell<ProviderStats>>, timed| Counting {
        inner: PredictorRpv::new(&models.gbt),
        stats: Rc::clone(stats),
        timed,
    };
    let mut provider: Box<dyn RpvProvider + '_> = match server {
        None => Box::new(local(&stats, timed)),
        Some(server) => Box::new(Counting {
            inner: FederatedRpv::new(
                &server.addr,
                "gbt",
                Duration::from_secs(FED_TIMEOUT_S),
                FED_WINDOW,
                Box::new(local(&fallback_stats, false)),
            ),
            stats: Rc::clone(&stats),
            timed,
        }),
    };
    let (outcomes, wall) = ctx.timed(|_| {
        run_scale_comparison(
            &inputs.templates,
            &inputs.features,
            provider.as_mut(),
            jobs,
            rate,
            seed,
        )
    });
    let outcomes = outcomes.map_err(chain("run_scale_comparison"))?;
    drop(provider);
    let provider = *stats.borrow();
    let fallback_rows = fallback_stats.borrow().rows;
    Ok(Comparison {
        outcomes,
        wall,
        provider,
        fallback_rows,
    })
}

/// How far over the Oracle's (and User+RR's) makespan the Model-based one
/// may be. At the paper's 150 000 jobs it is within 1 % of the Oracle and far
/// below User+RR; at the few thousand jobs of a unit the last jobs to finish
/// dominate the makespan, and over many seeds it reaches 4 % over the Oracle
/// and, rarely, a fraction of a percent over User+RR.
const MAKESPAN_SLACK: f64 = 1.10;

/// Every unit simulates all five strategies and starts every job. On the
/// `sched_*` workloads, whose units are large enough for it, the paper's
/// result must hold too: scheduling by predicted RPV beats user choice and
/// comes close to knowing the true runtimes. (At the 6 000 jobs of the other
/// workloads' units the backlog is too short to be saturated, and Model-based
/// loses to User+RR on some seeds.)
fn check_outcomes(ctx: &mut Ctx, c: &Comparison, jobs: usize) {
    ctx.ledger.ops_ok(jobs * c.outcomes.len());
    ctx.ledger.op(c.outcomes.len() == STRATEGIES.len(), || {
        format!(
            "{} strategies simulated, expected {}",
            c.outcomes.len(),
            STRATEGIES.len()
        )
    });
    let started: u64 = c
        .outcomes
        .iter()
        .map(|o| o.outcome.jobs_per_machine.iter().sum::<u64>())
        .sum();
    ctx.ledger
        .op(started == (jobs * c.outcomes.len()) as u64, || {
            format!(
                "{started} jobs started, expected {}",
                jobs * c.outcomes.len()
            )
        });
    if ctx.args.workload.emphasis() != workload::Stage::Sched {
        return;
    }
    let makespan = |i: usize| c.outcomes.get(i).map_or(f64::NAN, |o| o.outcome.makespan);
    let (user_rr, model_based, oracle) = (makespan(2), makespan(3), makespan(4));
    ctx.ledger.op(model_based <= MAKESPAN_SLACK * user_rr, || {
        format!(
            "Model-based makespan {model_based} is more than {MAKESPAN_SLACK} x User+RR {user_rr}"
        )
    });
    ctx.ledger.op(model_based <= MAKESPAN_SLACK * oracle, || {
        format!(
            "Model-based makespan {model_based} is more than {MAKESPAN_SLACK} x Oracle {oracle}"
        )
    });
}

/// A federated simulation must equal the local one exactly and never fall
/// back. Returns the federated provider's counters.
fn check_federation(
    ctx: &mut Ctx,
    inputs: &Inputs,
    models: &Models,
    server: &Server,
) -> Result<(ProviderStats, u64), String> {
    let jobs = ctx.sizes.fed_check_jobs;
    let seed = ctx.unit_seed(4, 0);
    let sim = Sim {
        jobs,
        rate: 0.0,
        seed,
        timed: false,
    };
    let local = compare_once(ctx, inputs, models, None, sim)?;
    let token = ctx.tracer.open("sched.fed_check");
    let fed = compare(
        ctx,
        inputs,
        models,
        Some(server),
        Sim { timed: true, ..sim },
    );
    ctx.tracer.close(token);
    let fed = fed?;
    let same = local.outcomes.len() == fed.outcomes.len()
        && local
            .outcomes
            .iter()
            .zip(&fed.outcomes)
            .all(|(a, b)| a.outcome == b.outcome);
    ctx.ledger.op(same, || {
        "the federated simulation's outcomes differ from the local one's".to_string()
    });
    ctx.ledger.op(fed.fallback_rows == 0, || {
        format!(
            "{} federated rows were answered by the local fallback",
            fed.fallback_rows
        )
    });
    ctx.ledger.ops_ok(fed.provider.rows as usize);
    Ok((fed.provider, fed.fallback_rows))
}

/// Nanoseconds per pop-then-push on a calendar queue held at `depth`
/// events (the classic hold model).
fn calendar_hold_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue = CalendarQueue::new();
    let horizon = depth as f64;
    for seq in 0..depth as u64 {
        queue.push(EventKey::new(rng.gen_range(0.0..horizon), seq), seq);
    }
    let ops = depth.clamp(10_000, 200_000);
    let started = Instant::now();
    for i in 0..ops as u64 {
        let (key, value) = queue.pop().expect("the queue holds `depth` events");
        let later = key.time() + rng.gen_range(0.0..horizon);
        queue.push(EventKey::new(later, depth as u64 + i), black_box(value));
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// The schedule stage's state across rounds.
#[derive(Default)]
pub struct Stage {
    runs: Vec<Comparison>,
}

impl Stage {
    pub fn unit(
        &mut self,
        ctx: &mut Ctx,
        inputs: &Inputs,
        models: &Models,
        server: &Server,
        index: usize,
        traced: bool,
    ) -> Result<(), String> {
        let (jobs, rate) = (ctx.sizes.sched_jobs, ctx.sizes.sched_rate);
        let federated = ctx.sizes.federated.then_some(server);
        let stage = ctx.tracer.open("stage.sched");
        let token = ctx.tracer.open("sched.unit");
        let sim = Sim {
            jobs,
            rate,
            seed: ctx.unit_seed(3, index),
            timed: traced,
        };
        let result = compare(ctx, inputs, models, federated, sim);
        ctx.tracer.close(token);
        ctx.tracer.close(stage);
        let c = result?;
        check_outcomes(ctx, &c, jobs);
        if federated.is_some() {
            ctx.ledger.op(c.fallback_rows == 0, || {
                format!(
                    "{} rows were answered by the local fallback",
                    c.fallback_rows
                )
            });
        }
        self.runs.push(c);
        Ok(())
    }

    pub fn finish(
        self,
        ctx: &mut Ctx,
        inputs: &Inputs,
        models: &Models,
        server: &Server,
    ) -> Result<(), String> {
        let runs = self.runs;
        let (jobs, rate) = (ctx.sizes.sched_jobs, ctx.sizes.sched_rate);
        let first = runs.first().ok_or("the schedule stage ran no unit")?;
        let (fed_stats, fed_fallback_rows) = check_federation(ctx, inputs, models, server)?;

        let simulated = (jobs * STRATEGIES.len()) as f64;
        let walls: Vec<Timed> = runs.iter().map(|c| c.wall).collect();
        ctx.ledger
            .put_timed("sched_jobs_per_s", "jobs/s", &walls, |s| simulated / s);
        ctx.ledger.param("sched_jobs", jobs as f64);
        ctx.ledger.param("sched_rate", rate);
        ctx.ledger.check("sched.predict_rows", first.provider.rows);
        ctx.ledger
            .check("sched.predict_batches", first.provider.batches);
        ctx.ledger.check(
            "sched.makespan_model_based",
            format!("{:016x}", first.outcomes[3].outcome.makespan.to_bits()),
        );
        if !ctx.args.trace {
            return Ok(());
        }

        // Only traced units timed their provider.
        let timed: Vec<&Comparison> = runs.iter().filter(|c| c.provider.secs > 0.0).collect();
        let n = timed.len().max(1);
        let l = &mut ctx.ledger;
        for (i, name) in STRATEGIES.iter().enumerate() {
            let walls: Vec<f64> = runs
                .iter()
                .filter_map(|c| c.outcomes.get(i))
                .map(|o| o.wall_secs)
                .collect();
            l.put(
                &format!("sched.wall_s.{name}"),
                "s",
                median(&walls),
                walls.len(),
            );
        }
        let provider_s = median(&timed.iter().map(|c| c.provider.secs).collect::<Vec<_>>());
        let strategies_s = median(
            &timed
                .iter()
                .map(|c| c.outcomes.iter().map(|o| o.wall_secs).sum::<f64>())
                .collect::<Vec<_>>(),
        );
        l.put("sched.provider_s", "s", provider_s, n);
        l.put(
            "sched.predict_batches",
            "count",
            first.provider.batches as f64,
            1,
        );
        l.put("sched.predict_rows", "count", first.provider.rows as f64, 1);
        l.put(
            "sched.rows_per_batch_mean",
            "rows",
            first.provider.rows as f64 / first.provider.batches.max(1) as f64,
            first.provider.batches as usize,
        );
        l.put(
            "sched.provider_share",
            "ratio",
            provider_s / strategies_s,
            n,
        );
        l.put("sched.engine_s", "s", strategies_s - provider_s, n);
        l.put(
            "sched.fed.lookups_per_s",
            "1/s",
            fed_stats.rows as f64 / fed_stats.secs,
            fed_stats.rows as usize,
        );
        l.put(
            "sched.fed.fallback_rows",
            "count",
            fed_fallback_rows as f64,
            1,
        );

        let seed = ctx.unit_seed(3, 0);
        let t = Instant::now();
        black_box(
            sample_jobs_indexed(&inputs.templates, jobs, rate, seed)
                .map_err(chain("replaying sample_jobs_indexed"))?,
        );
        ctx.ledger
            .put("sched.sample_jobs_s", "s", t.elapsed().as_secs_f64(), 1);
        ctx.ledger.put(
            "sched.calendar_hold_ns_per_op",
            "ns",
            calendar_hold_ns(jobs, seed),
            jobs.clamp(10_000, 200_000),
        );
        Ok(())
    }
}
