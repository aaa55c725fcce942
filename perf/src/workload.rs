//! The six workloads and the sizes each stage runs at.
//!
//! Every run drives the whole data path — collect, train and evaluate,
//! serve, schedule — so every metric is measured in every run. The workload
//! picks which stage is scaled up and repeated until the run's time is used
//! (its *emphasis*); the other stages run one small unit per round and act
//! as that workload's no-change controls.

use mphpc_core::pipeline::CollectionConfig;
use mphpc_workloads::AppKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CollectTrace,
    TrainEval,
    ServeOpen,
    SchedBacklog,
    SchedStream,
    SchedFed,
}

/// The stages in the order a round runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Train,
    Collect,
    Serve,
    Sched,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::CollectTrace,
        Workload::TrainEval,
        Workload::ServeOpen,
        Workload::SchedBacklog,
        Workload::SchedStream,
        Workload::SchedFed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectTrace => "collect_trace",
            Workload::TrainEval => "train_eval",
            Workload::ServeOpen => "serve_open",
            Workload::SchedBacklog => "sched_backlog",
            Workload::SchedStream => "sched_stream",
            Workload::SchedFed => "sched_fed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn emphasis(self) -> Stage {
        match self {
            Workload::CollectTrace => Stage::Collect,
            Workload::TrainEval => Stage::Train,
            Workload::ServeOpen => Stage::Serve,
            Workload::SchedBacklog | Workload::SchedStream | Workload::SchedFed => Stage::Sched,
        }
    }
}

/// Total request rate of the open-loop serve stage, requests per second.
/// Frozen after calibration on the reference host (README, "rate_rps"): at
/// most half the measured closed-loop capacity, generator late share < 1 %.
pub const RATE_RPS: f64 = 3000.0;

/// Connections (and reader threads) of the load generator.
pub const SERVE_CONNS: usize = 2;

/// In-flight window and socket timeout of the federated RPV provider. The
/// timeout is long so that a pause of the host does not turn into fallback
/// rows, which the run counts as failures; it has no part in the throughput.
pub const FED_WINDOW: usize = 32;
pub const FED_TIMEOUT_S: u64 = 20;

/// Sizes of one run. "Unit" is the piece of work a stage repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Campaign collected (analytic cache model) in set-up; it feeds the
    /// train, serve and schedule stages.
    pub campaign: CollectionConfig,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Applications per trace-model collection unit (spread over the 20).
    pub collect_apps: usize,
    /// Fresh `profile_one` profiles predicted per collection unit.
    pub collect_profiles: usize,
    /// Rounds over the four stages; every stage runs at least one unit per
    /// round, so throughputs and fit times are medians over at least this
    /// many units spread across the run.
    pub rounds: usize,
    /// Rows per batch-predict call and calls per model per train unit.
    pub batch_rows: usize,
    pub batch_calls: usize,
    /// Single-row `predict_features` calls per train unit.
    pub row_calls: usize,
    /// Open-loop seconds per round when serve is not the emphasis, and the
    /// closed-loop warm-up before the first.
    pub serve_secs: f64,
    pub warmup_secs: f64,
    pub rate_rps: f64,
    /// Jobs per scheduling unit and their Poisson arrival rate (0 = all
    /// submitted at time zero).
    pub sched_jobs: usize,
    pub sched_rate: f64,
    /// Whether the scheduling units look RPVs up over HTTP.
    pub federated: bool,
    /// Jobs of the federated-equals-local check every run makes.
    pub fed_check_jobs: usize,
    /// Seconds one unit of each stage is expected to take when it is not
    /// the emphasis, in stage order (train, collect, serve, sched).
    pub unit_secs: [f64; 4],
}

/// `n` of the twenty applications, evenly spread so cheap and costly ones
/// are both present.
pub fn spread_apps(n: usize) -> Vec<AppKind> {
    let all = AppKind::ALL;
    let n = n.clamp(1, all.len());
    (0..n).map(|i| all[i * all.len() / n]).collect()
}

impl Sizes {
    /// Seconds held back from the emphasised `stage`'s share of a round for
    /// the stages that run after it in the round.
    pub fn tail_after(&self, stage: Stage) -> f64 {
        self.unit_secs[stage as usize + 1..].iter().sum()
    }

    pub fn of(workload: Workload, seed: u64, smoke: bool) -> Sizes {
        let emphasis = workload.emphasis();
        let medium = CollectionConfig {
            apps: None,
            inputs_per_app: Some(3),
            reps: 2,
            seed,
        };
        let mut s = Sizes {
            campaign: if emphasis == Stage::Train {
                CollectionConfig::full(seed)
            } else {
                medium
            },
            setup_repeats: 3,
            collect_apps: if emphasis == Stage::Collect { 10 } else { 3 },
            collect_profiles: if emphasis == Stage::Collect { 8 } else { 2 },
            rounds: 5,
            batch_rows: 20_000,
            batch_calls: 2,
            row_calls: if emphasis == Stage::Train {
                10_000
            } else {
                6_000
            },
            serve_secs: 0.4,
            warmup_secs: if emphasis == Stage::Serve { 1.0 } else { 0.4 },
            rate_rps: RATE_RPS,
            sched_jobs: match workload {
                Workload::SchedBacklog => 30_000,
                Workload::SchedStream => 20_000,
                Workload::SchedFed => 12_000,
                _ => 6_000,
            },
            sched_rate: if workload == Workload::SchedStream {
                30.0
            } else {
                0.0
            },
            federated: workload == Workload::SchedFed,
            fed_check_jobs: 2_000,
            unit_secs: [0.6, 0.5, 0.45, 0.25],
        };
        if smoke {
            s.campaign = CollectionConfig::small(6, 2, 2, seed);
            s.setup_repeats = 1;
            s.collect_apps = 1;
            s.collect_profiles = 1;
            s.rounds = 1;
            s.batch_rows = 2_000;
            s.batch_calls = 1;
            s.row_calls = 1_000;
            s.serve_secs = 0.25;
            s.warmup_secs = 0.05;
            s.rate_rps = 2_000.0;
            s.sched_jobs = 1_500;
            s.fed_check_jobs = 300;
            s.unit_secs = [0.0; 4];
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_apps_spread() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(spread_apps(20), AppKind::ALL.to_vec());
        let five = spread_apps(5);
        assert_eq!(five.len(), 5);
        assert_eq!(five[0], AppKind::ALL[0]);
        assert_eq!(five[4], AppKind::ALL[16]);
        assert_eq!(spread_apps(0).len(), 1);
        assert_eq!(spread_apps(99).len(), 20);
    }
}
