//! The experiment registry behind `mphpc_exp`: every table and figure of
//! the paper is an [`Experiment`] — an id, the artefact it regenerates, a
//! `run` that prints its tables, and the [`Claim`]s EXPERIMENTS.md makes
//! about them as predicates over those tables. How *fast* the reproduction
//! runs is not measured here: that is `mphpc_perf` (`perf/`).
//!
//! `mphpc_exp <id>… | all [--size small|medium|full] [--seed N]
//! [--telemetry off|summary|jsonl|trace]` (defaults `medium`, 2024, `off`;
//! `jsonl` exports every printed table, the claims table included, so
//! EXPERIMENTS.md numbers are machine-diffable). A false claim whose
//! `min_size` is met exits 1. The dataset is loaded once per process and
//! cached as CSV under `<target dir>/mphpc-cache/` (`mphpc fleet run` is
//! the multi-process way to collect one, DESIGN.md §15).
//!
//! | Artefact (DESIGN.md §3) | id |
//! |---|---|
//! | T1–T3: Tables I–III | `tables` |
//! | D1: MP-HPC dataset (§V-D) | `dataset` |
//! | F2, A1: Fig. 2 + §VIII-A headline | `models` |
//! | F3: Fig. 3 (per-source-architecture heatmaps) | `arch_ablation` |
//! | F4: Fig. 4 (leave-one-scale-out) | `scale_ablation` |
//! | F5: Fig. 5 (leave-one-application-out) | `app_ablation` |
//! | F6: Fig. 6 (feature importances) | `importance` |
//! | A2: §VI-B top-k retraining | `feature_selection` |
//! | F7, F8: Figs. 7–8 (makespan, bounded slowdown) | `sched` |
//! | X1–X6: extensions | `sensitivity`, `rpv_reference`, `hyperparams`, `cache_ablation`, `size_extrapolation`, `workflow` |
//! | F7, F8 at 20× scale | `sched_scale` (`--jobs --rate --federate --addr`) |

mod extensions;
mod paper;

use mphpc_core::pipeline::{
    collect, evaluate_models, train_predictor, CollectionConfig, ModelEvaluation,
};
use mphpc_core::PerfPredictor;
use mphpc_dataset::MpHpcDataset;
use mphpc_errors::{MphpcError, ResultExt};
use mphpc_ml::ModelKind;
use std::cell::{OnceCell, RefCell};
use std::path::PathBuf;
use std::process::ExitCode;

/// Campaign size selector, ordered: a claim's `min_size` is compared to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExpSize {
    /// 6 apps × 2 inputs × 2 reps: seconds, for smoke runs.
    Small,
    /// All 20 apps × 3 inputs × 2 reps: the default.
    Medium,
    /// The paper-scale campaign (≈11.3k rows).
    Full,
}

impl ExpSize {
    const WORDS: [(&'static str, ExpSize); 3] = [
        ("small", ExpSize::Small),
        ("medium", ExpSize::Medium),
        ("full", ExpSize::Full),
    ];

    /// Parse from a CLI word.
    pub fn parse(word: &str) -> Option<ExpSize> {
        Self::WORDS.iter().find(|w| w.0 == word).map(|w| w.1)
    }

    /// The CLI word: cache file names, the claims table.
    fn word(self) -> &'static str {
        Self::WORDS[self as usize].0
    }

    /// Collection configuration for this size.
    pub fn config(self, seed: u64) -> CollectionConfig {
        match self {
            ExpSize::Small => CollectionConfig::small(6, 2, 2, seed),
            ExpSize::Medium => CollectionConfig {
                inputs_per_app: Some(3),
                reps: 2,
                ..CollectionConfig::full(seed)
            },
            ExpSize::Full => CollectionConfig::full(seed),
        }
    }
}

/// What an experiment runs on: size, seed, the dataset, the GBT fit on it
/// and each model family's evaluation (each made on first use, once per
/// process) and `sched_scale`'s own
/// options, as `USAGE` describes them.
pub struct Ctx {
    pub(crate) size: ExpSize,
    pub(crate) seed: u64,
    pub(crate) jobs: usize,
    pub(crate) rate: f64,
    pub(crate) federate: bool,
    pub(crate) addr: Option<String>,
    dataset: OnceCell<MpHpcDataset>,
    predictor: OnceCell<PerfPredictor>,
    evaluations: RefCell<Vec<((ModelKind, u64), ModelEvaluation)>>,
}

impl Ctx {
    /// A context whose dataset is the cached (or freshly collected)
    /// campaign of `size` and `seed`.
    pub fn new(size: ExpSize, seed: u64) -> Ctx {
        Ctx {
            size,
            seed,
            jobs: 1_000_000,
            rate: 0.0,
            federate: false,
            addr: None,
            dataset: OnceCell::new(),
            predictor: OnceCell::new(),
            evaluations: RefCell::new(Vec::new()),
        }
    }

    /// A context over a dataset the caller collected (the figure-shape
    /// tests run registry entries on their own campaigns).
    pub fn with_dataset(dataset: MpHpcDataset, size: ExpSize, seed: u64) -> Ctx {
        let ctx = Ctx::new(size, seed);
        ctx.dataset.get_or_init(|| dataset);
        ctx
    }

    /// The dataset: from this process's first call, else the CSV cache,
    /// else a collection run (whose result is cached, best-effort).
    pub(crate) fn dataset(&self) -> Result<&MpHpcDataset, MphpcError> {
        if let Some(dataset) = self.dataset.get() {
            return Ok(dataset);
        }
        let path = cache_dir().join(format!("mphpc_{}_{}.csv", self.size.word(), self.seed));
        let dataset = match MpHpcDataset::read_csv(&path) {
            Ok(d) => {
                eprintln!("[cache] loaded {} rows from {}", d.n_rows(), path.display());
                d
            }
            Err(e) => {
                if path.exists() {
                    eprintln!("[cache] ignoring stale cache ({e})");
                }
                let (size, seed) = (self.size, self.seed);
                eprintln!("[collect] building {size:?} dataset (seed {seed}) ...");
                let start = std::time::Instant::now();
                let d = collect(&size.config(seed)).context("building the experiment dataset")?;
                // A read-only target dir only costs a rebuild next run.
                d.write_csv(&path).ok();
                let secs = start.elapsed().as_secs_f64();
                eprintln!("[collect] {} rows in {secs:.1}s", d.n_rows());
                d
            }
        };
        Ok(self.dataset.get_or_init(|| dataset))
    }

    /// The paper's XGBoost ([`gbt`]) trained on the dataset at the
    /// context's seed. A fit is deterministic whatever the thread count, so
    /// one serves every experiment.
    pub(crate) fn predictor(&self) -> Result<&PerfPredictor, MphpcError> {
        if let Some(predictor) = self.predictor.get() {
            return Ok(predictor);
        }
        let predictor = train_predictor(self.dataset()?, gbt(), self.seed)?;
        Ok(self.predictor.get_or_init(|| predictor))
    }

    /// `kind`'s Fig. 2 evaluation ([`evaluate_models`]) on the dataset at
    /// the context's seed, made once per process: `models` and
    /// `cache_ablation` read one XGBoost evaluation.
    pub(crate) fn evaluation(&self, kind: ModelKind) -> Result<ModelEvaluation, MphpcError> {
        let key = (kind, self.seed);
        if let Some((_, eval)) = self.evaluations.borrow().iter().find(|e| e.0 == key) {
            return Ok(eval.clone());
        }
        let eval = evaluate_models(self.dataset()?, &[kind], self.seed)?.remove(0);
        self.evaluations.borrow_mut().push((key, eval.clone()));
        Ok(eval)
    }
}

/// `<target dir>/mphpc-cache`, created if it can be.
pub(crate) fn cache_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(target).join("mphpc-cache");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// A printed table — the record the telemetry sink exports: what `run`
/// returns and claims are predicates over.
pub use mphpc_telemetry::TableRecord as Table;

/// The table whose title starts with `title`, and where its column `col` is.
fn column<'a>(tables: &'a [Table], title: &str, col: &str) -> Option<(&'a Table, usize)> {
    let table = tables.iter().find(|t| t.title.starts_with(title))?;
    Some((table, table.header.iter().position(|h| h == col)?))
}

/// The cells of that column, top to bottom; empty if there is none.
pub(crate) fn cells<'a>(tables: &'a [Table], title: &str, col: &str) -> Vec<&'a str> {
    let rows = |(t, at): (&'a Table, usize)| t.rows.iter().map(|r| r[at].as_str()).collect();
    column(tables, title, col).map_or(Vec::new(), rows)
}

/// The number a cell starts with (`"1.443 h"`, `"+2.3%"`, `"0.9s"`); NaN
/// for anything else, so a predicate over a missing cell is false.
pub(crate) fn number(cell: &str) -> f64 {
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || "+-.".contains(c)))
        .unwrap_or(cell.len());
    cell[..end].parse().unwrap_or(f64::NAN)
}

/// The number in column `col` of the row labelled `row` (its first cell)
/// of the table titled `title…`; NaN if any of the three is missing.
pub(crate) fn num(tables: &[Table], title: &str, row: &str, col: &str) -> f64 {
    let cell = column(tables, title, col)
        .and_then(|(t, at)| Some(t.rows.iter().find(|r| r[0] == row)?[at].as_str()));
    cell.map_or(f64::NAN, number)
}

/// Column `col` strictly increases down the rows labelled `rows`.
pub(crate) fn rises(tables: &[Table], title: &str, col: &str, rows: &[&str]) -> bool {
    rows.windows(2)
        .all(|w| num(tables, title, w[0], col) < num(tables, title, w[1], col))
}

/// What `run` returns: the tables it printed.
pub(crate) type Tables = Result<Vec<Table>, MphpcError>;

/// The paper's XGBoost, at this repository's defaults.
pub(crate) fn gbt() -> ModelKind {
    ModelKind::Gbt(Default::default())
}

/// One statement EXPERIMENTS.md makes about an experiment's tables.
pub struct Claim {
    pub text: &'static str,
    /// The smallest campaign that can express the claim; below it the
    /// claim is reported but not evaluated.
    pub min_size: ExpSize,
    pub holds: fn(&[Table]) -> bool,
}

/// One registry entry.
pub struct Experiment {
    /// What `mphpc_exp <id>` selects.
    pub id: &'static str,
    /// The DESIGN.md §3 rows it regenerates.
    pub artifact: &'static str,
    /// Prints the experiment's tables and returns them.
    pub run: fn(&Ctx) -> Tables,
    pub claims: &'static [Claim],
}

impl Experiment {
    const fn new(
        id: &'static str,
        artifact: &'static str,
        run: fn(&Ctx) -> Tables,
        claims: &'static [Claim],
    ) -> Experiment {
        Experiment {
            id,
            artifact,
            run,
            claims,
        }
    }
}

/// Every experiment, in EXPERIMENTS.md order.
pub static REGISTRY: [Experiment; 16] = {
    use {extensions as x, paper as p};
    [
        Experiment::new("tables", "T1 T2 T3", p::tables, p::TABLES),
        Experiment::new("dataset", "D1", p::dataset, p::DATASET),
        Experiment::new("models", "F2 A1", p::models, p::MODELS),
        Experiment::new("arch_ablation", "F3", p::arch_ablation, p::ARCH_ABLATION),
        Experiment::new("scale_ablation", "F4", p::scale_ablation, p::SCALE_ABLATION),
        Experiment::new("app_ablation", "F5", p::app_ablation, p::APP_ABLATION),
        Experiment::new("importance", "F6", p::importance, p::IMPORTANCE),
        Experiment::new(
            "feature_selection",
            "A2",
            p::feature_selection,
            p::FEATURE_SELECTION,
        ),
        Experiment::new("sched", "F7 F8", p::sched, p::SCHED),
        Experiment::new("sensitivity", "X1", x::sensitivity, x::SENSITIVITY),
        Experiment::new("rpv_reference", "X2", x::rpv_reference, x::RPV_REFERENCE),
        Experiment::new("hyperparams", "X3", x::hyperparams, &[]),
        Experiment::new("cache_ablation", "X4", x::cache_ablation, x::CACHE_ABLATION),
        Experiment::new(
            "size_extrapolation",
            "X5",
            x::size_extrapolation,
            x::SIZE_EXTRAPOLATION,
        ),
        Experiment::new("workflow", "X6", x::workflow, x::WORKFLOW),
        Experiment::new("sched_scale", "F7 F8", x::sched_scale, x::SCHED_SCALE),
    ]
};

/// The registry entry with this id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

const USAGE: &str = "usage: mphpc_exp <id>... | all [--size small|medium|full] [--seed N] \
    [--telemetry off|summary|jsonl|trace]\n\
    \x20      sched_scale only: [--jobs N] [--rate JOBS_PER_SEC] [--federate] [--addr HOST:PORT]\n\
    \n\
    --jobs      workload size (default 1000000 — Figs. 7–8 @ 20x)\n\
    --rate      Poisson arrival rate; 0 = saturated backlog (default 0)\n\
    --federate  answer RPV lookups from a live serving endpoint; an\n\
    \x20          ephemeral in-process server is started unless --addr\n\
    ids:";

/// `mphpc_exp`: parse the command line (`args` without the program name),
/// run the selected experiments in order, print the claims table. Exit 2
/// with the usage on a bad command line, 1 on an experiment that failed or
/// a false claim whose `min_size` is met. The telemetry mode is applied
/// process-wide before the first experiment starts, and whatever was
/// recorded is flushed even on failure — a partial trace of a failing
/// experiment is exactly what you want.
pub fn run(args: impl Iterator<Item = String>) -> ExitCode {
    let Some((ctx, selected)) = parse_args(args) else {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        eprintln!("{USAGE} {}", ids.join(" "));
        return ExitCode::from(2);
    };
    let all_hold = run_experiments(&ctx, &selected);
    mphpc_telemetry::flush("mphpc_exp");
    ExitCode::from(u8::from(!all_hold))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Option<(Ctx, Vec<&'static Experiment>)> {
    let mut ctx = Ctx::new(ExpSize::Medium, 2024);
    let mut selected = Vec::new();
    let mut scale_flags = false;
    while let Some(word) = args.next() {
        let mut value = || args.next();
        match word.as_str() {
            "--size" => ctx.size = ExpSize::parse(&value()?)?,
            "--seed" => ctx.seed = value()?.parse().ok()?,
            "--telemetry" => {
                mphpc_telemetry::set_mode(mphpc_telemetry::TelemetryMode::parse(&value()?)?)
            }
            "--jobs" => ctx.jobs = value()?.parse().ok().filter(|&n| n > 0)?,
            "--rate" => ctx.rate = value()?.parse().ok()?,
            "--federate" => ctx.federate = true,
            "--addr" => ctx.addr = Some(value()?),
            "all" => selected.extend(REGISTRY.iter()),
            id => selected.push(experiment(id)?),
        }
        scale_flags |= matches!(word.as_str(), "--jobs" | "--rate" | "--federate" | "--addr");
    }
    let scale_selected = selected.iter().any(|e| e.id == "sched_scale");
    (!selected.is_empty() && (scale_selected || !scale_flags)).then_some((ctx, selected))
}

/// Run each experiment and evaluate its claims on the tables it printed,
/// then print one row per claim; `false` if an experiment failed — its
/// error chain goes to stderr and the rest still run, so one failure does
/// not cost the record the others — or a claim the campaign is not below
/// the `min_size` of does not hold.
pub fn run_experiments(ctx: &Ctx, selected: &[&Experiment]) -> bool {
    let mut rows = Vec::new();
    let mut all_hold = true;
    for exp in selected {
        let tables = (exp.run)(ctx).context(format!("running {}", exp.id));
        if let Err(e) = &tables {
            eprintln!("{}", e.render_chain());
        }
        for claim in exp.claims {
            let min = claim.min_size;
            let holds = match &tables {
                Err(_) => "error".to_string(),
                Ok(_) if ctx.size < min => format!("n/a below {}", min.word()),
                Ok(tables) if (claim.holds)(tables) => "yes".to_string(),
                Ok(_) => "NO".to_string(),
            };
            all_hold &= holds != "NO";
            rows.push(vec![exp.id.to_string(), claim.text.to_string(), holds]);
        }
        all_hold &= tables.is_ok();
    }
    if !rows.is_empty() {
        print_table("claims", &["experiment", "claim", "holds"], rows);
    }
    all_hold
}

/// Print an aligned table — header then rows — and return it. The table is
/// also recorded with the telemetry layer, so a `--telemetry jsonl` run
/// exports every stdout table as machine-diffable JSONL.
pub(crate) fn print_table(title: &str, header: &[&str], rows: Vec<Vec<String>>) -> Table {
    mphpc_telemetry::record_table(title, header, &rows);
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in &rows {
        println!("{}", fmt_row(row));
    }
    Table {
        title: title.to_string(),
        header,
        rows,
    }
}

/// A column of [`print_columns`]: its header cell and how an item renders in it.
pub(crate) type Column<'a, T> = (&'a str, &'a dyn Fn(&T) -> String);

/// [`print_table`] with one row per item.
pub(crate) fn print_columns<T>(title: &str, items: &[T], columns: &[Column<T>]) -> Table {
    let header: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let row = |item| columns.iter().map(|c| (c.1)(item)).collect();
    print_table(title, &header, items.iter().map(row).collect())
}

/// Render a horizontal ASCII bar chart (the textual rendition of a paper
/// figure): one `(label, value)` bar per item, 60 characters at the maximum.
pub(crate) fn print_bar_chart<T>(
    title: &str,
    unit: &str,
    items: &[T],
    bar: impl Fn(&T) -> (String, f64),
) {
    println!("\n== {title} ==");
    let bars: Vec<(String, f64)> = items.iter().map(bar).collect();
    let max = bars
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    let label_w = bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in bars {
        let n = ((value / max) * 60.0).round().max(0.0) as usize;
        println!(
            "{label:<label_w$}  {:<60}  {value:.3} {unit}",
            "█".repeat(n)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parsing() {
        assert_eq!(ExpSize::parse("small"), Some(ExpSize::Small));
        assert_eq!(ExpSize::parse("full"), Some(ExpSize::Full));
        assert_eq!(ExpSize::parse("bogus"), None);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        // Smoke test: must not panic on zero, tiny, and ordinary values.
        print_bar_chart("t", "s", &[("a", 0.0), ("bb", 1.0), ("c", 0.5)], |b| {
            (b.0.to_string(), b.1)
        });
    }

    #[test]
    fn configs_scale_with_size() {
        let s = ExpSize::Small.config(1).specs().len();
        let m = ExpSize::Medium.config(1).specs().len();
        let f = ExpSize::Full.config(1).specs().len();
        assert!(s < m && m < f);
    }
}
