//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper. How *fast* the reproduction runs is not
//! measured here: that is `mphpc_perf` (`perf/`, `BENCHMARK.json`).
//!
//! Each binary accepts `--size small|medium|full` (default `medium`),
//! `--seed N` (default 2024) and `--telemetry off|summary|jsonl|trace`
//! (default `off`; see DESIGN.md §12 — `jsonl` also exports every table a
//! binary prints, so EXPERIMENTS.md numbers are machine-diffable).
//! Datasets are cached as CSV under `target/mphpc-cache/` so repeated
//! experiments don't re-run the collection campaign (`mphpc fleet run`
//! is the multi-process way to collect one, DESIGN.md §15).
//!
//! | Artifact | Binary |
//! |---|---|
//! | Tables I–III | `exp_tables` |
//! | MP-HPC dataset (§V-D) | `exp_dataset` |
//! | Fig. 2 (model MAE/SOS) + §VIII-A improvement | `exp_models` |
//! | Fig. 3 (per-source-architecture heatmaps) | `exp_arch_ablation` |
//! | Fig. 4 (leave-one-scale-out) | `exp_scale_ablation` |
//! | Fig. 5 (leave-one-application-out) | `exp_app_ablation` |
//! | Fig. 6 (feature importances) | `exp_importance` |
//! | §VI-B top-k retraining | `exp_feature_selection` |
//! | Figs. 7–8 (makespan, bounded slowdown) | `exp_sched` |

use mphpc_core::pipeline::{collect, CollectionConfig};
use mphpc_dataset::MpHpcDataset;
use mphpc_errors::{MphpcError, ResultExt};
use std::path::PathBuf;
use std::process::ExitCode;

/// Run an experiment body, rendering the full error context chain on
/// failure. Experiment binaries exit non-zero with a readable diagnosis
/// instead of panicking when the pipeline rejects their inputs.
pub fn run(body: impl FnOnce() -> Result<(), MphpcError>) -> ExitCode {
    let result = body();
    // Flush whatever telemetry the body recorded even when it failed —
    // a partial trace of a failing experiment is exactly what you want.
    mphpc_telemetry::flush(&bin_name());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.render_chain());
            ExitCode::FAILURE
        }
    }
}

/// The running binary's file stem (`exp_models`), for telemetry artifact
/// names.
fn bin_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem()?.to_str().map(str::to_string))
        .unwrap_or_else(|| "exp".to_string())
}

/// Campaign size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpSize {
    /// 6 apps × 2 inputs × 2 reps: seconds, for smoke runs.
    Small,
    /// All 20 apps × 3 inputs × 2 reps: the default.
    Medium,
    /// The paper-scale campaign (≈11.3k rows).
    Full,
}

impl ExpSize {
    /// Parse from a CLI word.
    pub fn parse(word: &str) -> Option<ExpSize> {
        match word {
            "small" => Some(ExpSize::Small),
            "medium" => Some(ExpSize::Medium),
            "full" => Some(ExpSize::Full),
            _ => None,
        }
    }

    /// Collection configuration for this size.
    pub fn config(self, seed: u64) -> CollectionConfig {
        match self {
            ExpSize::Small => CollectionConfig::small(6, 2, 2, seed),
            ExpSize::Medium => CollectionConfig {
                apps: None,
                inputs_per_app: Some(3),
                reps: 2,
                seed,
            },
            ExpSize::Full => CollectionConfig::full(seed),
        }
    }

    fn cache_tag(self) -> &'static str {
        match self {
            ExpSize::Small => "small",
            ExpSize::Medium => "medium",
            ExpSize::Full => "full",
        }
    }
}

/// Parsed common CLI options.
#[derive(Debug, Clone, Copy)]
pub struct ExpArgs {
    /// Campaign size.
    pub size: ExpSize,
    /// Base seed.
    pub seed: u64,
}

impl ExpArgs {
    /// Parse `--size` / `--seed` / `--telemetry` from
    /// `std::env::args`; exits with a usage message on bad input. The
    /// telemetry mode is applied process-wide as a side effect, so
    /// instrumentation is live before the experiment body starts.
    pub fn from_env() -> ExpArgs {
        ExpArgs::from_env_with("", |_, _| None)
    }

    /// [`ExpArgs::from_env`] for a binary with flags of its own, so there is
    /// one argument loop: a flag the harness does not read goes to `extra`
    /// with a function that takes the flag's value. `None` — not its flag
    /// either, or a value it cannot use — ends in the usage message, which
    /// closes with `extra_usage`.
    pub fn from_env_with(
        extra_usage: &str,
        mut extra: impl FnMut(&str, &mut dyn FnMut() -> String) -> Option<()>,
    ) -> ExpArgs {
        let usage = || -> ! {
            eprintln!(
                "usage: <exp> [--size small|medium|full] [--seed N] \
                 [--telemetry off|summary|jsonl|trace]{extra_usage}"
            );
            std::process::exit(2)
        };
        let mut out = ExpArgs {
            size: ExpSize::Medium,
            seed: 2024,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().unwrap_or_else(|| usage());
            match flag.as_str() {
                "--size" => out.size = ExpSize::parse(&value()).unwrap_or_else(|| usage()),
                "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
                "--telemetry" => mphpc_telemetry::set_mode(
                    mphpc_telemetry::TelemetryMode::parse(&value()).unwrap_or_else(|| usage()),
                ),
                other => extra(other, &mut value).unwrap_or_else(|| usage()),
            }
        }
        out
    }
}

fn cache_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("mphpc-cache")
}

/// Build (or load from cache) the dataset for the given size/seed.
pub fn load_or_build_dataset(args: ExpArgs) -> Result<MpHpcDataset, MphpcError> {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("mphpc_{}_{}.csv", args.size.cache_tag(), args.seed));
    if path.exists() {
        match MpHpcDataset::read_csv(&path) {
            Ok(d) => {
                eprintln!("[cache] loaded {} rows from {}", d.n_rows(), path.display());
                return Ok(d);
            }
            Err(e) => eprintln!("[cache] ignoring stale cache ({e})"),
        }
    }
    eprintln!(
        "[collect] building {:?} dataset (seed {}) ...",
        args.size, args.seed
    );
    let start = std::time::Instant::now();
    let dataset =
        collect(&args.size.config(args.seed)).context("building the experiment dataset")?;
    // Cache write is best-effort: a read-only target dir only costs a
    // rebuild next run.
    dataset.write_csv(&path).ok();
    eprintln!(
        "[collect] {} rows in {:.1}s",
        dataset.n_rows(),
        start.elapsed().as_secs_f64()
    );
    Ok(dataset)
}

/// Print an aligned table: header then rows. The table is also recorded
/// with the telemetry layer, so a `--telemetry jsonl` run exports every
/// stdout table as machine-diffable JSONL.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    mphpc_telemetry::record_table(title, header, rows);
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
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
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Render a horizontal ASCII bar chart (the textual rendition of a paper
/// figure): one labelled bar per `(label, value)`, scaled to `width`
/// characters at the maximum value.
pub fn print_bar_chart(title: &str, unit: &str, bars: &[(String, f64)], width: usize) {
    println!("\n== {title} ==");
    let max = bars
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    let label_w = bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in bars {
        let n = ((value / max) * width as f64).round().max(0.0) as usize;
        println!(
            "{label:<label_w$}  {:<width$}  {value:.3} {unit}",
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
        print_bar_chart(
            "t",
            "s",
            &[("a".into(), 0.0), ("bb".into(), 1.0), ("c".into(), 0.5)],
            20,
        );
    }

    #[test]
    fn configs_scale_with_size() {
        let s = ExpSize::Small.config(1).specs().len();
        let m = ExpSize::Medium.config(1).specs().len();
        let f = ExpSize::Full.config(1).specs().len();
        assert!(s < m && m < f);
    }
}
