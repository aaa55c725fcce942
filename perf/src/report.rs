//! What a run produces: named metrics with units and sample counts, the
//! operations attempted and failed, exact-repeat checks, and the host shape.

use crate::spec::BenchmarkSpec;
use crate::yardstick::{medians, Timed};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured value. `n` is the number of samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: u64,
}

/// The machine and toolchain a result was measured on, so numbers from
/// differently shaped hosts are never compared by accident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let unknown = || "unknown".to_string();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one workload run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub trace: bool,
    pub smoke: bool,
    /// Sizes and rates the workload ran at.
    pub params: BTreeMap<String, f64>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (first few).
    pub failures: Vec<String>,
    /// Values that must repeat exactly for a seed, as hex or decimal text.
    pub checks: BTreeMap<String, String>,
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A result file: the host once, then one record per workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub host: Host,
    pub records: Vec<RunRecord>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("result files serialise")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("result file: {e}"))
    }

    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }
}

#[derive(Serialize)]
struct ContractValue {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractValue>,
}

/// The one-line JSON object the driver reads: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one, and nothing else.
pub fn contract_line(record: &RunRecord, spec: &BenchmarkSpec) -> Result<String, String> {
    let wanted: Vec<(&str, &str)> = if record.trace {
        spec.per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in wanted {
        let m = record
            .metric(name)
            .ok_or_else(|| format!("run did not measure `{name}`"))?;
        if m.unit != unit {
            return Err(format!(
                "`{name}` measured in {} but declared in {unit}",
                m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("`{name}` is not a finite number"));
        }
        metrics.insert(
            name.to_string(),
            ContractValue {
                value: m.value,
                unit: unit.to_string(),
            },
        );
    }
    let line = ContractLine {
        correct: record.correct,
        attempted: record.attempted.max(1),
        failed: record.failed,
        metrics,
    };
    Ok(serde_json::to_string(&line).expect("contract line serialises"))
}

/// Every metric by name with its unit and sample count, one per line.
pub fn human_table(record: &RunRecord) -> String {
    let mut out = format!(
        "workload {} seed {} threads {} trace {} attempted {} failed {}\n",
        record.workload, record.seed, record.threads, record.trace, record.attempted, record.failed
    );
    for (k, v) in &record.params {
        out.push_str(&format!("  param {k} = {v}\n"));
    }
    for (k, v) in &record.checks {
        out.push_str(&format!("  check {k} = {v}\n"));
    }
    for m in &record.metrics {
        out.push_str(&format!(
            "  {:<40} {:>16.4} {:<8} n={}\n",
            m.name, m.value, m.unit, m.n
        ));
    }
    for f in &record.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

/// Accumulates a run's metrics, operation counts and checks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checks: BTreeMap<String, String>,
    pub params: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn put(&mut self, name: &str, unit: &str, value: f64, n: usize) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} put twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n: n as u64,
        });
    }

    /// Put a metric that is a function of a median duration twice: `name`
    /// from the samples at the reference host's speed, which is the figure
    /// that is gated, and `name.raw` from the samples as measured. `value`
    /// maps the median, in seconds, to the metric.
    pub fn put_timed(
        &mut self,
        name: &str,
        unit: &str,
        samples: &[Timed],
        value: impl Fn(f64) -> f64,
    ) {
        let (scaled_s, raw_s) = medians(samples);
        self.put(name, unit, value(scaled_s), samples.len());
        self.put(&format!("{name}.raw"), unit, value(raw_s), samples.len());
    }

    /// Count one operation; `why` describes it if it failed.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ops_ok(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn check(&mut self, name: &str, value: impl ToString) {
        self.checks.insert(name.to_string(), value.to_string());
    }

    pub fn param(&mut self, name: &str, value: f64) {
        self.params.insert(name.to_string(), value);
    }

    /// Add one to the parameter `name`, which counts occurrences.
    pub fn bump(&mut self, name: &str) {
        *self.params.entry(name.to_string()).or_insert(0.0) += 1.0;
    }
}
