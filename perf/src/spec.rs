//! The benchmark's contract, read from the repository's `BENCHMARK.json`.
//!
//! That file is the one place workload names, metric names, units,
//! directions and regression bounds are fixed. It is embedded at build time;
//! a run refuses to report a metric the file does not name, or to omit one it
//! does.

use serde::{Deserialize, Serialize};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const MAX_WORKLOADS: usize = 8;
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
pub const MAX_NAME_LEN: usize = 64;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayerSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<PerLayerSpec>,
}

/// A name starts with a letter or digit and continues with letters, digits,
/// `_`, `.` and `-`, at most [`MAX_NAME_LEN`] in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= MAX_NAME_LEN
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl BenchmarkSpec {
    pub fn parse(text: &str) -> Result<Self, String> {
        let spec: BenchmarkSpec =
            serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// The embedded contract; it is validated by the test suite, so a
    /// failure here is a build of a broken tree.
    pub fn embedded() -> Self {
        Self::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is valid")
    }

    /// Counts within the contract's limits, names well formed and used once,
    /// directions and bounds in range, and a `setup_s` metric in seconds.
    pub fn validate(&self) -> Result<(), String> {
        let count = |what: &str, n: usize, lo: usize, hi: usize| {
            if (lo..=hi).contains(&n) {
                Ok(())
            } else {
                Err(format!("{n} {what}, allowed {lo} to {hi}"))
            }
        };
        count("workloads", self.workloads.len(), 2, MAX_WORKLOADS)?;
        count(
            "end-to-end metrics",
            self.end_to_end.len(),
            1,
            MAX_END_TO_END,
        )?;
        count("per-layer metrics", self.per_layer.len(), 1, MAX_PER_LAYER)?;
        let mut seen = std::collections::BTreeSet::new();
        let names = self
            .workloads
            .iter()
            .map(|w| &w.name)
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                return Err(format!("invalid name `{name}`"));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("name `{name}` used twice"));
            }
        }
        for w in &self.workloads {
            if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
                return Err(format!(
                    "workload `{}`: `why` must be one line of at most 200 characters",
                    w.name
                ));
            }
        }
        let directions = self
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit, &m.better))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit, &m.better)));
        for (name, unit, better) in directions {
            if better != "lower" && better != "higher" {
                return Err(format!("metric `{name}`: better must be lower or higher"));
            }
            if !valid_unit(unit) {
                return Err(format!("metric `{name}`: invalid unit `{unit}`"));
            }
        }
        for m in &self.end_to_end {
            if !(m.bound > 0.0 && m.bound <= 0.25) {
                return Err(format!(
                    "metric `{}`: bound {} outside (0, 0.25]",
                    m.name, m.bound
                ));
            }
        }
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.better == "lower" => Ok(()),
            _ => Err("end_to_end needs `setup_s` in s, lower is better".to_string()),
        }
    }

    pub fn end_to_end(&self, name: &str) -> Option<&EndToEndSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> BenchmarkSpec {
        BenchmarkSpec {
            command: vec!["x".into()],
            paths: vec!["perf".into()],
            run_seconds: 1,
            workloads: vec![
                WorkloadSpec {
                    name: "a".into(),
                    why: "one".into(),
                },
                WorkloadSpec {
                    name: "b".into(),
                    why: "two".into(),
                },
            ],
            end_to_end: vec![EndToEndSpec {
                name: "setup_s".into(),
                unit: "s".into(),
                better: "lower".into(),
                bound: 0.25,
            }],
            per_layer: vec![PerLayerSpec {
                name: "l.x".into(),
                unit: "count".into(),
                better: "higher".into(),
            }],
        }
    }

    #[test]
    fn names_follow_the_contract_grammar() {
        for ok in [
            "a",
            "9lives",
            "serve.parse_head_ns",
            "ml.first_predict_ms.gbt",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "_a", "-a", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn limits_duplicates_and_bounds_are_enforced() {
        assert_eq!(minimal().validate(), Ok(()));

        let mut s = minimal();
        s.workloads.truncate(1);
        assert!(s.validate().unwrap_err().contains("workloads"));

        let mut s = minimal();
        for i in 0..MAX_WORKLOADS {
            s.workloads.push(WorkloadSpec {
                name: format!("w{i}"),
                why: "x".into(),
            });
        }
        assert!(s.validate().unwrap_err().contains("workloads"));

        let mut s = minimal();
        for i in 0..MAX_END_TO_END {
            s.end_to_end.push(EndToEndSpec {
                name: format!("m{i}"),
                unit: "s".into(),
                better: "lower".into(),
                bound: 0.1,
            });
        }
        assert!(s.validate().unwrap_err().contains("end-to-end"));

        let mut s = minimal();
        for i in 0..MAX_PER_LAYER {
            s.per_layer.push(PerLayerSpec {
                name: format!("p{i}"),
                unit: "s".into(),
                better: "lower".into(),
            });
        }
        assert!(s.validate().unwrap_err().contains("per-layer"));

        // A name may be used once across workloads and both metric lists.
        let mut s = minimal();
        s.per_layer[0].name = "a".into();
        assert!(s.validate().unwrap_err().contains("twice"));

        let mut s = minimal();
        s.end_to_end[0].bound = 0.3;
        assert!(s.validate().unwrap_err().contains("bound"));

        let mut s = minimal();
        s.end_to_end[0].name = "startup_s".into();
        assert!(s.validate().unwrap_err().contains("setup_s"));

        let mut s = minimal();
        s.per_layer[0].better = "faster".into();
        assert!(s.validate().unwrap_err().contains("better"));

        let mut s = minimal();
        s.per_layer[0].unit = "µs".into();
        assert!(s.validate().unwrap_err().contains("unit"));
    }
}
