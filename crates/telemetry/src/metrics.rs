//! Typed process-wide metrics: counters, gauges, histograms, tables.
//!
//! Metrics are aggregates, not streams — a counter bumped a million
//! times from the hist-build inner loop stays one `u64`. They live in
//! `BTreeMap`s keyed by `&'static str` so reports come out in a stable,
//! diffable order. The maps are mutex-guarded; hot call sites should
//! accumulate locally and flush once per region (the sched engine and
//! archsim do exactly that), so the lock is cold in practice.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::buffer::note_write;

/// Number of log-spaced buckets kept per histogram (see
/// [`HistSummary::buckets`]).
pub const HIST_BUCKETS: usize = 64;

/// Smallest positive value with its own bucket: `2^HIST_LOG2_MIN`.
/// Observations at or below it (and all non-positive values) fall into
/// bucket 0.
const HIST_LOG2_MIN: f64 = -20.0;

/// Buckets per octave (factor-of-two range). Two half-octave buckets per
/// octave bound the relative quantile-estimation error by `2^(1/4) - 1`
/// (≈ ±19% around a bucket's geometric midpoint).
const HIST_BUCKETS_PER_OCTAVE: f64 = 2.0;

/// count/sum/min/max summary of recorded observations, plus fixed
/// log-spaced buckets for quantile estimation.
///
/// Buckets 1..[`HIST_BUCKETS`] are half-octave wide starting at
/// `2^-20` (≈ 1 µs when observations are in seconds), covering up to
/// `2^11.5` (≈ 2900); values outside clamp to the end buckets and
/// bucket 0 absorbs non-positive values. That range spans every
/// histogram the pipeline records (latencies in seconds, batch sizes,
/// row counts) with ≤ ~19% relative error on [`HistSummary::quantile`] —
/// exact `min`/`max` still tighten the extreme quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Observation counts per log-spaced bucket (see the type docs).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSummary {
    /// An empty histogram (identity for [`HistSummary::record`]).
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Fold one observation into the summary and its bucket.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the buckets.
    ///
    /// Nearest-rank over the bucket counts; the returned value is the
    /// geometric midpoint of the selected bucket, clamped to the exact
    /// observed `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // The extreme quantiles are tracked exactly — don't estimate them.
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > target {
                return bucket_midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl Default for HistSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for one observation: 0 for non-positive/underflow, else
/// half-octave log₂ position clamped to the table.
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || value.is_nan() {
        return 0;
    }
    let pos = (value.log2() - HIST_LOG2_MIN) * HIST_BUCKETS_PER_OCTAVE;
    if pos < 0.0 {
        0
    } else {
        (pos.floor() as usize + 1).min(HIST_BUCKETS - 1)
    }
}

/// Geometric midpoint of bucket `i`'s value range (its lower bound for
/// bucket 0, which has no finite lower edge).
fn bucket_midpoint(i: usize) -> f64 {
    if i == 0 {
        return (2f64).powf(HIST_LOG2_MIN);
    }
    let lo_log2 = HIST_LOG2_MIN + (i - 1) as f64 / HIST_BUCKETS_PER_OCTAVE;
    (2f64).powf(lo_log2 + 0.5 / HIST_BUCKETS_PER_OCTAVE)
}

/// A result table captured from an experiment binary's stdout rendering.
#[derive(Debug, Clone)]
pub struct TableRecord {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

#[derive(Default)]
pub(crate) struct MetricStore {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, f64>,
    pub hists: BTreeMap<&'static str, HistSummary>,
    pub tables: Vec<TableRecord>,
}

fn store() -> MutexGuard<'static, MetricStore> {
    static STORE: OnceLock<Mutex<MetricStore>> = OnceLock::new();
    STORE
        .get_or_init(|| Mutex::new(MetricStore::default()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn counter_add(name: &'static str, n: u64) {
    *store().counters.entry(name).or_insert(0) += n;
    note_write();
}

pub(crate) fn gauge_set(name: &'static str, value: f64) {
    store().gauges.insert(name, value);
    note_write();
}

pub(crate) fn histogram_record(name: &'static str, value: f64) {
    let mut s = store();
    s.hists.entry(name).or_default().record(value);
    drop(s);
    note_write();
}

pub(crate) fn record_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    store().tables.push(TableRecord {
        title: title.to_string(),
        header: header.iter().map(|h| h.to_string()).collect(),
        rows: rows.to_vec(),
    });
    note_write();
}

/// Counters, gauges, histograms and tables, each in name order.
pub(crate) type Snapshot = (
    Vec<(&'static str, u64)>,
    Vec<(&'static str, f64)>,
    Vec<(&'static str, HistSummary)>,
    Vec<TableRecord>,
);

pub(crate) fn snapshot() -> Snapshot {
    let s = store();
    (
        s.counters.iter().map(|(k, v)| (*k, *v)).collect(),
        s.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
        s.hists.iter().map(|(k, v)| (*k, *v)).collect(),
        s.tables.clone(),
    )
}

pub(crate) fn clear() {
    let mut s = store();
    s.counters.clear();
    s.gauges.clear();
    s.hists.clear();
    s.tables.clear();
}
