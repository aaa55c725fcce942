//! Shadow evaluation: mirror live predict traffic onto a candidate
//! model without touching the serving path.
//!
//! A [`ShadowSlot`] hangs off the micro-batcher. When engaged, the
//! batcher hands each *completed* batch — the feature rows it already
//! assembled plus the live model's outputs — to the slot **after** every
//! reply has been delivered, moving the buffers instead of copying them.
//! The slot forwards the batch over a bounded channel to a dedicated
//! worker thread that runs the candidate model and accumulates
//! divergence statistics; when the channel is full the batch is dropped
//! and counted, never waited on. The serving path therefore pays one
//! relaxed atomic load per batch when shadowing is off, and one
//! `try_send` when it is on — response bytes and latency are untouched
//! either way, which the shadow-purity test asserts bit-for-bit.
//!
//! The candidate lives only in the slot until promotion: the watch
//! daemon attaches it, reads the accumulated [`ShadowReport`], and — if
//! the gate passes — promotes *exactly the object that was shadowed*
//! into the registry ([`ShadowSlot::detach_for`] hands it back).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;

use crate::PredictModel;

/// Mirror-queue capacity in batches. Shadow evaluation is best-effort:
/// if the candidate cannot keep up, batches are dropped and counted
/// rather than backpressuring the live path.
const MIRROR_QUEUE_BATCHES: usize = 64;

/// One completed live batch handed to the shadow worker.
pub(crate) struct MirrorBatch {
    /// Row-major feature rows, exactly as predicted by the live model.
    pub(crate) rows: Vec<f64>,
    /// The live model's row-major outputs for those rows.
    pub(crate) live_outputs: Vec<f64>,
    /// Rows in the batch.
    pub(crate) n_rows: usize,
}

/// Divergence accumulated by the shadow worker.
struct Accum {
    batches: u64,
    rows: u64,
    /// Per-output sum of `|candidate − live|` over all mirrored rows.
    abs_diff: Vec<f64>,
    max_abs: f64,
}

struct Inner {
    target: String,
    candidate: Arc<dyn PredictModel>,
    accum: Mutex<Accum>,
    /// Mirrored rows on which the candidate failed to predict (errors
    /// or output-shape mismatches).
    errors: AtomicU64,
    /// Rows dropped because the mirror queue was full.
    dropped: AtomicU64,
}

/// Snapshot of a shadow evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowReport {
    /// Registry name whose traffic is being mirrored.
    pub target: String,
    /// Candidate model family label.
    pub candidate_kind: String,
    /// Batches the candidate scored.
    pub batches: u64,
    /// Rows the candidate scored.
    pub rows: u64,
    /// Rows dropped under mirror-queue pressure.
    pub dropped_rows: u64,
    /// Rows on which the candidate failed to predict.
    pub errors: u64,
    /// Per-output mean `|candidate − live|` over scored rows (empty
    /// until the first batch lands).
    pub mean_abs_divergence: Vec<f64>,
    /// Largest single `|candidate − live|` seen.
    pub max_abs_divergence: f64,
}

struct Active {
    inner: Arc<Inner>,
    tx: SyncSender<MirrorBatch>,
    worker: thread::JoinHandle<()>,
}

/// The batcher's shadow attachment point.
pub struct ShadowSlot {
    /// Fast-path flag: `false` means [`ShadowSlot::mirror`] is one
    /// relaxed load and out.
    engaged: AtomicBool,
    active: Mutex<Option<Active>>,
}

impl Default for ShadowSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowSlot {
    /// An empty (disengaged) slot.
    pub fn new() -> ShadowSlot {
        ShadowSlot {
            engaged: AtomicBool::new(false),
            active: Mutex::new(None),
        }
    }

    /// Start shadowing `target`'s traffic with `candidate`, replacing
    /// (and returning the final report of) any previous shadow.
    pub fn attach(&self, target: &str, candidate: Arc<dyn PredictModel>) -> Option<ShadowReport> {
        let inner = Arc::new(Inner {
            target: target.to_string(),
            candidate,
            accum: Mutex::new(Accum {
                batches: 0,
                rows: 0,
                abs_diff: Vec::new(),
                max_abs: 0.0,
            }),
            errors: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        let (tx, rx) = sync_channel::<MirrorBatch>(MIRROR_QUEUE_BATCHES);
        let worker_inner = Arc::clone(&inner);
        let worker = thread::Builder::new()
            .name("mphpc-shadow".to_string())
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    score(&worker_inner, &batch);
                }
            })
            .expect("spawning the shadow worker thread");
        let mut slot = lock(&self.active);
        let previous = slot.replace(Active { inner, tx, worker });
        self.engaged.store(true, Ordering::Release);
        drop(slot);
        mphpc_telemetry::counter_add("serve.shadow_attaches", 1);
        previous.map(stop)
    }

    /// Stop shadowing *if* the current shadow targets `target`,
    /// returning the final report **and the candidate model** so the
    /// caller can install exactly what was evaluated. Leaves a shadow
    /// for a different target attached.
    pub fn detach_for(&self, target: &str) -> Option<(ShadowReport, Arc<dyn PredictModel>)> {
        let mut slot = lock(&self.active);
        if slot.as_ref().is_none_or(|a| a.inner.target != target) {
            return None;
        }
        let active = slot.take()?;
        self.engaged.store(false, Ordering::Release);
        drop(slot);
        let candidate = Arc::clone(&active.inner.candidate);
        Some((stop(active), candidate))
    }

    /// The in-progress report, if a shadow is attached.
    pub fn snapshot(&self) -> Option<ShadowReport> {
        lock(&self.active).as_ref().map(|a| report(&a.inner))
    }

    /// Whether the current shadow (if any) targets `model_name` — the
    /// batcher's cheap pre-check before moving buffers into
    /// [`ShadowSlot::mirror`].
    pub(crate) fn wants(&self, model_name: &str) -> bool {
        if !self.engaged.load(Ordering::Relaxed) {
            return false;
        }
        lock(&self.active)
            .as_ref()
            .is_some_and(|a| a.inner.target == model_name)
    }

    /// Hand a completed live batch to the shadow worker (nonblocking;
    /// drops and counts under pressure). Called by the batcher thread
    /// after reply delivery; a shadow detached between
    /// [`ShadowSlot::wants`] and here silently discards the batch.
    pub(crate) fn mirror(&self, model_name: &str, batch: MirrorBatch) {
        let slot = lock(&self.active);
        let Some(active) = slot.as_ref() else { return };
        if active.inner.target != model_name {
            return;
        }
        let n_rows = batch.n_rows as u64;
        match active.tx.try_send(batch) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                active.inner.dropped.fetch_add(n_rows, Ordering::Relaxed);
                mphpc_telemetry::counter_add("serve.shadow_dropped_rows", n_rows);
            }
        }
    }
}

/// Drop the sender, join the worker (it drains the queue first), and
/// collect the final report.
fn stop(active: Active) -> ShadowReport {
    drop(active.tx);
    let _ = active.worker.join();
    report(&active.inner)
}

fn report(inner: &Inner) -> ShadowReport {
    let accum = lock(&inner.accum);
    let mean = if accum.rows == 0 {
        Vec::new()
    } else {
        accum
            .abs_diff
            .iter()
            .map(|s| s / accum.rows as f64)
            .collect()
    };
    ShadowReport {
        target: inner.target.clone(),
        candidate_kind: inner.candidate.kind(),
        batches: accum.batches,
        rows: accum.rows,
        dropped_rows: inner.dropped.load(Ordering::Relaxed),
        errors: inner.errors.load(Ordering::Relaxed),
        mean_abs_divergence: mean,
        max_abs_divergence: accum.max_abs,
    }
}

/// Run the candidate on one mirrored batch and fold the divergence in.
fn score(inner: &Inner, batch: &MirrorBatch) {
    let n_rows = batch.n_rows;
    let k = if n_rows == 0 {
        0
    } else {
        batch.live_outputs.len() / n_rows
    };
    let cand = match inner.candidate.predict_batch(&batch.rows, n_rows) {
        Ok(outputs) if outputs.len() == batch.live_outputs.len() => outputs,
        _ => {
            inner.errors.fetch_add(n_rows as u64, Ordering::Relaxed);
            mphpc_telemetry::counter_add("serve.shadow_errors", n_rows as u64);
            return;
        }
    };
    let mut accum = lock(&inner.accum);
    if accum.abs_diff.len() != k {
        accum.abs_diff.resize(k, 0.0);
    }
    for (i, (c, l)) in cand.iter().zip(&batch.live_outputs).enumerate() {
        let d = (c - l).abs();
        accum.abs_diff[i % k] += d;
        if d > accum.max_abs {
            accum.max_abs = d;
        }
    }
    accum.batches += 1;
    accum.rows += n_rows as u64;
    mphpc_telemetry::counter_add("serve.shadow_rows", n_rows as u64);
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mphpc_errors::MphpcError;
    use std::time::{Duration, Instant};

    struct OffsetModel(f64);

    impl PredictModel for OffsetModel {
        fn n_features(&self) -> usize {
            2
        }
        fn n_outputs(&self) -> usize {
            2
        }
        fn predict_batch(&self, rows: &[f64], _n_rows: usize) -> Result<Vec<f64>, MphpcError> {
            Ok(rows.iter().map(|x| x + self.0).collect())
        }
        fn kind(&self) -> String {
            "offset".to_string()
        }
    }

    struct FailModel;

    impl PredictModel for FailModel {
        fn n_features(&self) -> usize {
            2
        }
        fn n_outputs(&self) -> usize {
            2
        }
        fn predict_batch(&self, _rows: &[f64], _n_rows: usize) -> Result<Vec<f64>, MphpcError> {
            Err(MphpcError::Serve("candidate broke".to_string()))
        }
    }

    fn wait_for_rows(slot: &ShadowSlot, rows: u64) -> ShadowReport {
        let t0 = Instant::now();
        loop {
            let snap = slot.snapshot().expect("shadow attached");
            if snap.rows + snap.errors >= rows {
                return snap;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "shadow worker stuck");
            thread::yield_now();
        }
    }

    #[test]
    fn accumulates_divergence_against_live_outputs() {
        let slot = ShadowSlot::new();
        assert!(!slot.wants("m"));
        assert!(slot.attach("m", Arc::new(OffsetModel(0.5))).is_none());
        assert!(slot.wants("m"));
        assert!(!slot.wants("other"));
        // Live outputs equal the rows (an OffsetModel(0.0) in spirit):
        // divergence is exactly the candidate's offset.
        slot.mirror(
            "m",
            MirrorBatch {
                rows: vec![1.0, 2.0, 3.0, 4.0],
                live_outputs: vec![1.0, 2.0, 3.0, 4.0],
                n_rows: 2,
            },
        );
        let snap = wait_for_rows(&slot, 2);
        assert_eq!(snap.rows, 2);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.mean_abs_divergence, vec![0.5, 0.5]);
        assert_eq!(snap.max_abs_divergence, 0.5);
        let (report, model) = slot.detach_for("m").expect("matching target");
        assert_eq!(report.rows, 2);
        assert_eq!(report.candidate_kind, "offset");
        assert_eq!(model.predict_batch(&[0.0], 1).unwrap(), [0.5]);
        assert!(!slot.wants("m"));
        assert!(slot.snapshot().is_none());
    }

    #[test]
    fn candidate_failures_are_counted_not_propagated() {
        let slot = ShadowSlot::new();
        slot.attach("m", Arc::new(FailModel));
        slot.mirror(
            "m",
            MirrorBatch {
                rows: vec![1.0, 2.0],
                live_outputs: vec![1.0, 2.0],
                n_rows: 1,
            },
        );
        let snap = wait_for_rows(&slot, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.rows, 0);
    }

    #[test]
    fn mismatched_target_is_ignored_and_detach_for_is_selective() {
        let slot = ShadowSlot::new();
        slot.attach("m", Arc::new(OffsetModel(1.0)));
        slot.mirror(
            "other",
            MirrorBatch {
                rows: vec![0.0, 0.0],
                live_outputs: vec![0.0, 0.0],
                n_rows: 1,
            },
        );
        assert!(
            slot.detach_for("other").is_none(),
            "wrong target must not detach"
        );
        let snap = slot.snapshot().unwrap();
        assert_eq!(snap.rows + snap.errors + snap.dropped_rows, 0);
        // Re-attach replaces and returns the old report.
        let old = slot.attach("m2", Arc::new(OffsetModel(2.0))).unwrap();
        assert_eq!(old.target, "m");
        assert!(slot.wants("m2"));
        assert!(slot.detach_for("m2").is_some());
    }
}
