//! The micro-batching queue: concurrent submissions of *n* rows each
//! coalesce into one batch call on the model.
//!
//! A submission is one `/predict` request: one row for the `features`
//! form, up to `max_batch` rows for the `rows` form. The event loop
//! hands each to [`MicroBatcher::submit_with`] ([`MicroBatcher::submit`]
//! is the same call with a channel for a sink); a single batcher
//! thread drains the queue in same-model batches of up to `max_batch`
//! rows, never splitting a submission across two batches. Under load
//! the queue is never empty — while one batch predicts, the next
//! accumulates — so batching emerges without waiting, and the batcher
//! never holds a batch open for more rows: with closed-loop clients a
//! fixed linger would cap throughput at `clients / linger` whenever the
//! queue cannot reach `max_batch`.
//!
//! Every pending submission carries the `Arc<LoadedModel>` it resolved
//! at enqueue time, so a hot swap mid-queue splits the queue into
//! per-version batches instead of mixing versions (the batcher groups
//! by `Arc::ptr_eq`), and every row of one submission is answered by
//! one version.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mphpc_errors::MphpcError;

use crate::registry::LoadedModel;
use crate::shadow::{MirrorBatch, ShadowSlot};

/// Batcher tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most rows handed to one `predict_batch` call, and so the most
    /// rows one submission may carry ([`SubmitError::TooManyRows`] →
    /// HTTP 400): a submission is never split.
    pub max_batch: usize,
    /// Bound on queued *rows*, however they are grouped into
    /// submissions; a submission whose rows do not all fit is rejected
    /// whole ([`SubmitError::QueueFull`] → HTTP 503).
    pub queue_cap: usize,
    /// Maximum time a submission may wait in the queue before it is
    /// answered with [`BatchReply::Expired`] (→ HTTP 504) instead of
    /// predicted.
    pub deadline: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            max_batch: 64,
            queue_cap: 1024,
            deadline: Duration::from_secs(2),
        }
    }
}

/// Why a submission was rejected without being queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The rows would take the pending queue past `queue_cap`
    /// (backpressure).
    QueueFull,
    /// More rows than one batch (`max_batch`) may hold.
    TooManyRows,
    /// The batcher is draining for shutdown.
    ShuttingDown,
}

/// Terminal answer for one submission (all of its rows at once).
#[derive(Debug)]
pub enum BatchReply {
    /// The model ran; `outputs` has `n_outputs()` values per submitted
    /// row, row-major.
    Ok {
        /// The submission's outputs.
        outputs: Vec<f64>,
        /// `name@vN` tag of the exact model version that predicted.
        model_tag: String,
        /// Rows in the batch the submission rode in, its own included
        /// (observability: the load generator verifies coalescing
        /// through it).
        batch_rows: usize,
    },
    /// The submission out-waited its deadline in the queue.
    Expired,
    /// The model's `predict_batch` failed.
    Failed(MphpcError),
}

/// Receives batcher completions without a blocked thread: the event
/// loop registers one sink per shard, the batcher calls
/// [`CompletionSink::complete`] with the caller's ticket once per
/// submission (from the batcher thread), and the sink wakes its
/// shard. Implementations must be nonblocking and panic-free — the
/// batcher thread is shared by every connection.
pub trait CompletionSink: Send + Sync + 'static {
    /// Deliver the terminal reply for the submission made with `ticket`.
    fn complete(&self, ticket: u64, reply: BatchReply);
}

/// The sink behind [`MicroBatcher::submit`]: the reply goes down the
/// channel, to a receiver that may have gone away.
struct ChannelSink(Sender<BatchReply>);

impl CompletionSink for ChannelSink {
    fn complete(&self, _ticket: u64, reply: BatchReply) {
        let _ = self.0.send(reply);
    }
}

struct Pending {
    model: Arc<LoadedModel>,
    /// `n_rows` feature rows, row-major.
    rows: Vec<f64>,
    n_rows: usize,
    enqueued: Instant,
    sink: Arc<dyn CompletionSink>,
    ticket: u64,
}

#[derive(Default)]
struct Queue {
    entries: VecDeque<Pending>,
    /// Sum of `n_rows` over `entries`: what `queue_cap` bounds.
    rows: usize,
}

struct Shared {
    cfg: BatchConfig,
    queue: Mutex<Queue>,
    /// Signalled on enqueue and on drain start.
    available: Condvar,
    draining: AtomicBool,
    /// Shadow-evaluation tap: completed batches are mirrored here
    /// *after* reply delivery (see [`crate::shadow`]).
    shadow: ShadowSlot,
}

/// Handle to the batcher thread. Dropping it drains the queue and joins
/// the thread.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl MicroBatcher {
    /// Spawn the batcher thread.
    pub fn start(cfg: BatchConfig) -> MicroBatcher {
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            shadow: ShadowSlot::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("mphpc-batcher".to_string())
            .spawn(move || run_batcher(&worker_shared))
            .expect("spawning the batcher thread");
        MicroBatcher {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Queue one row against `model`. On success the returned channel
    /// eventually yields exactly one [`BatchReply`].
    pub fn submit(
        &self,
        model: Arc<LoadedModel>,
        row: Vec<f64>,
    ) -> Result<Receiver<BatchReply>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(model, row, 1, Arc::new(ChannelSink(tx)), 0)?;
        Ok(rx)
    }

    /// Queue `n_rows >= 1` rows (row-major in `rows`) against `model`
    /// as one submission; the one reply for all of them arrives through
    /// `sink.complete(ticket, ..)`, from the batcher thread. The rows
    /// are admitted or rejected together and predicted in one batch; on
    /// `Err` the sink is never called.
    pub fn submit_with(
        &self,
        model: Arc<LoadedModel>,
        rows: Vec<f64>,
        n_rows: usize,
        sink: Arc<dyn CompletionSink>,
        ticket: u64,
    ) -> Result<(), SubmitError> {
        let cfg = &self.shared.cfg;
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        if n_rows > cfg.max_batch {
            return Err(SubmitError::TooManyRows);
        }
        let mut queue = lock(&self.shared.queue);
        if queue.rows + n_rows > cfg.queue_cap {
            mphpc_telemetry::counter_add("serve.queue_rejections", 1);
            return Err(SubmitError::QueueFull);
        }
        queue.rows += n_rows;
        queue.entries.push_back(Pending {
            model,
            rows,
            n_rows,
            enqueued: Instant::now(),
            sink,
            ticket,
        });
        mphpc_telemetry::gauge_set("serve.queue_depth", queue.rows as f64);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Rows currently queued (for tests and stats).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).rows
    }

    /// The configured per-batch (and so per-submission) row limit.
    pub fn max_batch(&self) -> usize {
        self.shared.cfg.max_batch
    }

    /// The shadow-evaluation slot (see [`crate::shadow`]).
    pub fn shadow(&self) -> &ShadowSlot {
        &self.shared.shadow
    }

    /// Stop accepting, let the batcher drain every queued submission,
    /// and join it. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.available.notify_all();
        if let Some(worker) = lock(&self.worker).take() {
            let _ = worker.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn run_batcher(shared: &Shared) {
    let cfg = shared.cfg;
    loop {
        let mut queue = lock(&shared.queue);
        while queue.entries.is_empty() {
            if shared.draining.load(Ordering::Acquire) {
                return;
            }
            // Periodic wake so a drain requested between the load and
            // the wait cannot strand the thread.
            let (q, _) = shared
                .available
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner());
            queue = q;
        }

        // Assemble one same-model batch from the front of the queue:
        // the oldest submission picks the model, later ones for the
        // same version join whole (hot swap splits the queue here)
        // until the next would take the batch past `max_batch` rows.
        let first = queue.entries.pop_front().expect("non-empty queue");
        let model = Arc::clone(&first.model);
        let mut batch_rows = first.n_rows;
        let mut batch = vec![first];
        let mut i = 0;
        while i < queue.entries.len() {
            let next = &queue.entries[i];
            if !Arc::ptr_eq(&next.model, &model) {
                i += 1;
            } else if batch_rows + next.n_rows <= cfg.max_batch {
                batch_rows += next.n_rows;
                batch.push(queue.entries.remove(i).expect("index in bounds"));
            } else {
                break;
            }
        }
        queue.rows -= batch_rows;
        mphpc_telemetry::gauge_set("serve.queue_depth", queue.rows as f64);
        drop(queue);

        run_one_batch(&model, batch, cfg.deadline, &shared.shadow);
    }
}

fn run_one_batch(
    model: &LoadedModel,
    batch: Vec<Pending>,
    deadline: Duration,
    shadow: &ShadowSlot,
) {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for pending in batch {
        if now.duration_since(pending.enqueued) > deadline {
            mphpc_telemetry::counter_add("serve.expired", 1);
            pending.sink.complete(pending.ticket, BatchReply::Expired);
        } else {
            live.push(pending);
        }
    }
    if live.is_empty() {
        return;
    }

    let n_rows: usize = live.iter().map(|p| p.n_rows).sum();
    let n_features = model.model.n_features();
    let n_outputs = model.model.n_outputs();
    let mut rows = Vec::with_capacity(n_rows * n_features);
    for pending in &live {
        rows.extend_from_slice(&pending.rows);
    }

    let _span = mphpc_telemetry::span!("serve.batch", rows = n_rows);
    mphpc_telemetry::counter_add("serve.batches", 1);
    mphpc_telemetry::counter_add("serve.rows", n_rows as u64);
    mphpc_telemetry::histogram_record("serve.batch_rows", n_rows as f64);

    let predicted = model
        .model
        .predict_batch(&rows, n_rows)
        .and_then(|outputs| {
            if outputs.len() == n_rows * n_outputs {
                return Ok(outputs);
            }
            Err(MphpcError::Serve(format!(
                "model '{}' returned {} outputs for {} rows x {} outputs",
                model.tag(),
                outputs.len(),
                n_rows,
                n_outputs
            )))
        });
    match predicted {
        Ok(outputs) => {
            let tag = model.tag();
            let mut at = 0;
            for pending in live {
                let end = at + pending.n_rows * n_outputs;
                pending.sink.complete(
                    pending.ticket,
                    BatchReply::Ok {
                        outputs: outputs[at..end].to_vec(),
                        model_tag: tag.clone(),
                        batch_rows: n_rows,
                    },
                );
                at = end;
            }
            // Shadow tap, strictly after every reply is delivered: the
            // buffers are moved (not copied) to the mirror queue, so
            // the live path's work per batch is unchanged.
            if shadow.wants(&model.name) {
                shadow.mirror(
                    &model.name,
                    MirrorBatch {
                        rows,
                        live_outputs: outputs,
                        n_rows,
                    },
                );
            }
        }
        Err(e) => {
            for pending in live {
                pending
                    .sink
                    .complete(pending.ticket, BatchReply::Failed(e.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictModel;

    /// Doubles every feature; one output per feature.
    struct DoubleModel;

    impl PredictModel for DoubleModel {
        fn n_features(&self) -> usize {
            2
        }
        fn n_outputs(&self) -> usize {
            2
        }
        fn predict_batch(&self, rows: &[f64], _n_rows: usize) -> Result<Vec<f64>, MphpcError> {
            Ok(rows.iter().map(|x| x * 2.0).collect())
        }
    }

    fn loaded(version: u64) -> Arc<LoadedModel> {
        Arc::new(LoadedModel {
            name: "m".to_string(),
            version,
            model: Arc::new(DoubleModel),
        })
    }

    #[test]
    fn single_submission_round_trips() {
        let batcher = MicroBatcher::start(BatchConfig::default());
        let rx = batcher.submit(loaded(1), vec![1.5, -3.0]).unwrap();
        match rx.recv().unwrap() {
            BatchReply::Ok {
                outputs,
                model_tag,
                batch_rows,
            } => {
                assert_eq!(outputs, [3.0, -6.0]);
                assert_eq!(model_tag, "m@v1");
                assert!(batch_rows >= 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// [`DoubleModel`] that waits for the gate before every batch (a
    /// dropped sender opens it for good).
    struct GatedDouble(Mutex<Receiver<()>>);

    impl PredictModel for GatedDouble {
        fn n_features(&self) -> usize {
            2
        }
        fn n_outputs(&self) -> usize {
            2
        }
        fn predict_batch(&self, rows: &[f64], n_rows: usize) -> Result<Vec<f64>, MphpcError> {
            let _ = self.0.lock().unwrap().recv();
            DoubleModel.predict_batch(rows, n_rows)
        }
    }

    /// A batcher whose thread sits inside a model call until the gate is
    /// dropped, so what a test submits meanwhile queues up untouched.
    /// Also the receiver of the one-row submission that put it there.
    fn parked_batcher(cfg: BatchConfig) -> (MicroBatcher, Sender<()>, Receiver<BatchReply>) {
        let batcher = MicroBatcher::start(cfg);
        let (gate, gate_rx) = mpsc::channel();
        let gated = Arc::new(LoadedModel {
            name: "gated".to_string(),
            version: 1,
            model: Arc::new(GatedDouble(Mutex::new(gate_rx))),
        });
        let blocker = batcher.submit(gated, vec![0.0, 0.0]).unwrap();
        while batcher.queue_depth() > 0 {
            thread::yield_now();
        }
        (batcher, gate, blocker)
    }

    #[test]
    fn hot_swapped_models_never_share_a_batch() {
        let (batcher, gate, _blocker) = parked_batcher(BatchConfig::default());
        let v1 = loaded(1);
        let v2 = loaded(2);
        let rx_a = batcher.submit(Arc::clone(&v1), vec![1.0, 1.0]).unwrap();
        let rx_b = batcher.submit(Arc::clone(&v2), vec![2.0, 2.0]).unwrap();
        let rx_c = batcher.submit(Arc::clone(&v1), vec![3.0, 3.0]).unwrap();
        drop(gate);
        for (rx, want_tag, want_rows) in [(rx_a, "m@v1", 2), (rx_b, "m@v2", 1), (rx_c, "m@v1", 2)] {
            match rx.recv().unwrap() {
                BatchReply::Ok {
                    model_tag,
                    batch_rows,
                    ..
                } => {
                    assert_eq!(model_tag, want_tag);
                    assert_eq!(batch_rows, want_rows);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn queue_cap_rejects_and_drains() {
        let (batcher, gate, _blocker) = parked_batcher(BatchConfig {
            queue_cap: 2,
            ..BatchConfig::default()
        });
        let model = loaded(1);
        let rx1 = batcher.submit(Arc::clone(&model), vec![0.0, 0.0]).unwrap();
        let rx2 = batcher.submit(Arc::clone(&model), vec![0.0, 0.0]).unwrap();
        let err = batcher
            .submit(Arc::clone(&model), vec![0.0, 0.0])
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        drop(gate);
        assert!(matches!(rx1.recv().unwrap(), BatchReply::Ok { .. }));
        assert!(matches!(rx2.recv().unwrap(), BatchReply::Ok { .. }));
        batcher.shutdown();
        assert_eq!(batcher.queue_depth(), 0);
        assert_eq!(
            batcher.submit(model, vec![0.0, 0.0]).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn multi_row_submissions_are_admitted_whole_and_never_split() {
        let (batcher, gate, _blocker) = parked_batcher(BatchConfig {
            max_batch: 4,
            queue_cap: 6,
            ..BatchConfig::default()
        });
        let model = loaded(1);
        let submit = |first: f64, n_rows: usize| {
            let rows: Vec<f64> = (0..2 * n_rows).map(|i| first + i as f64).collect();
            let (tx, rx) = mpsc::channel();
            batcher
                .submit_with(
                    Arc::clone(&model),
                    rows,
                    n_rows,
                    Arc::new(ChannelSink(tx)),
                    0,
                )
                .map(|()| rx)
        };
        let a = submit(10.0, 2).unwrap();
        let b = submit(20.0, 2).unwrap();
        let c = submit(30.0, 1).unwrap();
        assert_eq!(batcher.queue_depth(), 5, "the depth counts rows");
        // 5 + 2 rows do not fit 6: the submission is refused whole; one
        // more row still fits.
        assert_eq!(submit(40.0, 2).unwrap_err(), SubmitError::QueueFull);
        let d = submit(50.0, 1).unwrap();
        assert_eq!(batcher.queue_depth(), 6);
        assert_eq!(submit(60.0, 1).unwrap_err(), SubmitError::QueueFull);
        // More rows than a batch holds are refused whatever the queue.
        assert_eq!(submit(70.0, 5).unwrap_err(), SubmitError::TooManyRows);

        drop(gate);
        let mut replies = Vec::new();
        for (rx, first, n_rows) in [(a, 10.0, 2), (b, 20.0, 2), (c, 30.0, 1), (d, 50.0, 1)] {
            match rx.recv().unwrap() {
                BatchReply::Ok {
                    outputs,
                    batch_rows,
                    ..
                } => {
                    let want: Vec<f64> =
                        (0..2 * n_rows).map(|i| 2.0 * (first + i as f64)).collect();
                    assert_eq!(outputs, want, "submission starting at {first}");
                    replies.push(batch_rows);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        // a + b fill a batch exactly; c would make it five rows, so it
        // waits for the next one and rides with d.
        assert_eq!(replies, [4, 4, 2, 2]);
    }

    #[test]
    fn sink_submissions_complete_with_their_ticket() {
        struct Collect(Mutex<Vec<(u64, BatchReply)>>, Condvar);
        impl CompletionSink for Collect {
            fn complete(&self, ticket: u64, reply: BatchReply) {
                self.0.lock().unwrap().push((ticket, reply));
                self.1.notify_all();
            }
        }
        let sink = Arc::new(Collect(Mutex::new(Vec::new()), Condvar::new()));
        let as_sink: Arc<dyn CompletionSink> = Arc::clone(&sink) as _;
        let batcher = MicroBatcher::start(BatchConfig::default());
        let model = loaded(3);
        batcher
            .submit_with(
                Arc::clone(&model),
                vec![1.0, 2.0],
                1,
                Arc::clone(&as_sink),
                41,
            )
            .unwrap();
        batcher
            .submit_with(
                Arc::clone(&model),
                vec![3.0, 4.0, 5.0, 6.0],
                2,
                Arc::clone(&as_sink),
                42,
            )
            .unwrap();
        let mut got = sink.0.lock().unwrap();
        while got.len() < 2 {
            let (g, timed_out) = sink
                .1
                .wait_timeout(got, Duration::from_secs(5))
                .map(|(g, t)| (g, t.timed_out()))
                .unwrap();
            got = g;
            assert!(!timed_out, "sink completions never arrived");
        }
        got.sort_by_key(|(t, _)| *t);
        match (&got[0], &got[1]) {
            (
                (
                    41,
                    BatchReply::Ok {
                        outputs: a,
                        model_tag,
                        ..
                    },
                ),
                (42, BatchReply::Ok { outputs: b, .. }),
            ) => {
                assert_eq!(a, &[2.0, 4.0]);
                assert_eq!(b, &[6.0, 8.0, 10.0, 12.0], "both rows in one reply");
                assert_eq!(model_tag, "m@v3");
            }
            other => panic!("unexpected completions {other:?}"),
        }
        drop(got);
        // After a drain, sink submissions are refused without calling
        // the sink.
        batcher.shutdown();
        assert_eq!(
            batcher
                .submit_with(model, vec![0.0, 0.0], 1, as_sink, 43)
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        assert_eq!(sink.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn shutdown_drains_queued_rows() {
        let (batcher, gate, _blocker) = parked_batcher(BatchConfig::default());
        let rx = batcher.submit(loaded(1), vec![1.0, 2.0]).unwrap();
        thread::scope(|scope| {
            scope.spawn(|| batcher.shutdown());
            // The drain starts with the row still queued, and must
            // answer it all the same.
            while !batcher.shared.draining.load(Ordering::Acquire) {
                thread::yield_now();
            }
            drop(gate);
        });
        assert!(matches!(rx.recv().unwrap(), BatchReply::Ok { .. }));
    }
}
