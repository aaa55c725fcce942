//! The online-learning watch loop (DESIGN.md §16): streaming ingest →
//! warm-start retrain → shadow eval → canary promote → rollback.
//!
//! A [`Watcher`] tails an artifact store for shard results the fleet
//! publishes (`gen-N/shards/shard-XXXX`), folds them into an
//! append-only versioned dataset (committed atomically with the ingest
//! watermark — see `mphpc_storage::stream`), warm-starts a candidate
//! predictor from the live one on the grown data, and walks the
//! candidate through a three-stage promotion gate against a running
//! `mphpc serve` instance:
//!
//! 1. **Holdout gate** — per-output R² on a rolling holdout (a
//!    deterministic stride sample across the grown dataset) must not
//!    regress by more than [`WatchConfig::epsilon`] on *any* RPV
//!    output.
//! 2. **Shadow gate** — the candidate is attached as a shadow
//!    (`POST /shadow/<name>`) and scored on mirrored live traffic; it
//!    must survive [`WatchConfig::min_shadow_rows`] mirrored rows (or
//!    the shadow-wait deadline) with zero scoring errors.
//! 3. **Canary window** — after `POST /promote/<name>` installs the
//!    shadowed candidate, the watcher polls `GET /stats` for
//!    [`WatchConfig::rollback_window`]; a spike of `failed + expired`
//!    responses triggers `POST /rollback/<name>` and restores the
//!    previous predictor locally.
//!
//! A [`DriftDetector`] rides on the ingest
//! stream (normalised features of every ingested row, plus serving
//! error deltas) and forces a retrain even when fewer than
//! [`WatchConfig::min_new_rows`] rows have arrived.
//!
//! Everything the watcher needs to resume after `kill -9` lives in the
//! store: the watermark and dataset advance together in one committed
//! version, and the last promoted model is persisted under
//! [`MODEL_KEY`] after every promotion or rollback.

use crate::drift::{DriftConfig, DriftDetector, DriftReference};
use crate::predictor::PerfPredictor;
use mphpc_dataset::MpHpcDataset;
use mphpc_errors::{MphpcError, ResultExt};
use mphpc_frame::read_csv_str;
use mphpc_ml::{r2_per_output, Matrix, Regressor};
use mphpc_serve::client::request_once;
use mphpc_serve::json::JsonValue;
use mphpc_storage::{stream, Storage};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Store key of the last promoted model (JSON), for restart resume.
pub const MODEL_KEY: &str = "watch/model.json";

/// Tuning for the watch loop. The defaults suit the integration tests
/// and the CI smoke run; a production deployment would stretch the
/// waits and windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchConfig {
    /// Address of the serving instance (`host:port`).
    pub addr: String,
    /// Served model name to shadow and promote (the registry key).
    pub model: String,
    /// Target size of the rolling holdout (stride-sampled rows).
    pub holdout: usize,
    /// Allowed per-output R² regression before a candidate is refused.
    pub epsilon: f64,
    /// Extra boosting rounds / trees per warm-start retrain.
    pub extra: usize,
    /// Ingested rows required before a retrain is attempted (drift
    /// firing overrides this).
    pub min_new_rows: usize,
    /// Mirrored rows the shadow must score before promotion.
    pub min_shadow_rows: u64,
    /// How long to wait for the shadow to see enough traffic.
    pub shadow_wait: Duration,
    /// Poll interval while waiting on the shadow.
    pub shadow_poll: Duration,
    /// Post-promote observation window.
    pub rollback_window: Duration,
    /// Poll interval inside the rollback window.
    pub rollback_poll: Duration,
    /// `failed + expired` responses inside the window that trigger a
    /// rollback.
    pub rollback_errors: u64,
    /// Dataset versions retained behind the current one.
    pub keep_versions: u64,
    /// Drift-detector window (rows per evaluation).
    pub drift_window: usize,
    /// Timeout for each HTTP request to the server.
    pub io_timeout: Duration,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            addr: "127.0.0.1:8077".to_string(),
            model: "default".to_string(),
            holdout: 48,
            epsilon: 0.02,
            extra: 12,
            min_new_rows: 1,
            min_shadow_rows: 8,
            shadow_wait: Duration::from_secs(2),
            shadow_poll: Duration::from_millis(20),
            rollback_window: Duration::from_millis(500),
            rollback_poll: Duration::from_millis(25),
            rollback_errors: 1,
            keep_versions: 4,
            drift_window: 64,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// What one [`Watcher::tick`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum TickDecision {
    /// Nothing to do: no new rows and no drift trigger.
    Idle,
    /// Rows arrived but fewer than `min_new_rows`; they stay pending.
    Deferred {
        /// Rows accumulated towards the next retrain.
        pending_rows: usize,
    },
    /// A candidate was trained but not promoted.
    Refused {
        /// Human-readable gate verdict.
        reason: String,
    },
    /// The candidate was promoted and survived the canary window.
    Promoted {
        /// Registry version the candidate was installed as.
        version: u64,
        /// Mirrored rows the shadow scored before promotion.
        shadow_rows: u64,
    },
    /// The candidate was promoted, then rolled back on an error spike.
    RolledBack {
        /// Version the candidate was installed as.
        promoted: u64,
        /// Version the rollback installed.
        restored: u64,
        /// `failed + expired` responses observed inside the window.
        errors: u64,
    },
}

/// Outcome of one [`Watcher::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// 1-based tick counter.
    pub tick: u64,
    /// Shard results folded into the dataset this tick.
    pub ingested_shards: usize,
    /// Shard results skipped as structurally invalid (marked seen so
    /// they are never retried).
    pub quarantined_shards: usize,
    /// Dataset rows added this tick.
    pub new_rows: usize,
    /// Dataset version committed this tick, if any.
    pub dataset_version: Option<u64>,
    /// True when the drift detector fired on this tick's rows.
    pub drift_fired: bool,
    /// The promotion decision.
    pub decision: TickDecision,
}

/// The watch daemon state: current predictor, ingest watermark, parsed
/// dataset, and the drift detector.
pub struct Watcher<'a> {
    store: &'a dyn Storage,
    cfg: WatchConfig,
    current: PerfPredictor,
    previous: Option<PerfPredictor>,
    dataset: Option<MpHpcDataset>,
    dataset_text: String,
    watermark: BTreeSet<String>,
    drift: Option<DriftDetector>,
    last_error_total: Option<u64>,
    rows_since_retrain: usize,
    ticks: u64,
}

impl<'a> Watcher<'a> {
    /// Build a watcher over `store`, serving decisions to
    /// `cfg.addr`. `base` seeds the live predictor; a model previously
    /// promoted by a watcher on this store ([`MODEL_KEY`]) takes
    /// precedence, so a restarted daemon resumes from its own last
    /// promotion.
    pub fn new(
        store: &'a dyn Storage,
        cfg: WatchConfig,
        base: PerfPredictor,
    ) -> Result<Watcher<'a>, MphpcError> {
        let current = match store.get(MODEL_KEY)? {
            Some(bytes) => {
                let json = String::from_utf8(bytes)
                    .map_err(|_| MphpcError::Storage("stored watch model is not utf-8".into()))?;
                PerfPredictor::from_json(&json).context("resuming the last promoted watch model")?
            }
            None => base,
        };
        let watermark = stream::load_watermark(store)?;
        let (dataset_text, dataset) = match stream::load_current_dataset(store)? {
            Some((_, bytes)) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| MphpcError::Storage("stored dataset is not utf-8".into()))?;
                let ds = parse_dataset(&text).context("parsing the committed watch dataset")?;
                (text, Some(ds))
            }
            None => (String::new(), None),
        };
        let mut watcher = Watcher {
            store,
            cfg,
            current,
            previous: None,
            dataset,
            dataset_text,
            watermark,
            drift: None,
            last_error_total: None,
            rows_since_retrain: 0,
            ticks: 0,
        };
        watcher.ensure_drift_reference()?;
        Ok(watcher)
    }

    /// The predictor the watcher currently believes is live.
    pub fn current(&self) -> &PerfPredictor {
        &self.current
    }

    /// Rows in the committed dataset.
    pub fn dataset_rows(&self) -> usize {
        self.dataset.as_ref().map_or(0, MpHpcDataset::n_rows)
    }

    /// Shard keys already folded in.
    pub fn watermark(&self) -> &BTreeSet<String> {
        &self.watermark
    }

    /// One full cycle: poll serving errors, ingest fresh shards, feed
    /// the drift detector, and (when warranted) retrain and walk the
    /// candidate through the promotion gates.
    pub fn tick(&mut self) -> Result<TickReport, MphpcError> {
        self.ticks += 1;
        mphpc_telemetry::counter_add("watch.ticks", 1);
        let mut report = TickReport {
            tick: self.ticks,
            ingested_shards: 0,
            quarantined_shards: 0,
            new_rows: 0,
            dataset_version: None,
            drift_fired: false,
            decision: TickDecision::Idle,
        };

        // Serving error delta since the last look, for the drift
        // detector's error channel. Best-effort: the watcher keeps
        // ingesting while the server is down.
        let error_delta = self.poll_serving_errors();

        let row_before = self.dataset_rows();
        self.ingest(&mut report)?;
        report.drift_fired = self.feed_drift(row_before, error_delta)?;
        self.rows_since_retrain += report.new_rows;

        if self.rows_since_retrain == 0 && !report.drift_fired {
            return Ok(report);
        }
        if self.rows_since_retrain < self.cfg.min_new_rows && !report.drift_fired {
            report.decision = TickDecision::Deferred {
                pending_rows: self.rows_since_retrain,
            };
            return Ok(report);
        }
        let Some(dataset) = self.dataset.as_ref() else {
            // Drift (error channel) fired before any data arrived.
            return Ok(report);
        };
        if dataset.n_rows() < 8 {
            report.decision = TickDecision::Deferred {
                pending_rows: self.rows_since_retrain,
            };
            return Ok(report);
        }

        mphpc_telemetry::counter_add("watch.retrains", 1);
        let (decision, consumed) = self.retrain_and_gate()?;
        if consumed {
            self.rows_since_retrain = 0;
        }
        match &decision {
            TickDecision::Promoted { .. } => mphpc_telemetry::counter_add("watch.promotions", 1),
            TickDecision::RolledBack { .. } => mphpc_telemetry::counter_add("watch.rollbacks", 1),
            TickDecision::Refused { .. } => mphpc_telemetry::counter_add("watch.refusals", 1),
            _ => {}
        }
        report.decision = decision;
        Ok(report)
    }

    /// Run the loop: `ticks` cycles (`None` = forever), sleeping `poll`
    /// between cycles. `on_tick` observes every outcome; transient tick
    /// errors are reported there and only abort the loop after five
    /// consecutive failures.
    pub fn run(
        &mut self,
        ticks: Option<u64>,
        poll: Duration,
        mut on_tick: impl FnMut(Result<&TickReport, &MphpcError>),
    ) -> Result<(), MphpcError> {
        let mut failures = 0u32;
        let mut done = 0u64;
        loop {
            match self.tick() {
                Ok(report) => {
                    failures = 0;
                    on_tick(Ok(&report));
                }
                Err(e) => {
                    failures += 1;
                    on_tick(Err(&e));
                    if failures >= 5 {
                        return Err(e).context("watch loop failed five consecutive ticks");
                    }
                }
            }
            done += 1;
            if ticks.is_some_and(|t| done >= t) {
                return Ok(());
            }
            std::thread::sleep(poll);
        }
    }

    /// Fold unseen shard results into the dataset and commit the grown
    /// version together with the advanced watermark. Structurally
    /// invalid shards are quarantined: marked seen (so they are never
    /// retried) without contributing rows.
    fn ingest(&mut self, report: &mut TickReport) -> Result<(), MphpcError> {
        let fresh = stream::unseen_shards(self.store, &self.watermark)?;
        if fresh.is_empty() {
            return Ok(());
        }
        let mut header: Option<String> = self
            .dataset_text
            .split_once('\n')
            .map(|(head, _)| head.to_string());
        let mut grown = self.dataset_text.clone();
        let mut new_rows = 0usize;
        for key in &fresh {
            let raw = self
                .store
                .get(key)?
                .ok_or_else(|| MphpcError::Storage(format!("shard {key} vanished mid-ingest")))?;
            match validate_shard(&raw, header.as_deref()) {
                Ok((head, body, rows)) => {
                    if header.is_none() {
                        grown.push_str(&head);
                        grown.push('\n');
                        header = Some(head);
                    }
                    grown.push_str(&body);
                    new_rows += rows;
                    report.ingested_shards += 1;
                    mphpc_telemetry::counter_add("watch.shards_ingested", 1);
                }
                Err(_) => {
                    report.quarantined_shards += 1;
                    mphpc_telemetry::counter_add("watch.shards_quarantined", 1);
                }
            }
            // Seen either way: a quarantined shard must not wedge the
            // loop by being re-examined forever.
            self.watermark.insert(key.clone());
        }
        let dataset = if new_rows > 0 {
            Some(parse_dataset(&grown).context("validating the grown watch dataset")?)
        } else {
            None
        };
        let version = stream::commit_ingest(self.store, grown.as_bytes(), &self.watermark)?;
        stream::prune_dataset_versions(self.store, self.cfg.keep_versions)?;
        mphpc_telemetry::counter_add("watch.rows_ingested", new_rows as u64);
        self.dataset_text = grown;
        if let Some(ds) = dataset {
            self.dataset = Some(ds);
        }
        report.new_rows = new_rows;
        report.dataset_version = Some(version);
        Ok(())
    }

    /// Fit the drift reference once the dataset is large enough.
    fn ensure_drift_reference(&mut self) -> Result<(), MphpcError> {
        if self.drift.is_some() {
            return Ok(());
        }
        let Some(dataset) = self.dataset.as_ref() else {
            return Ok(());
        };
        if dataset.n_rows() < crate::drift::BUCKETS {
            return Ok(());
        }
        let ml = dataset.to_ml(&dataset.all_rows(), self.current.normalizer())?;
        let reference = DriftReference::fit(&ml.x).context("fitting the drift reference")?;
        let config = DriftConfig {
            window: self.cfg.drift_window,
            ..DriftConfig::default()
        };
        self.drift = Some(DriftDetector::new(reference, config)?);
        Ok(())
    }

    /// Stream this tick's ingested rows (normalised features) and the
    /// serving-error delta through the drift detector.
    fn feed_drift(
        &mut self,
        start_row: usize,
        error_delta: Option<u64>,
    ) -> Result<bool, MphpcError> {
        self.ensure_drift_reference()?;
        let Some(detector) = self.drift.as_mut() else {
            return Ok(false);
        };
        if let Some(errors) = error_delta {
            detector.note_serving_errors(errors);
        }
        let Some(dataset) = self.dataset.as_ref() else {
            return Ok(false);
        };
        let end = dataset.n_rows();
        if start_row >= end {
            return Ok(false);
        }
        let rows: Vec<usize> = (start_row..end).collect();
        let ml = dataset.to_ml(&rows, self.current.normalizer())?;
        let mut fired = false;
        let mut row = vec![0.0; ml.x.cols()];
        for i in 0..ml.x.rows() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = ml.x.get(i, j);
            }
            if let Some(report) = detector.push_row(&row)? {
                if report.drifted() {
                    fired = true;
                    mphpc_telemetry::counter_add("watch.drift_fired", 1);
                }
            }
        }
        Ok(fired)
    }

    /// Warm-start a candidate on the grown dataset and walk it through
    /// the three gates. Returns the decision plus whether the pending
    /// rows were consumed (transport failures keep them pending so the
    /// retrain is retried when the server comes back).
    fn retrain_and_gate(&mut self) -> Result<(TickDecision, bool), MphpcError> {
        let dataset = self.dataset.as_ref().expect("caller checked");
        let n = dataset.n_rows();
        let (train_rows, holdout_rows) = rolling_split(n, self.cfg.holdout);
        let normalizer = self.current.normalizer();
        let train = dataset.to_ml(&train_rows, normalizer)?;
        let model = self
            .current
            .model()
            .warm_start(&train, self.cfg.extra)
            .context("warm-start retraining the watch candidate")?;
        let candidate = PerfPredictor::new(model, normalizer.clone());

        // Gate 1: rolling-holdout per-output R².
        if holdout_rows.len() >= 8 {
            let hold = dataset.to_ml(&holdout_rows, normalizer)?;
            let live_r2 = r2_per_output(&self.current.model().predict(&hold.x)?, &hold.y)?;
            let cand_r2 = r2_per_output(&candidate.model().predict(&hold.x)?, &hold.y)?;
            for (output, (cand, live)) in cand_r2.iter().zip(&live_r2).enumerate() {
                if *cand < live - self.cfg.epsilon {
                    return Ok((
                        TickDecision::Refused {
                            reason: format!(
                                "holdout R² regressed on output {output}: \
                                 candidate {cand:.4} < live {live:.4} - {:.4} \
                                 ({} holdout rows)",
                                self.cfg.epsilon,
                                holdout_rows.len()
                            ),
                        },
                        true,
                    ));
                }
            }
        }
        self.shadow_and_promote(candidate)
    }

    /// Gates 2 and 3: shadow eval on mirrored traffic, canary promote,
    /// and the post-promote rollback window.
    fn shadow_and_promote(
        &mut self,
        candidate: PerfPredictor,
    ) -> Result<(TickDecision, bool), MphpcError> {
        // `settled`: the pending rows were judged; `false` keeps them for
        // the next tick (the server could not be asked, or not understood).
        let refused = |reason, settled| Ok((TickDecision::Refused { reason }, settled));
        let name = self.cfg.model.clone();
        let json = candidate.to_json()?;
        let attach = match self.http("POST", &format!("/shadow/{name}"), &json) {
            Ok(reply) => reply,
            Err(e) => {
                // Transport failure: keep the rows pending and retry
                // next tick.
                return refused(format!("shadow attach unreachable: {e}"), false);
            }
        };
        if attach.0 != 200 {
            return refused(
                format!("shadow attach refused: {} {}", attach.0, attach.1),
                true,
            );
        }

        let deadline = Instant::now() + self.cfg.shadow_wait;
        let (mut rows, mut errors) = (0u64, 0u64);
        loop {
            if let Ok((200, body)) = self.http("GET", "/shadow", "") {
                match reply_counts(&body, [&["shadow", "rows"], &["shadow", "errors"]]) {
                    Ok(report) => [rows, errors] = report,
                    Err(e) => {
                        let _ = self.http("POST", &format!("/shadow/{name}/drop"), "");
                        return refused(format!("shadow report unreadable: {e}"), false);
                    }
                }
            }
            if errors > 0 || rows >= self.cfg.min_shadow_rows || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(self.cfg.shadow_poll);
        }
        if errors > 0 {
            let _ = self.http("POST", &format!("/shadow/{name}/drop"), "");
            return refused(
                format!("shadow scored {errors} error(s) over {rows} mirrored row(s)"),
                true,
            );
        }

        let promote = match self.http("POST", &format!("/promote/{name}"), "") {
            Ok(reply) => reply,
            Err(e) => {
                let _ = self.http("POST", &format!("/shadow/{name}/drop"), "");
                return refused(format!("promote unreachable: {e}"), false);
            }
        };
        if promote.0 != 200 {
            return refused(
                format!("promote refused: {} {}", promote.0, promote.1),
                true,
            );
        }
        let version = match reply_counts(&promote.1, [&["version"]]) {
            Ok([version]) => version,
            Err(e) => {
                return refused(format!("promote reply unreadable: {e}"), false);
            }
        };
        self.store.put_atomic(MODEL_KEY, json.as_bytes())?;
        self.previous = Some(std::mem::replace(&mut self.current, candidate));

        // Gate 3: the canary window.
        let baseline = self.read_error_total().unwrap_or(0);
        let deadline = Instant::now() + self.cfg.rollback_window;
        loop {
            std::thread::sleep(self.cfg.rollback_poll);
            let spike = self
                .read_error_total()
                .map(|total| total.saturating_sub(baseline))
                .unwrap_or(0);
            if spike >= self.cfg.rollback_errors {
                let restored = match self.http("POST", &format!("/rollback/{name}"), "") {
                    Ok((200, body)) => reply_counts(&body, [&["version"]])?[0],
                    Ok((status, body)) => {
                        return Err(MphpcError::Serve(format!(
                            "rollback of '{name}' failed: {status} {body}"
                        )))
                    }
                    Err(e) => return Err(e),
                };
                if let Some(prev) = self.previous.take() {
                    self.store
                        .put_atomic(MODEL_KEY, prev.to_json()?.as_bytes())?;
                    self.current = prev;
                }
                return Ok((
                    TickDecision::RolledBack {
                        promoted: version,
                        restored,
                        errors: spike,
                    },
                    true,
                ));
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        Ok((
            TickDecision::Promoted {
                version,
                shadow_rows: rows,
            },
            true,
        ))
    }

    /// `failed + expired` from `GET /stats`, best-effort.
    fn poll_serving_errors(&mut self) -> Option<u64> {
        let previous = self.last_error_total;
        let total = self.read_error_total().ok()?;
        Some(total.saturating_sub(previous.unwrap_or(total)))
    }

    fn read_error_total(&mut self) -> Result<u64, MphpcError> {
        let (status, body) = self.http("GET", "/stats", "")?;
        if status != 200 {
            return Err(MphpcError::Serve(format!("GET /stats returned {status}")));
        }
        let [failed, expired] = reply_counts(&body, [&["failed"], &["expired"]])?;
        let total = failed + expired;
        self.last_error_total = Some(total);
        Ok(total)
    }

    fn http(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), MphpcError> {
        let response = request_once(&self.cfg.addr, method, path, body, self.cfg.io_timeout)
            .map_err(|e| MphpcError::Serve(format!("{method} {path} on {}: {e}", self.cfg.addr)))?;
        Ok((response.status, response.text()))
    }
}

/// Deterministic rolling holdout: every `stride`-th row (the last of
/// each stride block) across the whole dataset, targeting `holdout`
/// rows. Spreading the holdout over old *and* new data means a
/// poisoned ingest batch degrades the candidate's score on the clean
/// majority instead of letting it grade itself on its own poison.
pub fn rolling_split(n: usize, holdout: usize) -> (Vec<usize>, Vec<usize>) {
    let stride = (n / holdout.max(1)).max(2);
    let mut train = Vec::with_capacity(n);
    let mut hold = Vec::with_capacity(n / stride + 1);
    for i in 0..n {
        if i % stride == stride - 1 {
            hold.push(i);
        } else {
            train.push(i);
        }
    }
    (train, hold)
}

/// Parse and validate a committed dataset CSV.
fn parse_dataset(text: &str) -> Result<MpHpcDataset, MphpcError> {
    MpHpcDataset::from_frame(read_csv_str(text)?)
}

/// Validate one shard result standalone: UTF-8, a header line agreeing
/// with the dataset's, a parseable MP-HPC table, and finite features
/// and targets. Returns `(header, body, rows)`.
fn validate_shard(
    raw: &[u8],
    expected_header: Option<&str>,
) -> Result<(String, String, usize), MphpcError> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| MphpcError::Storage("shard result is not utf-8".into()))?;
    let (head, body) = text
        .split_once('\n')
        .ok_or_else(|| MphpcError::Storage("shard result has no header line".into()))?;
    if expected_header.is_some_and(|h| h != head) {
        return Err(MphpcError::Storage(
            "shard header disagrees with the dataset header".into(),
        ));
    }
    let dataset = parse_dataset(text)?;
    let rows = dataset.n_rows();
    if rows == 0 {
        return Err(MphpcError::Storage("shard result has no rows".into()));
    }
    // Reject non-finite cells up front: one NaN target would otherwise
    // poison every later retrain.
    let ml = dataset.to_ml(&dataset.all_rows(), &mphpc_dataset::Normalizer::identity())?;
    if !matrix_is_finite(&ml.x) || !matrix_is_finite(&ml.y) {
        return Err(MphpcError::Storage(
            "shard result contains non-finite cells".into(),
        ));
    }
    Ok((head.to_string(), body.to_string(), rows))
}

fn matrix_is_finite(m: &Matrix) -> bool {
    (0..m.rows()).all(|i| (0..m.cols()).all(|j| m.get(i, j).is_finite()))
}

/// The counts under `paths` (member names, outermost first) in a server
/// reply. A reply that is not JSON, or has no unsigned integer there, is
/// an error like the transport failing: read as zero it would pass the
/// gate that asked.
fn reply_counts<const N: usize>(body: &str, paths: [&[&str]; N]) -> Result<[u64; N], MphpcError> {
    let reply = JsonValue::parse(body)?;
    let mut counts = [0; N];
    for (count, path) in counts.iter_mut().zip(paths) {
        *count = path
            .iter()
            .try_fold(&reply, |value, key| value.get(key))
            .and_then(JsonValue::as_f64)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| {
                MphpcError::Serve(format!("no count \"{}\" in reply {body}", path.join(".")))
            })? as u64;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{collect, train_predictor, CollectionConfig};
    use mphpc_ml::ModelKind;
    use mphpc_storage::LocalDirStorage;

    fn temp_store(tag: &str) -> LocalDirStorage {
        let dir = std::env::temp_dir().join(format!(
            "mphpc_watch_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        LocalDirStorage::open(dir).unwrap()
    }

    fn shard_csv(seed: u64) -> String {
        let dataset = collect(&CollectionConfig::small(2, 1, 1, seed)).unwrap();
        mphpc_frame::write_csv_string(&dataset.frame)
    }

    fn offline_cfg() -> WatchConfig {
        WatchConfig {
            // A port nothing listens on: transport failures must leave
            // the ingest side fully functional.
            addr: "127.0.0.1:9".to_string(),
            io_timeout: Duration::from_millis(200),
            shadow_wait: Duration::from_millis(50),
            rollback_window: Duration::from_millis(50),
            // Never reach the retrain stage: these tests exercise the
            // ingest/commit/quarantine side, which must work with no
            // server (and, in the offline harness, no serde). The
            // promotion gates are covered end-to-end by
            // tests/online_loop.rs.
            min_new_rows: usize::MAX,
            ..WatchConfig::default()
        }
    }

    fn base_predictor(seed: u64) -> PerfPredictor {
        let dataset = collect(&CollectionConfig::small(2, 1, 1, seed)).unwrap();
        train_predictor(&dataset, ModelKind::Linear(Default::default()), seed).unwrap()
    }

    #[test]
    fn rolling_split_partitions_all_rows() {
        for (n, holdout) in [(100, 10), (24, 48), (7, 2), (1, 1)] {
            let (train, hold) = rolling_split(n, holdout);
            let mut all: Vec<usize> = train.iter().chain(&hold).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n} holdout={holdout}");
        }
        // Target size is honoured approximately, spread over the range.
        let (_, hold) = rolling_split(100, 10);
        assert_eq!(hold, vec![9, 19, 29, 39, 49, 59, 69, 79, 89, 99]);
    }

    #[test]
    fn a_reply_without_the_counts_refuses_the_candidate_and_keeps_the_rows() {
        use mphpc_serve::http;
        use std::io::{Read as _, Write as _};

        // A server that answers every request `200 {}`: well-formed,
        // and none of the fields a gate reads.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let requests = 4; // attach, report, drop; then /stats
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(requests) {
                let mut stream = stream.unwrap();
                let (mut request, mut chunk) = (Vec::new(), [0u8; 4096]);
                loop {
                    if let http::Parse::Head(h) = http::parse_head(&request, http::MAX_HEAD_BYTES) {
                        if request.len() >= h.head_len + h.content_length {
                            break;
                        }
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "the client hung up mid-request");
                    request.extend_from_slice(&chunk[..n]);
                }
                let mut reply = Vec::new();
                http::render_response(&mut reply, 200, &[], b"{}", false);
                stream.write_all(&reply).unwrap();
            }
        });

        let store = temp_store("empty_replies");
        let cfg = WatchConfig {
            addr,
            ..offline_cfg()
        };
        let mut watcher = Watcher::new(&store, cfg, base_predictor(331)).unwrap();
        let (decision, rows_spent) = watcher.shadow_and_promote(base_predictor(332)).unwrap();
        assert!(
            matches!(&decision, TickDecision::Refused { reason }
                if reason.starts_with("shadow report unreadable: ")
                    && reason.contains("no count \"shadow.rows\" in reply {}")),
            "{decision:?}"
        );
        assert!(!rows_spent, "the rows stay pending for the next tick");
        assert!(watcher.read_error_total().is_err());
        server.join().unwrap();
    }

    #[test]
    fn ingest_quarantines_garbage_and_never_retries_it() {
        let store = temp_store("quarantine");
        let good = shard_csv(301);
        store
            .put_atomic("gen-1/shards/shard-0000", good.as_bytes())
            .unwrap();
        store
            .put_atomic("gen-1/shards/shard-0001", b"not,a\nvalid,shard\n")
            .unwrap();

        let mut watcher = Watcher::new(&store, offline_cfg(), base_predictor(302)).unwrap();
        let report = watcher.tick().unwrap();
        assert_eq!(report.ingested_shards, 1);
        assert_eq!(report.quarantined_shards, 1);
        assert_eq!(report.new_rows, 24);
        assert_eq!(report.dataset_version, Some(1));
        assert_eq!(report.decision, TickDecision::Deferred { pending_rows: 24 });

        // Both shards (including the quarantined one) are now behind
        // the watermark: the next tick ingests nothing and the pending
        // rows stay pending.
        let report = watcher.tick().unwrap();
        assert_eq!(report.ingested_shards, 0);
        assert_eq!(report.quarantined_shards, 0);
        assert_eq!(report.new_rows, 0);
        assert_eq!(report.dataset_version, None);
        assert_eq!(report.decision, TickDecision::Deferred { pending_rows: 24 });
    }

    #[test]
    fn restart_resumes_from_the_committed_state() {
        let store = temp_store("resume");
        store
            .put_atomic("gen-1/shards/shard-0000", shard_csv(303).as_bytes())
            .unwrap();
        {
            let mut watcher = Watcher::new(&store, offline_cfg(), base_predictor(304)).unwrap();
            let report = watcher.tick().unwrap();
            assert_eq!(report.new_rows, 24);
        }
        // A fresh watcher (simulating a restart) sees the committed
        // dataset and watermark: nothing is re-ingested.
        let mut watcher = Watcher::new(&store, offline_cfg(), base_predictor(304)).unwrap();
        assert_eq!(watcher.dataset_rows(), 24);
        assert!(watcher.watermark().contains("gen-1/shards/shard-0000"));
        let report = watcher.tick().unwrap();
        assert_eq!(report.ingested_shards, 0);
        assert_eq!(report.new_rows, 0);
        // The restarted watcher lost the in-memory pending-rows count,
        // so with nothing new it idles rather than retraining.
        assert_eq!(report.decision, TickDecision::Idle);
    }

    #[test]
    fn mismatched_shard_headers_are_quarantined() {
        let store = temp_store("headers");
        store
            .put_atomic("gen-1/shards/shard-0000", shard_csv(305).as_bytes())
            .unwrap();
        let mut watcher = Watcher::new(&store, offline_cfg(), base_predictor(306)).unwrap();
        watcher.tick().unwrap();

        // A shard whose header disagrees (columns reordered) must be
        // quarantined, not spliced in.
        let good = shard_csv(307);
        let (head, body) = good.split_once('\n').unwrap();
        let mut cols: Vec<&str> = head.split(',').collect();
        cols.swap(0, 1);
        let twisted = format!("{}\n{}", cols.join(","), body);
        store
            .put_atomic("gen-2/shards/shard-0000", twisted.as_bytes())
            .unwrap();
        let report = watcher.tick().unwrap();
        assert_eq!(report.ingested_shards, 0);
        assert_eq!(report.quarantined_shards, 1);
        assert_eq!(report.new_rows, 0);
    }
}
