//! Online prediction serving: a micro-batching HTTP/1.1 server with a
//! versioned, hot-swappable model registry.
//!
//! The paper's scheduling simulation consumes RPV predictions at job
//! submit time; this crate is the deployment shape that implies — a
//! long-lived process answering `POST /predict` requests of one row
//! (`features`, a job submission) or several (`rows`, a scheduler's
//! decision-point batch). Three design points carry the whole crate:
//!
//! 1. **Micro-batching** ([`batch`]): concurrent requests are
//!    coalesced into one batch call on the model, so the per-row cost
//!    under load is the *batched* inference cost: the tree-ensemble
//!    engine's blocked batch kernel is several times cheaper per row
//!    than its single-row path, and the batcher means loaded servers
//!    rarely run single rows.
//! 2. **Hot swap** ([`registry`]): `POST /models/<name>` installs a new
//!    model version atomically. A request resolves its `Arc<LoadedModel>`
//!    once, at enqueue, so every response is computed by exactly one
//!    consistent model and tagged `name@vN`.
//! 3. **Bounded everything** ([`server`]): a bounded pending queue that
//!    answers `503` + `Retry-After` when full, a per-request queue
//!    deadline answering `504`, a global connection cap answered `503`
//!    at accept, per-connection read deadlines and idle timeouts, and a
//!    graceful shutdown that stops accepting, drains the queue, and
//!    joins every thread.
//! 4. **Event-driven transport**: the front end is a nonblocking event
//!    loop — raw `epoll` on Linux with a portable `poll(2)` fallback
//!    (hand-rolled FFI, no `libc` crate) — with a fixed set of shard
//!    threads, HTTP/1.1 keep-alive *and* pipelining, an incremental
//!    zero-copy parser over reusable per-connection buffers, and
//!    partial-write continuation. The steady-state parse + response
//!    path performs zero heap allocations (proven by a
//!    counting-allocator test).
//!
//! The crate is std-only (like `mphpc-telemetry`): the HTTP/1.1 subset
//! it needs ([`http`]) and the JSON it speaks ([`json`]) are hand-rolled
//! rather than pulled from a dependency tree. Models reach the server
//! through the [`PredictModel`] trait, so the crate does not depend on
//! the ML stack; `mphpc-core` adapts `PerfPredictor` behind it.

#![warn(missing_docs)]

use std::sync::Arc;

use mphpc_errors::MphpcError;

pub mod batch;
pub mod client;
mod conn;
mod event_loop;
pub mod http;
pub mod json;
mod poller;
pub mod registry;
pub mod server;
pub mod shadow;

pub use batch::{BatchConfig, MicroBatcher};
pub use registry::{LoadedModel, ModelRegistry};
pub use server::{serve, ServeConfig, ServerHandle, StatsSnapshot};
pub use shadow::{ShadowReport, ShadowSlot};

/// A model the server can host: row-major batch prediction over `f64`
/// features.
///
/// Implementations must be deterministic — the hot-swap tests assert
/// bit-identical outputs per model version — and internally thread-safe
/// (the batcher calls `predict_batch` from its own thread while the
/// registry hands the same `Arc` to many requests).
pub trait PredictModel: Send + Sync + 'static {
    /// Features per row.
    fn n_features(&self) -> usize;

    /// Outputs per row (4 for RPV models: Q/R/L/C).
    fn n_outputs(&self) -> usize;

    /// Predict `n_rows` rows packed row-major in `rows`
    /// (`rows.len() == n_rows * n_features()`); returns
    /// `n_rows * n_outputs()` values, row-major.
    fn predict_batch(&self, rows: &[f64], n_rows: usize) -> Result<Vec<f64>, MphpcError>;

    /// Model-family label surfaced by `GET /models` (e.g. `"forest"`).
    fn kind(&self) -> String {
        "model".to_string()
    }
}

/// Deserialises an uploaded model body into a live [`PredictModel`].
///
/// The registry is generic over the model format: `mphpc-core` supplies
/// a loader that parses `PerfPredictor` JSON, tests supply loaders for
/// mock models. Parsing runs *outside* the registry lock, so a slow
/// upload never stalls serving.
pub type ModelLoader = Arc<dyn Fn(&str) -> Result<Arc<dyn PredictModel>, MphpcError> + Send + Sync>;
