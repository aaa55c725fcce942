//! The serving front end: configuration, shared server state, request
//! routing, and the public start/shutdown/join surface over the
//! event-loop shards in [`crate::event_loop`].
//!
//! The transport is a nonblocking event loop (epoll on Linux, `poll(2)`
//! fallback — see [`crate::poller`]): a fixed set of shard threads each
//! owns its accepted connections, parses pipelined HTTP/1.1 requests
//! from reusable per-connection buffers, and writes responses back in
//! request order. `POST /predict` requests — one row (`features`) or
//! several (`rows`) — flow through the one [`crate::batch`]
//! micro-batching queue — the batcher delivers
//! completions to the owning shard's inbox instead of a parked thread,
//! so thousands of keep-alive connections need only `shards` threads.
//!
//! Admission control comes in tiers: a global connection cap answered
//! with `503` at accept, per-connection read deadlines and keep-alive
//! idle timeouts (closed silently), and the bounded prediction queue
//! (`503` + `Retry-After`, unchanged from the blocking server).
//! Shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]) flags the
//! shards awake; they stop accepting and parsing, render and flush
//! every owed response (`connection: close`), and exit once their
//! connections are gone, after which the batcher drains.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mphpc_errors::MphpcError;

use crate::batch::{BatchConfig, CompletionSink, MicroBatcher, SubmitError};
use crate::conn::{Slot, SlotReply};
use crate::event_loop::{Shard, ShardInbox};
use crate::http;
use crate::json::{self, json_num, json_str};
use crate::registry::{LoadedModel, ModelRegistry};
use crate::shadow::ShadowReport;

/// The default [`ServeConfig::max_body`], and the largest response body
/// [`crate::client`] accepts: what a server will read, a client will too.
pub(crate) const DEFAULT_MAX_BODY: usize = 64 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Event-loop shard count; `0` means one per available hardware
    /// thread. Each shard serves any number of connections.
    pub shards: usize,
    /// Micro-batcher configuration.
    pub batch: BatchConfig,
    /// Largest accepted request body (model uploads are multi-MB).
    pub max_body: usize,
    /// Global connection cap; connections beyond it are answered `503`
    /// at accept time.
    pub max_conns: usize,
    /// How long one request may take to *arrive* (slowloris defense):
    /// measured from the first byte of a partial request, and also
    /// applied to clients that stop reading their responses.
    pub read_deadline: Duration,
    /// How long a quiet keep-alive connection may sit before the server
    /// closes it.
    pub idle_timeout: Duration,
    /// Maximum pipelined requests in flight per connection; beyond it
    /// the server stops reading and lets TCP push back.
    pub max_pipeline: usize,
    /// Use the portable `poll(2)` backend even where epoll is available
    /// (CI exercises both paths).
    pub force_poll: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 0,
            batch: BatchConfig::default(),
            max_body: DEFAULT_MAX_BODY,
            max_conns: 4096,
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_pipeline: 32,
            force_poll: false,
        }
    }
}

/// Monotonic request counters, bumped while the server runs; read
/// through [`ServeStats::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct ServeStats {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    client_errors: AtomicU64,
}

impl ServeStats {
    pub(crate) fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_status(&self, status: u16) {
        let field = match status {
            200 => &self.ok,
            503 => &self.rejected,
            504 => &self.expired,
            500 => &self.failed,
            _ => &self.client_errors,
        };
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters out (what `GET /stats` and
    /// [`ServerHandle::join`] report).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: read(&self.connections),
            requests: read(&self.requests),
            ok: read(&self.ok),
            rejected: read(&self.rejected),
            expired: read(&self.expired),
            failed: read(&self.failed),
            client_errors: read(&self.client_errors),
        }
    }
}

/// The server's request counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (admission-control rejects excluded).
    pub connections: u64,
    /// Requests parsed (any route).
    pub requests: u64,
    /// `200` responses.
    pub ok: u64,
    /// `503` responses (queue full, draining, or connection cap).
    pub rejected: u64,
    /// `504` responses (queue deadline exceeded).
    pub expired: u64,
    /// `500` responses (model or channel failure).
    pub failed: u64,
    /// `4xx` responses (malformed, unknown route/model, bad shape).
    pub client_errors: u64,
}

impl StatsSnapshot {
    /// One-line rendering for logs and the CLI exit message.
    pub fn render(&self) -> String {
        format!(
            "connections={} requests={} ok={} rejected={} expired={} failed={} client_errors={}",
            self.connections,
            self.requests,
            self.ok,
            self.rejected,
            self.expired,
            self.failed,
            self.client_errors,
        )
    }
}

pub(crate) struct ServerShared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) batcher: MicroBatcher,
    pub(crate) stats: ServeStats,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) max_body: usize,
    pub(crate) max_conns: usize,
    pub(crate) read_deadline: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_pipeline: usize,
    /// Live (admitted, not yet closed) connections across all shards.
    pub(crate) conns_live: AtomicUsize,
    /// One completion inbox per shard, rung on shutdown.
    pub(crate) inboxes: Vec<Arc<ShardInbox>>,
}

impl ServerShared {
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for inbox in &self.inboxes {
            inbox.ring();
        }
    }
}

/// A running server. Keep it alive for as long as you serve; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`] (or just
/// `join` after a client `POST /shutdown`) to stop.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    shards: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin graceful shutdown: stop accepting, finish in-flight
    /// requests, drain the queue. Returns immediately; [`Self::join`]
    /// completes the drain.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Block until the server has shut down (via [`Self::shutdown`] or
    /// a client `POST /shutdown`) and every shard has exited; returns
    /// the final counters. The shards hold the only references to the
    /// listener, so the port is closed once this returns.
    pub fn join(self) -> StatsSnapshot {
        for shard in self.shards {
            let _ = shard.join();
        }
        // Shards are gone, so nothing can submit; drain what remains.
        self.shared.batcher.shutdown();
        self.shared.stats.snapshot()
    }
}

/// Bind and start serving `registry` per `cfg`.
pub fn serve(cfg: ServeConfig, registry: Arc<ModelRegistry>) -> Result<ServerHandle, MphpcError> {
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| MphpcError::Serve(format!("binding {}: {e}", cfg.addr)))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| MphpcError::Serve(format!("setting the listener nonblocking: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| MphpcError::Serve(format!("resolving local address: {e}")))?;

    let n_shards = if cfg.shards == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.shards
    };
    let mut inboxes = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let inbox = ShardInbox::new()
            .map_err(|e| MphpcError::Serve(format!("creating shard {i} wakeup: {e}")))?;
        inboxes.push(Arc::new(inbox));
    }

    let shared = Arc::new(ServerShared {
        registry,
        batcher: MicroBatcher::start(cfg.batch),
        stats: ServeStats::default(),
        shutdown: AtomicBool::new(false),
        addr,
        max_body: cfg.max_body,
        max_conns: cfg.max_conns.max(1),
        read_deadline: cfg.read_deadline,
        idle_timeout: cfg.idle_timeout,
        max_pipeline: cfg.max_pipeline.max(1),
        conns_live: AtomicUsize::new(0),
        inboxes: inboxes.clone(),
    });

    let listener = Arc::new(listener);
    let mut shards = Vec::with_capacity(n_shards);
    for (i, inbox) in inboxes.into_iter().enumerate() {
        let shard = match Shard::new(
            Arc::clone(&shared),
            Arc::clone(&listener),
            inbox,
            cfg.force_poll,
        ) {
            Ok(shard) => shard,
            Err(e) => {
                shared.initiate_shutdown();
                return Err(MphpcError::Serve(format!("creating shard {i} poller: {e}")));
            }
        };
        match thread::Builder::new()
            .name(format!("mphpc-serve-{i}"))
            .spawn(move || shard.run())
        {
            Ok(handle) => shards.push(handle),
            Err(e) => {
                shared.initiate_shutdown();
                return Err(MphpcError::Serve(format!("spawning shard {i}: {e}")));
            }
        }
    }

    Ok(ServerHandle { shared, shards })
}

/// Outcome of routing one parsed request.
pub(crate) enum Dispatch {
    /// The reply is known now (every route except an admitted predict).
    Ready(SlotReply),
    /// A predict request was queued; the batcher will complete the slot
    /// through the shard's sink under the given ticket. `rows` is the
    /// slot's [`Slot::rows`].
    Submitted { rows: Option<usize> },
}

/// Route one request. `features` is the shard's reusable row scratch
/// (the predict hot path parses into it without allocating).
pub(crate) fn dispatch(
    shared: &ServerShared,
    method: &str,
    path: &str,
    body: &[u8],
    features: &mut Vec<f64>,
    sink: &Arc<dyn CompletionSink>,
    ticket: u64,
) -> Dispatch {
    let _span = mphpc_telemetry::span!("serve.request");
    let no_route = || SlotReply::error(404, &format!("no route for {path}"));
    Dispatch::Ready(if method.eq_ignore_ascii_case("POST") {
        if path == "/predict" {
            match predict(shared, body, features, sink, ticket) {
                Ok(rows) => return Dispatch::Submitted { rows },
                Err(reply) => reply,
            }
        } else if let Some(name) = path.strip_prefix("/models/") {
            upload_model(shared, name, body)
        } else if let Some(rest) = path.strip_prefix("/shadow/") {
            match rest.strip_suffix("/drop") {
                Some(name) => drop_shadow(shared, name),
                None => attach_shadow(shared, rest, body),
            }
        } else if let Some(name) = path.strip_prefix("/promote/") {
            promote_shadow(shared, name)
        } else if let Some(name) = path.strip_prefix("/rollback/") {
            rollback_model(shared, name)
        } else if path == "/shutdown" {
            shared.initiate_shutdown();
            SlotReply::json(200, "{\"status\":\"draining\"}")
        } else {
            no_route()
        }
    } else if method.eq_ignore_ascii_case("GET") {
        match path {
            "/models" => list_models(shared),
            "/healthz" => SlotReply::json(200, "{\"status\":\"ok\"}"),
            "/stats" => stats_body(shared),
            "/shadow" => shadow_body(shared),
            _ => no_route(),
        }
    } else {
        let method = method.to_ascii_uppercase();
        SlotReply::error(405, &format!("method {method} not supported"))
    })
}

/// `POST /predict`: read the body, resolve the model, queue the rows.
/// `Ok` is the queued request's [`Slot::rows`]; `Err` is the reply to a
/// request that was not queued.
fn predict(
    shared: &ServerShared,
    body: &[u8],
    features: &mut Vec<f64>,
    sink: &Arc<dyn CompletionSink>,
    ticket: u64,
) -> Result<Option<usize>, SlotReply> {
    let text = std::str::from_utf8(body).map_err(|_| SlotReply::error(400, "body is not utf-8"))?;
    let request =
        json::read_predict_body(text, features).map_err(|msg| SlotReply::error(400, &msg))?;
    let name = request.model.as_deref().unwrap_or("default");
    let model = shared
        .registry
        .get(name)
        .ok_or_else(|| SlotReply::error(404, &format!("unknown model '{name}'")))?;

    let n_rows = request.rows.unwrap_or(1);
    let width = features.len() / n_rows;
    if width != model.model.n_features() {
        return Err(SlotReply::error(
            400,
            &format!(
                "model '{}' expects {} features, got {}",
                model.tag(),
                model.model.n_features(),
                width
            ),
        ));
    }

    shared
        .batcher
        .submit_with(model, features.clone(), n_rows, Arc::clone(sink), ticket)
        .map(|()| request.rows)
        .map_err(|refused| match refused {
            SubmitError::QueueFull => SlotReply::error(503, "prediction queue is full"),
            SubmitError::ShuttingDown => SlotReply::error(503, "server is shutting down"),
            SubmitError::TooManyRows => SlotReply::error(
                400,
                &format!(
                    "{n_rows} rows in one request; the limit is {} (max_batch)",
                    shared.batcher.max_batch()
                ),
            ),
        })
}

fn list_models(shared: &ServerShared) -> SlotReply {
    let entries: Vec<String> = shared
        .registry
        .list()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"version\":{},\"kind\":{},\"n_features\":{},\"n_outputs\":{}}}",
                json_str(&m.name),
                m.version,
                json_str(&m.model.kind()),
                m.model.n_features(),
                m.model.n_outputs()
            )
        })
        .collect();
    SlotReply::json(200, format!("{{\"models\":[{}]}}", entries.join(",")))
}

fn upload_model(shared: &ServerShared, name: &str, body: &[u8]) -> SlotReply {
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return SlotReply::error(400, "model names are [A-Za-z0-9_-]+");
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return SlotReply::error(400, "body is not utf-8");
    };
    match shared.registry.load_json(name, text) {
        Ok(entry) => installed(&entry),
        Err(e) => SlotReply::error(400, &e.render_chain()),
    }
}

/// `{"name":..,"version":..}` of the entry an upload or a rollback made
/// live.
fn installed(entry: &LoadedModel) -> SlotReply {
    SlotReply::json(
        200,
        format!(
            "{{\"name\":{},\"version\":{}}}",
            json_str(&entry.name),
            entry.version
        ),
    )
}

fn shadow_report_json(r: &ShadowReport) -> String {
    let means: Vec<String> = r.mean_abs_divergence.iter().map(|v| json_num(*v)).collect();
    format!(
        "{{\"target\":{},\"candidate_kind\":{},\"batches\":{},\"rows\":{},\"dropped_rows\":{},\"errors\":{},\"mean_abs_divergence\":[{}],\"max_abs_divergence\":{}}}",
        json_str(&r.target),
        json_str(&r.candidate_kind),
        r.batches,
        r.rows,
        r.dropped_rows,
        r.errors,
        means.join(","),
        json_num(r.max_abs_divergence),
    )
}

/// `POST /shadow/<name>`: start mirroring `name`'s traffic onto the
/// candidate model in the body. The candidate is *not* installed — it
/// lives only in the shadow slot until `POST /promote/<name>`.
fn attach_shadow(shared: &ServerShared, name: &str, body: &[u8]) -> SlotReply {
    let Some(live) = shared.registry.get(name) else {
        return SlotReply::error(404, &format!("unknown model '{name}'"));
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return SlotReply::error(400, "body is not utf-8");
    };
    let candidate = match shared.registry.parse(text) {
        Ok(model) => model,
        Err(e) => return SlotReply::error(400, &e.render_chain()),
    };
    if candidate.n_features() != live.model.n_features()
        || candidate.n_outputs() != live.model.n_outputs()
    {
        return SlotReply::error(
            400,
            &format!(
                "candidate shape {}x{} does not match live model '{}' ({}x{})",
                candidate.n_features(),
                candidate.n_outputs(),
                live.tag(),
                live.model.n_features(),
                live.model.n_outputs()
            ),
        );
    }
    let kind = candidate.kind();
    let replaced = shared.batcher.shadow().attach(name, candidate).is_some();
    SlotReply::json(
        200,
        format!(
            "{{\"shadow\":{},\"candidate_kind\":{},\"replaced\":{}}}",
            json_str(name),
            json_str(&kind),
            replaced
        ),
    )
}

/// `POST /shadow/<name>/drop`: stop the shadow and return its final
/// report without installing anything.
fn drop_shadow(shared: &ServerShared, name: &str) -> SlotReply {
    match shared.batcher.shadow().detach_for(name) {
        Some((report, _)) => SlotReply::json(
            200,
            format!("{{\"dropped\":{}}}", shadow_report_json(&report)),
        ),
        None => SlotReply::error(409, &format!("no shadow attached for '{name}'")),
    }
}

/// `GET /shadow`: the in-progress shadow report, or `{"shadow":null}`.
fn shadow_body(shared: &ServerShared) -> SlotReply {
    match shared.batcher.shadow().snapshot() {
        Some(report) => SlotReply::json(
            200,
            format!("{{\"shadow\":{}}}", shadow_report_json(&report)),
        ),
        None => SlotReply::json(200, "{\"shadow\":null}"),
    }
}

/// `POST /promote/<name>`: install *the shadowed candidate itself* as
/// the new live version of `name` — the canary promote. The shadow is
/// detached; its final report rides along in the response.
fn promote_shadow(shared: &ServerShared, name: &str) -> SlotReply {
    match shared.batcher.shadow().detach_for(name) {
        Some((report, candidate)) => {
            let entry = shared.registry.install(name, candidate);
            mphpc_telemetry::counter_add("serve.promotions", 1);
            SlotReply::json(
                200,
                format!(
                    "{{\"name\":{},\"version\":{},\"shadow\":{}}}",
                    json_str(&entry.name),
                    entry.version,
                    shadow_report_json(&report)
                ),
            )
        }
        None => SlotReply::error(409, &format!("no shadow attached for '{name}'")),
    }
}

/// `POST /rollback/<name>`: revert to the previous retained version.
fn rollback_model(shared: &ServerShared, name: &str) -> SlotReply {
    match shared.registry.rollback(name) {
        Ok(entry) => installed(&entry),
        Err(e) => SlotReply::error(409, &e.render_chain()),
    }
}

fn stats_body(shared: &ServerShared) -> SlotReply {
    let s = shared.stats.snapshot();
    SlotReply::json(
        200,
        format!(
            "{{\"connections\":{},\"requests\":{},\"ok\":{},\"rejected\":{},\"expired\":{},\"failed\":{},\"client_errors\":{},\"queue_depth\":{}}}",
            s.connections,
            s.requests,
            s.ok,
            s.rejected,
            s.expired,
            s.failed,
            s.client_errors,
            shared.batcher.queue_depth()
        ),
    )
}

/// Render one slot's response into the connection's write buffer,
/// bumping the status counters and the latency histogram. `body_buf` is
/// the shard's reusable body scratch; the predict success path streams
/// into it without allocating.
pub(crate) fn render_reply(
    shared: &ServerShared,
    slot: &Slot,
    reply: SlotReply,
    keep_alive: bool,
    body_buf: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    let status = match reply {
        SlotReply::Predicted {
            outputs,
            model_tag,
            batch_rows,
        } => {
            body_buf.clear();
            json::write_predict_reply(body_buf, &model_tag, batch_rows, &outputs, slot.rows);
            http::render_response(out, 200, &[], body_buf, keep_alive);
            200
        }
        SlotReply::Ready { status, body } => {
            let extras: &[(&str, &str)] = if status == 503 {
                &[("retry-after", "1")]
            } else {
                &[]
            };
            http::render_response(out, status, extras, body.as_bytes(), keep_alive);
            status
        }
    };
    shared.stats.note_status(status);
    mphpc_telemetry::histogram_record("serve.request_latency_s", slot.t0.elapsed().as_secs_f64());
}
