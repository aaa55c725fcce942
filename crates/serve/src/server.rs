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

use crate::batch::{BatchConfig, BatchReply, CompletionSink, MicroBatcher, SubmitError};
use crate::conn::{Body, Slot, SlotReply};
use crate::event_loop::{Shard, ShardInbox};
use crate::http;
use crate::json::{self, json_str, JsonValue};
use crate::registry::ModelRegistry;
use crate::shadow::ShadowReport;

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
            max_body: 64 << 20,
            max_conns: 4096,
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_pipeline: 32,
            force_poll: false,
        }
    }
}

/// Monotonic request counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServeStats {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    client_errors: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        $( $(#[$doc])*
        pub fn $name(&self) -> u64 {
            self.$name.load(Ordering::Relaxed)
        } )+
    };
}

impl ServeStats {
    stat_getters! {
        /// Connections accepted (admission-control rejects excluded).
        connections,
        /// Requests parsed (any route).
        requests,
        /// `200` responses.
        ok,
        /// `503` responses (queue full, draining, or connection cap).
        rejected,
        /// `504` responses (queue deadline exceeded).
        expired,
        /// `500` responses (model or channel failure).
        failed,
        /// `4xx` responses (malformed, unknown route/model, bad shape).
        client_errors,
    }

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

    /// Copy the counters out (the form [`ServerHandle::join`] returns).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections(),
            requests: self.requests(),
            ok: self.ok(),
            rejected: self.rejected(),
            expired: self.expired(),
            failed: self.failed(),
            client_errors: self.client_errors(),
        }
    }
}

/// Final request counters (see [`ServeStats`] for field meanings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub connections: u64,
    pub requests: u64,
    pub ok: u64,
    pub rejected: u64,
    pub expired: u64,
    pub failed: u64,
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

    /// The registry this server serves from (for in-process installs).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Live request counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
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

fn ready(status: u16, retry_after: bool, body: Body) -> Dispatch {
    Dispatch::Ready(SlotReply::Ready {
        status,
        retry_after,
        body,
    })
}

fn ready_error(status: u16, msg: &str) -> Dispatch {
    ready(
        status,
        false,
        Body::Owned(format!("{{\"error\":{}}}", json_str(msg))),
    )
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
    if method.eq_ignore_ascii_case("POST") {
        if path == "/predict" {
            return predict(shared, body, features, sink, ticket);
        }
        if let Some(name) = path.strip_prefix("/models/") {
            return Dispatch::Ready(upload_model(shared, name, body));
        }
        if let Some(rest) = path.strip_prefix("/shadow/") {
            return Dispatch::Ready(match rest.strip_suffix("/drop") {
                Some(name) => drop_shadow(shared, name),
                None => attach_shadow(shared, rest, body),
            });
        }
        if let Some(name) = path.strip_prefix("/promote/") {
            return Dispatch::Ready(promote_shadow(shared, name));
        }
        if let Some(name) = path.strip_prefix("/rollback/") {
            return Dispatch::Ready(rollback_model(shared, name));
        }
        if path == "/shutdown" {
            shared.initiate_shutdown();
            return ready(200, false, Body::Static("{\"status\":\"draining\"}"));
        }
    } else if method.eq_ignore_ascii_case("GET") {
        match path {
            "/models" => return Dispatch::Ready(list_models(shared)),
            "/healthz" => return ready(200, false, Body::Static("{\"status\":\"ok\"}")),
            "/stats" => return Dispatch::Ready(stats_body(shared)),
            "/shadow" => return Dispatch::Ready(shadow_body(shared)),
            _ => return ready_error(404, &format!("no route for {path}")),
        }
    } else {
        return ready_error(
            405,
            &format!("method {} not supported", method.to_ascii_uppercase()),
        );
    }
    ready_error(404, &format!("no route for {path}"))
}

/// The allocating path for bodies the scanners defer: the same values
/// in `values`, or the canonical 400 message. `Some(n)` is the `rows`
/// form with `n` rows, every one as wide as the first.
fn predict_body_slow<'a>(
    parsed: &'a JsonValue,
    values: &mut Vec<f64>,
) -> Result<(Option<&'a str>, Option<usize>), &'static str> {
    fn push_numbers(
        values: &mut Vec<f64>,
        row: &[JsonValue],
        not_numbers: &'static str,
    ) -> Result<(), &'static str> {
        for value in row {
            values.push(value.as_f64().ok_or(not_numbers)?);
        }
        Ok(())
    }
    values.clear();
    let model = parsed.get("model").and_then(JsonValue::as_str);
    match (parsed.get("features"), parsed.get("rows")) {
        (Some(_), Some(_)) => Err("give either \"features\" or \"rows\", not both"),
        (None, Some(rows)) => {
            let rows = rows
                .as_array()
                .filter(|rows| !rows.is_empty())
                .ok_or("\"rows\" must be a non-empty array of rows")?;
            let mut width = None;
            for row in rows {
                let row = row.as_array().ok_or(ROWS_NOT_NUMBERS)?;
                if *width.get_or_insert(row.len()) != row.len() {
                    return Err("\"rows\" must all have the same length");
                }
                push_numbers(values, row, ROWS_NOT_NUMBERS)?;
            }
            Ok((model, Some(rows.len())))
        }
        (features, None) => {
            let row = features
                .and_then(JsonValue::as_array)
                .ok_or("missing \"features\" array")?;
            push_numbers(values, row, FEATURES_NOT_NUMBERS)?;
            Ok((model, None))
        }
    }
}

const FEATURES_NOT_NUMBERS: &str = "\"features\" must be finite numbers";
const ROWS_NOT_NUMBERS: &str = "\"rows\" must be arrays of finite numbers";

fn predict(
    shared: &ServerShared,
    body: &[u8],
    features: &mut Vec<f64>,
    sink: &Arc<dyn CompletionSink>,
    ticket: u64,
) -> Dispatch {
    let Ok(text) = std::str::from_utf8(body) else {
        return ready_error(400, "body is not utf-8");
    };

    // Hot path: the canonical `{"model":...,"features":[...]}` and
    // `{"model":...,"rows":[[...],...]}` shapes parse straight into the
    // reusable scratch with zero allocation; anything else falls back to
    // the full JSON parser, which reads the same values or words the 400.
    let parsed;
    let (name, rows) = if let Some(name) = json::scan_predict_body(text, features) {
        (name, None)
    } else if let Some((name, n_rows)) = json::scan_predict_rows(text, features) {
        (name, Some(n_rows))
    } else {
        parsed = match JsonValue::parse(text) {
            Ok(v) => v,
            Err(e) => return ready_error(400, &e.to_string()),
        };
        match predict_body_slow(&parsed, features) {
            Ok(body) => body,
            Err(msg) => return ready_error(400, msg),
        }
    };
    if features.iter().any(|x| !x.is_finite()) {
        return ready_error(
            400,
            if rows.is_some() {
                ROWS_NOT_NUMBERS
            } else {
                FEATURES_NOT_NUMBERS
            },
        );
    }
    let name = name.unwrap_or("default");
    let Some(model) = shared.registry.get(name) else {
        return ready_error(404, &format!("unknown model '{name}'"));
    };

    let n_rows = rows.unwrap_or(1);
    let width = features.len() / n_rows;
    if width != model.model.n_features() {
        return ready_error(
            400,
            &format!(
                "model '{}' expects {} features, got {}",
                model.tag(),
                model.model.n_features(),
                width
            ),
        );
    }

    match shared
        .batcher
        .submit_with(model, features.clone(), n_rows, Arc::clone(sink), ticket)
    {
        Ok(()) => Dispatch::Submitted { rows },
        Err(SubmitError::QueueFull) => ready(
            503,
            true,
            Body::Static("{\"error\":\"prediction queue is full\"}"),
        ),
        Err(SubmitError::ShuttingDown) => ready(
            503,
            true,
            Body::Static("{\"error\":\"server is shutting down\"}"),
        ),
        Err(SubmitError::TooManyRows) => ready_error(
            400,
            &format!(
                "{n_rows} rows in one request; the limit is {} (max_batch)",
                shared.batcher.max_batch()
            ),
        ),
    }
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
    SlotReply::Ready {
        status: 200,
        retry_after: false,
        body: Body::Owned(format!("{{\"models\":[{}]}}", entries.join(","))),
    }
}

fn upload_model(shared: &ServerShared, name: &str, body: &[u8]) -> SlotReply {
    fn error(status: u16, msg: &str) -> SlotReply {
        SlotReply::Ready {
            status,
            retry_after: false,
            body: Body::Owned(format!("{{\"error\":{}}}", json_str(msg))),
        }
    }
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return error(400, "model names are [A-Za-z0-9_-]+");
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return error(400, "body is not utf-8");
    };
    match shared.registry.load_json(name, text) {
        Ok(entry) => SlotReply::Ready {
            status: 200,
            retry_after: false,
            body: Body::Owned(format!(
                "{{\"name\":{},\"version\":{}}}",
                json_str(&entry.name),
                entry.version
            )),
        },
        Err(e) => error(400, &e.render_chain()),
    }
}

fn slot_ok(body: String) -> SlotReply {
    SlotReply::Ready {
        status: 200,
        retry_after: false,
        body: Body::Owned(body),
    }
}

fn slot_error(status: u16, msg: &str) -> SlotReply {
    SlotReply::Ready {
        status,
        retry_after: false,
        body: Body::Owned(format!("{{\"error\":{}}}", json_str(msg))),
    }
}

fn json_num_string(v: f64) -> String {
    let mut buf = Vec::new();
    json::write_json_num(&mut buf, v);
    String::from_utf8(buf).expect("JSON numbers are ASCII")
}

fn shadow_report_json(r: &ShadowReport) -> String {
    let means: Vec<String> = r
        .mean_abs_divergence
        .iter()
        .map(|v| json_num_string(*v))
        .collect();
    format!(
        "{{\"target\":{},\"candidate_kind\":{},\"batches\":{},\"rows\":{},\"dropped_rows\":{},\"errors\":{},\"mean_abs_divergence\":[{}],\"max_abs_divergence\":{}}}",
        json_str(&r.target),
        json_str(&r.candidate_kind),
        r.batches,
        r.rows,
        r.dropped_rows,
        r.errors,
        means.join(","),
        json_num_string(r.max_abs_divergence),
    )
}

/// `POST /shadow/<name>`: start mirroring `name`'s traffic onto the
/// candidate model in the body. The candidate is *not* installed — it
/// lives only in the shadow slot until `POST /promote/<name>`.
fn attach_shadow(shared: &ServerShared, name: &str, body: &[u8]) -> SlotReply {
    let Some(live) = shared.registry.get(name) else {
        return slot_error(404, &format!("unknown model '{name}'"));
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return slot_error(400, "body is not utf-8");
    };
    let candidate = match shared.registry.parse(text) {
        Ok(model) => model,
        Err(e) => return slot_error(400, &e.render_chain()),
    };
    if candidate.n_features() != live.model.n_features()
        || candidate.n_outputs() != live.model.n_outputs()
    {
        return slot_error(
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
    slot_ok(format!(
        "{{\"shadow\":{},\"candidate_kind\":{},\"replaced\":{}}}",
        json_str(name),
        json_str(&kind),
        replaced
    ))
}

/// `POST /shadow/<name>/drop`: stop the shadow and return its final
/// report without installing anything.
fn drop_shadow(shared: &ServerShared, name: &str) -> SlotReply {
    match shared.batcher.shadow().detach_for(name) {
        Some((report, _)) => slot_ok(format!("{{\"dropped\":{}}}", shadow_report_json(&report))),
        None => slot_error(409, &format!("no shadow attached for '{name}'")),
    }
}

/// `GET /shadow`: the in-progress shadow report, or `{"shadow":null}`.
fn shadow_body(shared: &ServerShared) -> SlotReply {
    match shared.batcher.shadow().snapshot() {
        Some(report) => slot_ok(format!("{{\"shadow\":{}}}", shadow_report_json(&report))),
        None => slot_ok("{\"shadow\":null}".to_string()),
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
            slot_ok(format!(
                "{{\"name\":{},\"version\":{},\"shadow\":{}}}",
                json_str(&entry.name),
                entry.version,
                shadow_report_json(&report)
            ))
        }
        None => slot_error(409, &format!("no shadow attached for '{name}'")),
    }
}

/// `POST /rollback/<name>`: revert to the previous retained version.
fn rollback_model(shared: &ServerShared, name: &str) -> SlotReply {
    match shared.registry.rollback(name) {
        Ok(entry) => slot_ok(format!(
            "{{\"name\":{},\"version\":{}}}",
            json_str(&entry.name),
            entry.version
        )),
        Err(e) => slot_error(409, &e.render_chain()),
    }
}

fn stats_body(shared: &ServerShared) -> SlotReply {
    let s = &shared.stats;
    SlotReply::Ready {
        status: 200,
        retry_after: false,
        body: Body::Owned(format!(
            "{{\"connections\":{},\"requests\":{},\"ok\":{},\"rejected\":{},\"expired\":{},\"failed\":{},\"client_errors\":{},\"queue_depth\":{}}}",
            s.connections(),
            s.requests(),
            s.ok(),
            s.rejected(),
            s.expired(),
            s.failed(),
            s.client_errors(),
            shared.batcher.queue_depth()
        )),
    }
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
        SlotReply::Batch(BatchReply::Ok {
            outputs,
            model_tag,
            batch_rows,
        }) => {
            body_buf.clear();
            json::write_predict_reply(body_buf, &model_tag, batch_rows, &outputs, slot.rows);
            http::render_response(out, 200, &[], body_buf, keep_alive);
            200
        }
        SlotReply::Batch(BatchReply::Expired) => {
            let body = format!(
                "{{\"error\":{}}}",
                json_str("request deadline exceeded in queue")
            );
            http::render_response(out, 504, &[], body.as_bytes(), keep_alive);
            504
        }
        SlotReply::Batch(BatchReply::Failed(e)) => {
            let body = format!("{{\"error\":{}}}", json_str(&e.render_chain()));
            http::render_response(out, 500, &[], body.as_bytes(), keep_alive);
            500
        }
        SlotReply::Ready {
            status,
            retry_after,
            body,
        } => {
            let extras: &[(&str, &str)] = if retry_after {
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
