//! The event-loop shards: nonblocking accept, readiness-driven
//! read/parse/dispatch, in-order response rendering, and the
//! batcher-completion inbox.
//!
//! Every shard owns one [`Poller`] and a slab of connections. All
//! shards register the *same* nonblocking listener (level-triggered, so
//! an accept race between shards resolves as `WouldBlock` for the
//! losers) plus one [`ShardInbox`] wakeup fd through which the
//! micro-batcher thread hands back completed predictions. The loop per
//! wakeup: drain readiness events → accept → pump ready connections
//! (read as much as the socket has, parse every complete pipelined
//! request, dispatch, render in order, flush) → drain the completion
//! inbox → periodic deadline sweep.
//!
//! Readiness state machine per connection: read interest is held while
//! the connection may legally produce more requests (not closing, and
//! below the pipeline cap — a full pipeline drops read interest so TCP
//! backpressure, not memory, absorbs an over-eager client); write
//! interest is held exactly while rendered bytes await a writable
//! socket. Completion tickets carry `(slot index, generation,
//! sequence)`; the generation check makes a late completion for a
//! recycled slab slot a no-op instead of a response sent to the wrong
//! client.

use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::batch::{BatchReply, CompletionSink};
use crate::conn::{Conn, SlotReply, INITIAL_BUF};
use crate::http;
use crate::poller::Wakeup;
use crate::poller::{Event, Interest, Poller};
use crate::server::{self, ServerShared};

/// Poller token for the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token for the shard's completion-inbox wakeup fd.
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

/// Read-buffer growths across all shards (≈0 in steady state; surfaced
/// as the `serve.parse.buf_growths` gauge).
static BUF_GROWTHS: AtomicU64 = AtomicU64::new(0);

fn conn_token(idx: u16, gen: u32) -> u64 {
    (gen as u64) << 16 | idx as u64
}

/// Where the batcher delivers a shard's finished predictions. The
/// batcher thread pushes `(ticket, reply)` and rings the wakeup only on
/// the empty→non-empty transition, so a batch of 64 one-row requests
/// completing costs one syscall, not 64.
pub(crate) struct ShardInbox {
    completions: Mutex<Vec<(u64, BatchReply)>>,
    wakeup: Wakeup,
}

impl ShardInbox {
    pub(crate) fn new() -> io::Result<ShardInbox> {
        Ok(ShardInbox {
            completions: Mutex::new(Vec::new()),
            wakeup: Wakeup::new()?,
        })
    }

    /// Wake the shard's poller (shutdown notification path).
    pub(crate) fn ring(&self) {
        self.wakeup.ring();
    }
}

impl CompletionSink for ShardInbox {
    fn complete(&self, ticket: u64, reply: BatchReply) {
        let mut q = self.completions.lock().unwrap_or_else(|p| p.into_inner());
        let was_empty = q.is_empty();
        q.push((ticket, reply));
        drop(q);
        if was_empty {
            self.wakeup.ring();
        }
    }
}

/// One event-loop shard: poller + connection slab + scratch buffers.
pub(crate) struct Shard {
    shared: Arc<ServerShared>,
    listener: Arc<TcpListener>,
    inbox: Arc<ShardInbox>,
    /// `inbox` as the trait object handed to `submit_with`.
    sink: Arc<dyn CompletionSink>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<u16>,
    /// Live connections on this shard (loop-exit condition at drain).
    live: usize,
    /// Reused per-request feature rows (predict parse scratch).
    features: Vec<f64>,
    /// Reused response-body render scratch.
    body_buf: Vec<u8>,
    /// Reused swap target for the inbox queue.
    completions_scratch: Vec<(u64, BatchReply)>,
    /// Connections touched by a completion drain, pumped once each.
    touched: Vec<usize>,
    /// Pre-rendered admission-control 503 (connection cap).
    capacity_503: Vec<u8>,
}

impl Shard {
    pub(crate) fn new(
        shared: Arc<ServerShared>,
        listener: Arc<TcpListener>,
        inbox: Arc<ShardInbox>,
    ) -> Shard {
        let mut capacity_503 = Vec::new();
        http::render_response(
            &mut capacity_503,
            503,
            &[("retry-after", "1")],
            b"{\"error\":\"server is at connection capacity\"}",
            false,
        );
        let sink: Arc<dyn CompletionSink> = Arc::clone(&inbox) as Arc<dyn CompletionSink>;
        Shard {
            shared,
            listener,
            inbox,
            sink,
            poller: Poller::new(),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            features: Vec::new(),
            body_buf: Vec::with_capacity(INITIAL_BUF),
            completions_scratch: Vec::new(),
            touched: Vec::new(),
            capacity_503,
        }
    }

    /// The shard thread body. Returns when shutdown is flagged and
    /// every owned connection has drained and closed.
    pub(crate) fn run(mut self) {
        self.poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
        self.poller
            .register(self.inbox.wakeup.fd(), TOKEN_WAKEUP, Interest::READ);

        // The poll tick doubles as the deadline-sweep cadence, so it
        // must undercut the configured deadlines (tests use tens of
        // milliseconds).
        let tick = self
            .shared
            .read_deadline
            .min(self.shared.idle_timeout)
            .mul_f64(0.5)
            .clamp(Duration::from_millis(5), Duration::from_millis(50));
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + tick;

        loop {
            if self.poller.wait(&mut events, tick).is_err() {
                return; // poll(2) itself failed; nothing sane left to do
            }
            mphpc_telemetry::counter_add("serve.poll.wakeups", 1);
            let shutdown = self.shared.shutdown.load(Ordering::Acquire);
            let mut requests = 0u64;
            let mut accept_ready = false;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKEUP => self.inbox.wakeup.drain(),
                    token => {
                        let idx = (token & 0xffff) as usize;
                        let gen = (token >> 16) as u32;
                        if idx < self.conns.len() && self.gens[idx] == gen {
                            self.pump_conn(idx, ev.readable, ev.writable, shutdown, &mut requests);
                        }
                    }
                }
            }
            if accept_ready && !shutdown {
                self.accept_ready(&mut requests);
            }
            self.drain_completions(shutdown, &mut requests);
            if requests > 0 {
                mphpc_telemetry::histogram_record(
                    "serve.poll.requests_per_wakeup",
                    requests as f64,
                );
            }
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + tick;
            }
            if shutdown {
                self.begin_drain(&mut requests);
                if self.live == 0 {
                    return;
                }
            }
        }
    }

    fn accept_ready(&mut self, requests: &mut u64) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream, requests),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (e.g. ECONNABORTED)
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, requests: &mut u64) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let prev = self.shared.conns_live.fetch_add(1, Ordering::AcqRel);
        let slot = if prev >= self.shared.max_conns {
            None
        } else if let Some(i) = self.free.pop() {
            Some(i as usize)
        } else if self.conns.len() <= u16::MAX as usize {
            self.conns.push(None);
            self.gens.push(0);
            Some(self.conns.len() - 1)
        } else {
            None // slab exhausted (token space): treated like the cap
        };
        let Some(idx) = slot else {
            // Admission control: answer 503 at accept instead of
            // accepting-then-starving. Best-effort write — an instantly
            // full socket buffer just means the client sees a reset.
            self.shared.conns_live.fetch_sub(1, Ordering::AcqRel);
            self.shared.stats.note_status(503);
            let _ = (&stream).write(&self.capacity_503);
            return;
        };
        let token = conn_token(idx as u16, self.gens[idx]);
        self.poller
            .register(stream.as_raw_fd(), token, Interest::READ);
        self.shared.stats.note_connection();
        mphpc_telemetry::counter_add("serve.conn.accepted", 1);
        self.live += 1;
        self.conns[idx] = Some(Conn::new(stream, Instant::now()));
        // The client usually sent its first request already; pump now
        // rather than paying one extra poll round-trip per connection.
        self.pump_conn(idx, true, false, false, requests);
    }

    /// Drive one connection: flush, read+parse+dispatch, render
    /// in-order replies, update poller interest, close when finished.
    fn pump_conn(
        &mut self,
        idx: usize,
        readable: bool,
        writable: bool,
        shutdown: bool,
        requests: &mut u64,
    ) {
        let this = &mut *self;
        let token = conn_token(idx as u16, this.gens[idx]);
        let Some(conn) = this.conns[idx].as_mut() else {
            return;
        };

        let mut alive = true;
        if writable {
            alive = conn.flush();
        }
        if alive && readable && !conn.no_more_reads {
            loop {
                let progressed = match conn.fill() {
                    Ok(Some(_)) => {
                        conn.last_activity = Instant::now();
                        true
                    }
                    Ok(None) => false,
                    Err(_) => {
                        // EOF or transport error: answer what was fully
                        // parsed, read nothing further.
                        conn.stop_reading();
                        false
                    }
                };
                if conn.no_more_reads {
                    break;
                }
                let grew = parse_requests(
                    conn,
                    &this.shared,
                    &mut this.features,
                    &this.sink,
                    token,
                    shutdown,
                    requests,
                );
                if !progressed && !grew {
                    break;
                }
            }
        }
        // Render what is ready. Every reply rendered frees a pipeline
        // slot, which may let in a request already buffered behind a
        // full pipeline: no later event would parse it (the client may
        // have sent everything and be waiting), so parse again, and go
        // round until that claims no new slot.
        while alive {
            alive = advance(conn, &this.shared, &mut this.body_buf);
            let next_seq = conn.next_seq;
            if alive && !conn.no_more_reads {
                parse_requests(
                    conn,
                    &this.shared,
                    &mut this.features,
                    &this.sink,
                    token,
                    shutdown,
                    requests,
                );
            }
            if conn.next_seq == next_seq {
                break;
            }
        }
        if alive {
            // Read-deadline clock: runs while a partial request waits.
            if conn.rdpos < conn.rdlen
                && conn.pending.len() < this.shared.max_pipeline
                && !conn.no_more_reads
            {
                if conn.read_deadline_start.is_none() {
                    conn.read_deadline_start = Some(Instant::now());
                }
            } else {
                conn.read_deadline_start = None;
            }
            let want = Interest {
                read: !conn.no_more_reads && conn.pending.len() < this.shared.max_pipeline,
                write: conn.has_output(),
            };
            if want != conn.interest
                && this
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, want)
                    .is_ok()
            {
                conn.interest = want;
            }
        } else {
            this.close_conn(idx);
        }
    }

    fn drain_completions(&mut self, shutdown: bool, requests: &mut u64) {
        let mut batch = std::mem::take(&mut self.completions_scratch);
        {
            let mut q = self
                .inbox
                .completions
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            std::mem::swap(&mut *q, &mut batch);
        }
        let mut touched = std::mem::take(&mut self.touched);
        for (ticket, reply) in batch.drain(..) {
            let seq = (ticket & 0xffff) as u16;
            let token = ticket >> 16;
            let idx = (token & 0xffff) as usize;
            let gen = (token >> 16) as u32;
            if idx >= self.conns.len() || self.gens[idx] != gen {
                continue; // connection already closed; drop the reply
            }
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.complete_slot(seq, SlotReply::from_batch(reply)) {
                touched.push(idx);
            }
        }
        // Pump each touched connection once, however many rows of one
        // batch landed on it.
        touched.sort_unstable();
        touched.dedup();
        for idx in touched.drain(..) {
            if self.conns[idx].is_some() {
                self.pump_conn(idx, false, false, shutdown, requests);
            }
        }
        self.touched = touched;
        self.completions_scratch = batch;
    }

    /// Deadline sweep: close slowloris and idle connections.
    fn sweep(&mut self, now: Instant) {
        mphpc_telemetry::gauge_set(
            "serve.parse.buf_growths",
            BUF_GROWTHS.load(Ordering::Relaxed) as f64,
        );
        for idx in 0..self.conns.len() {
            let timed_out = match &self.conns[idx] {
                Some(conn) => {
                    if let Some(start) = conn.read_deadline_start {
                        // A request is arriving too slowly.
                        now.duration_since(start) > self.shared.read_deadline
                    } else if conn.has_output() {
                        // The client stopped reading its responses.
                        now.duration_since(conn.last_activity) > self.shared.read_deadline
                    } else if conn.pending.is_empty() {
                        // Quiet keep-alive connection.
                        now.duration_since(conn.last_activity) > self.shared.idle_timeout
                    } else {
                        // Waiting on the batcher — its own deadline
                        // bounds this state.
                        false
                    }
                }
                None => false,
            };
            if timed_out {
                mphpc_telemetry::counter_add("serve.conn.timed_out", 1);
                self.close_conn(idx);
            }
        }
    }

    /// Shutdown: stop parsing everywhere, render and flush what is
    /// owed, close everything that is done.
    fn begin_drain(&mut self, requests: &mut u64) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            conn.stop_reading();
            self.pump_conn(idx, false, false, true, requests);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx as u16);
            self.live -= 1;
            self.shared.conns_live.fetch_sub(1, Ordering::AcqRel);
            mphpc_telemetry::counter_add("serve.conn.closed", 1);
        }
    }
}

/// Parse every complete pipelined request in the connection's buffer
/// and dispatch each into its in-order slot. Returns whether the read
/// buffer grew, which [`BUF_GROWTHS`] counts (steady state is zero).
fn parse_requests(
    conn: &mut Conn,
    shared: &ServerShared,
    features: &mut Vec<f64>,
    sink: &Arc<dyn CompletionSink>,
    token: u64,
    shutdown: bool,
    requests: &mut u64,
) -> bool {
    let mut grew = false;
    while !(conn.no_more_reads || shutdown || conn.pending.len() >= shared.max_pipeline) {
        // The head borrows the buffer field, not `conn`: its method and
        // path are read at dispatch, after the request is counted.
        let unparsed = &conn.rdbuf[conn.rdpos..conn.rdlen];
        let buffered = unparsed.len();
        let head = match http::parse_head(unparsed, http::MAX_HEAD_BYTES) {
            http::Parse::Incomplete => {
                if conn.rdlen == conn.rdbuf.len() {
                    // Full buffer, no complete head: make room (bounded
                    // by the parser's own 431 head cap).
                    grew |= conn.reserve_request(buffered + INITIAL_BUF);
                }
                break;
            }
            http::Parse::Bad(bad) => {
                conn.push_slot(true, Some(SlotReply::error(bad.status, &bad.msg)), None);
                conn.stop_reading();
                break;
            }
            http::Parse::Head(head) => head,
        };
        if head.content_length > shared.max_body {
            let msg = format!(
                "body of {} bytes exceeds the {}-byte limit",
                head.content_length, shared.max_body
            );
            conn.push_slot(true, Some(SlotReply::error(400, &msg)), None);
            conn.stop_reading();
            break;
        }
        let total = head.head_len + head.content_length;
        if buffered < total {
            grew |= conn.reserve_request(total);
            break;
        }

        conn.requests += 1;
        if conn.requests > 1 {
            mphpc_telemetry::counter_add("serve.conn.reused", 1);
        }
        *requests += 1;
        shared.stats.note_request();

        let ticket = token << 16 | conn.next_seq as u64;
        let body = &unparsed[head.head_len..total];
        let outcome =
            server::dispatch(shared, head.method, head.path, body, features, sink, ticket);
        let wants_close = head.wants_close;
        match outcome {
            server::Dispatch::Ready(reply) => conn.push_slot(wants_close, Some(reply), None),
            server::Dispatch::Submitted { rows } => conn.push_slot(wants_close, None, rows),
        }
        conn.consume(total);
        // The deadline is per request: whatever partial request
        // follows this one starts its own clock.
        conn.read_deadline_start = None;
        if wants_close {
            conn.stop_reading();
        }
    }
    if grew {
        BUF_GROWTHS.fetch_add(1, Ordering::Relaxed);
    }
    grew
}

/// Render every leading completed slot in order, flush, and decide
/// whether the connection stays open. Returns `false` when the
/// connection should close (transport failure, or nothing left to do on
/// a closing/draining connection).
fn advance(conn: &mut Conn, shared: &ServerShared, body_buf: &mut Vec<u8>) -> bool {
    while conn.pending.front().is_some_and(|s| s.reply.is_some()) {
        let mut slot = conn.pending.pop_front().expect("checked non-empty");
        let reply = slot.reply.take().expect("checked completed");
        let shutdown_now = shared.shutdown.load(Ordering::Acquire);
        let keep_alive = !slot.close_after && !shutdown_now;
        server::render_reply(shared, &slot, reply, keep_alive, body_buf, &mut conn.out);
        if !keep_alive {
            conn.stop_reading();
        }
    }
    if !conn.flush() {
        return false;
    }
    let shutdown_now = shared.shutdown.load(Ordering::Acquire);
    !(conn.pending.is_empty() && !conn.has_output() && (conn.no_more_reads || shutdown_now))
}
