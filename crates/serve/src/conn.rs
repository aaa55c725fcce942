//! Per-connection state for the event loop: reusable read/write
//! buffers and the pipelined response-slot queue.
//!
//! Buffer lifecycle: each connection owns one read buffer (`rdbuf`,
//! valid bytes `rdpos..rdlen`) and one write buffer (`out`, unflushed
//! bytes `wrpos..`). Both start small, grow geometrically only when a
//! request demands it (growth is counted — the steady-state hot path
//! never allocates), and shrink back after an outsized request (a
//! multi-MB model upload must not pin its buffer for the rest of a
//! keep-alive connection's life).
//!
//! Pipelining ordering guarantee: every parsed request claims a [`Slot`]
//! in FIFO order at parse time. Synchronous routes fill their slot
//! immediately; `POST /predict` slots fill when the micro-batcher
//! completes (possibly out of order). Responses are *rendered* — and
//! therefore written — strictly from the front of the queue, so the
//! wire always carries responses in request order no matter how the
//! batcher interleaves.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::batch::BatchReply;
use crate::json::json_str;
use crate::poller::Interest;

/// Initial (and steady-state) read/write buffer capacity.
pub(crate) const INITIAL_BUF: usize = 4 * 1024;
/// Buffers larger than this shrink back to [`INITIAL_BUF`] once idle.
pub(crate) const SHRINK_ABOVE: usize = 256 * 1024;

/// The terminal state of a slot: what to send back.
#[derive(Debug)]
pub(crate) enum SlotReply {
    /// The model's answer to a `/predict` request, streamed straight
    /// into the write buffer when the slot reaches the queue front
    /// (fields as in [`BatchReply::Ok`]).
    Predicted {
        outputs: Vec<f64>,
        model_tag: String,
        batch_rows: usize,
    },
    /// Every other reply: a status and a finished JSON body. A `503`
    /// goes out with `retry-after: 1`, the only extra header the server
    /// ever sends.
    Ready {
        status: u16,
        body: Cow<'static, str>,
    },
}

impl SlotReply {
    /// A reply whose JSON body the caller has rendered.
    pub(crate) fn json(status: u16, body: impl Into<Cow<'static, str>>) -> SlotReply {
        SlotReply::Ready {
            status,
            body: body.into(),
        }
    }

    /// `{"error": msg}` under `status`.
    pub(crate) fn error(status: u16, msg: &str) -> SlotReply {
        SlotReply::json(status, format!("{{\"error\":{}}}", json_str(msg)))
    }

    /// What the batcher's answer to a `/predict` request looks like on
    /// the wire.
    pub(crate) fn from_batch(reply: BatchReply) -> SlotReply {
        match reply {
            BatchReply::Ok {
                outputs,
                model_tag,
                batch_rows,
            } => SlotReply::Predicted {
                outputs,
                model_tag,
                batch_rows,
            },
            BatchReply::Expired => SlotReply::error(504, "request deadline exceeded in queue"),
            BatchReply::Failed(e) => SlotReply::error(500, &e.render_chain()),
        }
    }
}

/// One in-order response slot, claimed at request parse time.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Matches a batcher completion ticket back to this slot.
    pub seq: u16,
    /// Parse-complete time (feeds `serve.request_latency_s`).
    pub t0: Instant,
    /// Close after this response (client `Connection: close`, or a
    /// protocol error).
    pub close_after: bool,
    /// `None` while a prediction is in flight.
    pub reply: Option<SlotReply>,
    /// `Some(n)` when the request was a `/predict` in the `rows` form
    /// with `n` rows: its reply nests `outputs` per row (also for one).
    pub rows: Option<usize>,
}

/// One accepted connection owned by an event-loop shard.
pub(crate) struct Conn {
    pub stream: TcpStream,
    /// Read storage; `rdbuf[rdpos..rdlen]` is buffered-but-unconsumed.
    pub rdbuf: Vec<u8>,
    pub rdpos: usize,
    pub rdlen: usize,
    /// Rendered-but-unflushed response bytes at `out[wrpos..]`.
    pub out: Vec<u8>,
    pub wrpos: usize,
    /// In-order response slots (front = next to go on the wire).
    pub pending: VecDeque<Slot>,
    /// Next slot sequence number (wraps; pipeline depth is bounded far
    /// below 2^16, so in-flight sequences are always distinct).
    pub next_seq: u16,
    /// Last byte-level progress (accept, read, or write), for the
    /// idle-timeout sweep.
    pub last_activity: Instant,
    /// When the current *partial* request started arriving. `Some`
    /// while an incomplete head/body sits in `rdbuf`; the read deadline
    /// runs from here, so a slowloris client trickling one byte per
    /// poll tick cannot reset its clock the way `last_activity` would.
    pub read_deadline_start: Option<Instant>,
    /// Stop parsing further requests (close requested, protocol error,
    /// EOF, or shutdown); drain `pending` and close.
    pub no_more_reads: bool,
    /// Requests parsed on this connection (the second one onwards
    /// counts as `serve.conn.reused`).
    pub requests: u64,
    /// Interest currently registered with the poller, to skip
    /// redundant `Poller::modify` scans.
    pub interest: Interest,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            rdbuf: vec![0; INITIAL_BUF],
            rdpos: 0,
            rdlen: 0,
            out: Vec::with_capacity(INITIAL_BUF),
            wrpos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            last_activity: now,
            read_deadline_start: None,
            no_more_reads: false,
            requests: 0,
            interest: Interest::READ,
        }
    }

    /// Drop `n` consumed bytes; resets cursors (and shrinks an
    /// upload-sized buffer) once everything is consumed.
    pub(crate) fn consume(&mut self, n: usize) {
        self.rdpos += n;
        debug_assert!(self.rdpos <= self.rdlen);
        if self.rdpos == self.rdlen {
            self.rdpos = 0;
            self.rdlen = 0;
            if self.rdbuf.len() > SHRINK_ABOVE {
                self.rdbuf = vec![0; INITIAL_BUF];
            }
        }
    }

    /// Parse no further request on this connection: what is buffered
    /// behind the last one parsed is dropped, what is owed is still
    /// rendered and flushed.
    pub(crate) fn stop_reading(&mut self) {
        self.no_more_reads = true;
        self.consume(self.rdlen - self.rdpos);
    }

    /// Make room to buffer a request of `needed` total bytes (head +
    /// body), compacting first and growing only if the buffer really is
    /// too small. Returns `true` if the buffer grew (counted toward the
    /// parse-allocation gauge).
    pub(crate) fn reserve_request(&mut self, needed: usize) -> bool {
        if self.rdbuf.len() - self.rdpos >= needed {
            return false;
        }
        // Compact: slide the unconsumed tail to the front.
        if self.rdpos > 0 {
            self.rdbuf.copy_within(self.rdpos..self.rdlen, 0);
            self.rdlen -= self.rdpos;
            self.rdpos = 0;
        }
        if self.rdbuf.len() >= needed {
            return false;
        }
        let new_len = needed.next_power_of_two();
        self.rdbuf.resize(new_len, 0);
        true
    }

    /// Nonblocking read into the spare buffer tail. Returns
    /// `Ok(Some(n))` for n fresh bytes, `Ok(None)` when the socket has
    /// no more data right now, and `Err` for EOF or a transport error
    /// (both mean: stop reading this connection).
    pub(crate) fn fill(&mut self) -> io::Result<Option<usize>> {
        if self.rdlen == self.rdbuf.len() {
            return Ok(None); // no room; parser decides whether to grow
        }
        match self.stream.read(&mut self.rdbuf[self.rdlen..]) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.rdlen += n;
                Ok(Some(n))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Flush as much of `out` as the socket accepts. Returns `true`
    /// while the connection is healthy, `false` on a transport error.
    pub(crate) fn flush(&mut self) -> bool {
        while self.wrpos < self.out.len() {
            match self.stream.write(&self.out[self.wrpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wrpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wrpos == self.out.len() {
            self.wrpos = 0;
            if self.out.capacity() > SHRINK_ABOVE {
                self.out = Vec::with_capacity(INITIAL_BUF);
            } else {
                self.out.clear();
            }
        }
        true
    }

    /// Bytes waiting to go out.
    pub(crate) fn has_output(&self) -> bool {
        self.wrpos < self.out.len()
    }

    /// Claim the next in-order slot.
    pub(crate) fn push_slot(
        &mut self,
        close_after: bool,
        reply: Option<SlotReply>,
        rows: Option<usize>,
    ) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.pending.push_back(Slot {
            seq,
            t0: Instant::now(),
            close_after,
            reply,
            rows,
        });
    }

    /// Deliver a batcher completion into its slot. Returns `false` for
    /// an unknown sequence (stale ticket — the slot's request already
    /// failed another way).
    pub(crate) fn complete_slot(&mut self, seq: u16, reply: SlotReply) -> bool {
        for slot in self.pending.iter_mut() {
            if slot.seq == seq {
                debug_assert!(slot.reply.is_none(), "slot completed twice");
                slot.reply = Some(reply);
                return true;
            }
        }
        false
    }
}
