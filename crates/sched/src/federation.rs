//! Predictor federation: RPV lookups as a service.
//!
//! The engine ([`crate::engine`]) does not embed a model; it asks
//! an [`RpvProvider`] for predicted relative-performance vectors, one
//! *batch per decision point* (every job arriving at a simulated instant
//! is predicted in a single call). Two providers ship here:
//!
//! * [`FnRpvProvider`] wraps a closure — the in-process path, used by
//!   `mphpc-core` to adapt its quantized compiled engine;
//! * [`FederatedRpv`] queries a live `mphpc serve` endpoint over the
//!   keep-alive pipelined HTTP client: each decision-point batch's distinct
//!   rows (no memo across calls: the server may swap models) travel as
//!   multi-row `POST /predict` requests (the `rows` form) of
//!   [`ROWS_PER_REQUEST`] rows, a bounded window of them in flight, with
//!   per-request timeouts and degradation to a local fallback provider:
//!   the first transport or protocol error permanently fails the
//!   connection over to the fallback, and the whole in-flight batch is
//!   recomputed locally so a half-answered batch can never mix a stale
//!   server snapshot with fresh local predictions mid-decision.
//!
//! Federated predictions are **bit-exact** with local ones when both ends
//! run the same model: the request serialises features with Rust's
//! shortest-roundtrip `{}` float formatting, the server parses and
//! re-renders `f64`s the same way, so values survive the JSON hop
//! unchanged and a simulation that degrades mid-run still produces the
//! job outcomes a pure-local run would (asserted in the test suite).
//!
//! Serving latency is a first-class simulator metric: every request's
//! send→receive time lands in the `sched.federation.lookup_us` histogram
//! and in [`FederationStats`], so `mphpc_exp sched_scale` can report scheduler
//! throughput *with* the prediction-service term the same way Li et al.
//! (2310.16792) argue it must be measured.

use crate::job::{check_rpv, N_MACHINES};
use mphpc_errors::MphpcError;
use mphpc_serve::client::{ClientConn, PredictRequest};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// A source of predicted RPVs for a batch of feature rows.
///
/// `predict` receives one row per job and must return one
/// `[f64; N_MACHINES]` per row, in order. Implementations must be
/// deterministic functions of the rows (the test suites replay batches
/// across runs and thread counts and assert bit-identical schedules).
pub trait RpvProvider {
    /// Predict RPVs for `rows` (one feature vector per job).
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; N_MACHINES]>, MphpcError>;
    /// Display name for telemetry and experiment tables.
    fn name(&self) -> &str {
        "local"
    }
}

/// [`RpvProvider`] over a closure — the in-process adapter.
pub struct FnRpvProvider<F> {
    f: F,
    name: &'static str,
}

impl<F> FnRpvProvider<F>
where
    F: FnMut(&[&[f64]]) -> Result<Vec<[f64; N_MACHINES]>, MphpcError>,
{
    /// Wrap `f` as a provider named `name`.
    pub fn new(name: &'static str, f: F) -> Self {
        Self { f, name }
    }
}

impl<F> RpvProvider for FnRpvProvider<F>
where
    F: FnMut(&[&[f64]]) -> Result<Vec<[f64; N_MACHINES]>, MphpcError>,
{
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; N_MACHINES]>, MphpcError> {
        let got = (self.f)(rows)?;
        if got.len() != rows.len() {
            return Err(MphpcError::Simulation(format!(
                "rpv provider {}: {} rows in, {} predictions out",
                self.name,
                rows.len(),
                got.len()
            )));
        }
        Ok(got)
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Counters and latency accounting for one federated provider.
/// `requests`, `responses` and the latencies count HTTP requests (up to
/// [`ROWS_PER_REQUEST`] rows each); `rows`, `sent_rows` and `fallbacks`
/// count rows. `rows + fallbacks` is every row the provider was asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FederationStats {
    /// HTTP requests sent to the server.
    pub requests: u64,
    /// HTTP responses received (whatever they said).
    pub responses: u64,
    /// Rows answered by the server (in batches it answered whole).
    pub rows: u64,
    /// Of `rows`, those that travelled: each batch's distinct rows, so the
    /// rest are repeats within a batch.
    pub sent_rows: u64,
    /// Requests that failed on a read/write timeout.
    pub timeouts: u64,
    /// Rows answered by the local fallback provider.
    pub fallbacks: u64,
    /// True once the provider has permanently degraded to the fallback.
    pub degraded: bool,
    /// Sum of send→receive latency over all responses, microseconds.
    pub latency_us_total: u64,
    /// Worst single send→receive latency, microseconds.
    pub latency_us_max: u64,
}

impl FederationStats {
    /// Mean per-request serving latency in microseconds (0 when no
    /// response ever arrived).
    pub fn mean_latency_us(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.latency_us_total as f64 / self.responses as f64
        }
    }
}

/// Rows per request. Not a knob: it is the server's default
/// `BatchConfig::queue_cap / ServeConfig::max_pipeline` (1024 / 32), the
/// largest chunk one connection can keep a full pipeline of without ever
/// being answered 503, since `queue_cap` bounds queued rows and the server
/// reads at most `max_pipeline` requests ahead; and it divides
/// `max_batch` (64), so two chunks make exactly one batch. The test
/// `chunk_size_fits_the_default_server` pins both relations.
pub const ROWS_PER_REQUEST: usize = 32;

/// Federated provider: RPVs from a live `mphpc serve` endpoint, degrading
/// permanently to `fallback` on the first error.
pub struct FederatedRpv<'a> {
    addr: String,
    timeout: Duration,
    max_inflight: usize,
    conn: Option<ClientConn>,
    /// Reused request body, addressed to the model.
    body: PredictRequest,
    fallback: Box<dyn RpvProvider + 'a>,
    stats: FederationStats,
}

impl<'a> FederatedRpv<'a> {
    /// A provider for `POST /predict` on `addr`, predicting with model
    /// `model` ("default" unless the server hosts several), with at most
    /// `max_inflight` pipelined requests (of [`ROWS_PER_REQUEST`] rows)
    /// outstanding and `timeout` on every socket operation. `fallback`
    /// answers everything after the first failure (and the rows of the
    /// failing batch itself).
    pub fn new(
        addr: &str,
        model: &str,
        timeout: Duration,
        max_inflight: usize,
        fallback: Box<dyn RpvProvider + 'a>,
    ) -> Self {
        Self {
            addr: addr.to_string(),
            timeout,
            max_inflight: max_inflight.max(1),
            conn: None,
            body: PredictRequest::new(model),
            fallback,
            stats: FederationStats::default(),
        }
    }

    /// Counters so far (latency, timeouts, fallbacks, degraded flag).
    pub fn stats(&self) -> FederationStats {
        self.stats
    }

    /// Mark the connection permanently failed. `err` is classified so
    /// timeouts count separately from hard transport errors.
    fn degrade(&mut self, err: &std::io::Error) {
        if matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            self.stats.timeouts += 1;
            if mphpc_telemetry::enabled() {
                mphpc_telemetry::counter_add("sched.federation.timeouts", 1);
            }
        }
        self.stats.degraded = true;
        self.conn = None;
    }

    /// Pipelined round trip for the whole batch, [`ROWS_PER_REQUEST`]
    /// rows per request; any error returns `Err` and the caller falls
    /// back for the entire batch.
    fn predict_remote(&mut self, rows: &[&[f64]]) -> std::io::Result<Vec<[f64; N_MACHINES]>> {
        if self.conn.is_none() {
            self.conn = Some(ClientConn::connect(&self.addr, self.timeout)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let telemetry = mphpc_telemetry::enabled();
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut out = Vec::with_capacity(rows.len());
        let mut chunks = rows.chunks(ROWS_PER_REQUEST);
        // Send time and row count of every unanswered request.
        let mut inflight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(self.max_inflight);
        loop {
            // Fill the window before draining: the server answers
            // strictly in order, so send/recv pair up FIFO.
            while inflight.len() < self.max_inflight {
                let Some(chunk) = chunks.next() else { break };
                conn.send("POST", "/predict", self.body.write(chunk))?;
                self.stats.requests += 1;
                inflight.push_back((Instant::now(), chunk.len()));
            }
            let Some((sent_at, n_rows)) = inflight.pop_front() else {
                return Ok(out);
            };
            let resp = conn.recv()?;
            let us = sent_at.elapsed().as_micros() as u64;
            self.stats.responses += 1;
            self.stats.latency_us_total += us;
            self.stats.latency_us_max = self.stats.latency_us_max.max(us);
            if telemetry {
                mphpc_telemetry::histogram_record("sched.federation.lookup_us", us as f64);
            }
            if resp.status != 200 {
                return Err(invalid(format!("predict returned status {}", resp.status)));
            }
            // A reply `check_rpv` refuses (`"NaN".parse()` succeeds) is a
            // protocol error like any other: the batch goes to the fallback.
            parse_outputs(&resp.body, n_rows, &mut out).ok_or_else(|| {
                invalid(format!(
                    "predict response without {n_rows} rows of {N_MACHINES} finite outputs"
                ))
            })?;
        }
    }
}

impl RpvProvider for FederatedRpv<'_> {
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; N_MACHINES]>, MphpcError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        if !self.stats.degraded {
            let (distinct, slots) = distinct_rows(rows);
            let sent_before = self.stats.requests;
            let answer = self.predict_remote(&distinct);
            let telemetry = mphpc_telemetry::enabled();
            if telemetry {
                mphpc_telemetry::counter_add(
                    "sched.federation.requests",
                    self.stats.requests - sent_before,
                );
            }
            match answer {
                Ok(out) => {
                    let sent = distinct.len() as u64;
                    self.stats.rows += rows.len() as u64;
                    self.stats.sent_rows += sent;
                    if telemetry {
                        mphpc_telemetry::counter_add("sched.federation.rows", rows.len() as u64);
                        mphpc_telemetry::counter_add("sched.federation.sent_rows", sent);
                    }
                    return Ok(slots.into_iter().map(|d| out[d]).collect());
                }
                Err(e) => self.degrade(&e),
            }
        }
        // Degraded (now or earlier): the whole batch comes from the local
        // fallback — never a mix of a partially-answered remote batch and
        // local rows, so every decision point is answered by exactly one
        // model snapshot.
        self.stats.fallbacks += rows.len() as u64;
        if mphpc_telemetry::enabled() {
            mphpc_telemetry::counter_add("sched.federation.fallbacks", rows.len() as u64);
        }
        self.fallback.predict(rows)
    }

    fn name(&self) -> &str {
        "federated"
    }
}

/// The distinct rows of `rows` in first-seen order, and for each row of
/// `rows` the index of its distinct row. Rows are keyed on their `f64` bit
/// patterns, as `PredictorRpv`'s memo is: `0.0` / `-0.0` and NaN payloads
/// stay apart.
fn distinct_rows<'r>(rows: &[&'r [f64]]) -> (Vec<&'r [f64]>, Vec<usize>) {
    let bits: Vec<u64> = rows
        .iter()
        .flat_map(|r| r.iter().map(|v| v.to_bits()))
        .collect();
    let mut first = HashMap::with_capacity(rows.len());
    let (mut distinct, mut at) = (Vec::new(), 0);
    let slots = rows
        .iter()
        .map(|&row| {
            let key = &bits[at..at + row.len()];
            at += row.len();
            *first.entry(key).or_insert_with(|| {
                distinct.push(row);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, slots)
}

/// Append the `n_rows` RPVs of a `rows` reply's
/// `"outputs":[[a,b,c,d],...]}` tail to `out`; `None` unless the body is
/// UTF-8 and holds exactly that many rows of [`N_MACHINES`] numbers that
/// pass [`check_rpv`]. The server's JSON is machine-generated with a fixed
/// shape, so a positional scan is exact (and keeps `serde` off the
/// simulator's hot path).
fn parse_outputs(body: &[u8], n_rows: usize, out: &mut Vec<[f64; N_MACHINES]>) -> Option<()> {
    let body = std::str::from_utf8(body).ok()?;
    let mut rest = &body[body.find("\"outputs\":[")? + "\"outputs\":[".len()..];
    for r in 0..n_rows {
        if r > 0 {
            rest = rest.strip_prefix(',')?;
        }
        rest = rest.strip_prefix('[')?;
        let end = rest.find(']')?;
        let mut rpv = [0.0; N_MACHINES];
        let mut n = 0;
        for tok in rest[..end].split(',') {
            *rpv.get_mut(n)? = tok.parse().ok()?;
            n += 1;
        }
        if n != N_MACHINES || check_rpv(r as u64, &rpv).is_err() {
            return None;
        }
        out.push(rpv);
        rest = &rest[end + 1..];
    }
    (rest == "]}").then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mphpc_serve::{serve, BatchConfig, ModelRegistry, PredictModel, ServeConfig};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;
    use std::sync::Arc;

    /// What the healthy server answers for a row summing to `sum`.
    fn rpv_of(sum: f64) -> [f64; N_MACHINES] {
        [sum, sum + 1.0, sum + 2.0, sum + 3.0]
    }

    fn local(scale: f64) -> Box<dyn RpvProvider> {
        Box::new(FnRpvProvider::new(
            "test-local",
            move |rows: &[&[f64]]| {
                Ok(rows
                    .iter()
                    .map(|r| rpv_of(r.iter().sum::<f64>() * scale))
                    .collect())
            },
        ))
    }

    /// The output tokens an honest server renders for rows with these sums.
    fn honest_tokens(sums: &[f64]) -> Vec<Vec<String>> {
        sums.iter()
            .map(|&s| rpv_of(s).iter().map(f64::to_string).collect())
            .collect()
    }

    /// The nested `outputs` value holding `tokens`.
    fn outputs_of(tokens: &[Vec<String>]) -> String {
        let rows: Vec<String> = tokens
            .iter()
            .map(|r| format!("[{}]", r.join(",")))
            .collect();
        format!("[{}]", rows.join(","))
    }

    fn honest(sums: &[f64]) -> String {
        outputs_of(&honest_tokens(sums))
    }

    /// What the fake server answers one request with.
    enum Reply {
        /// A well-framed response: this status, this `outputs` value.
        Json(u16, String),
        /// These bytes, whatever they are.
        Raw(String),
    }

    /// A fake predict server speaking the `rows` form on one connection:
    /// request `k` (from 0) gets the reply `answer(k, row sums)` returns,
    /// `None` drops the connection instead. Joins to the row sums of every
    /// request it read.
    fn fake_server(
        answer: impl Fn(usize, &[f64]) -> Option<Reply> + Send + 'static,
    ) -> (String, std::thread::JoinHandle<Vec<Vec<f64>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut seen = Vec::new();
            loop {
                // Read one request: headers then content-length body. A
                // client that is done (or degraded) has hung up.
                let mut len = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return seen;
                    }
                    let t = line.trim();
                    if t.is_empty() {
                        break;
                    }
                    if let Some(v) = t.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; len];
                if reader.read_exact(&mut body).is_err() {
                    return seen;
                }
                let body = String::from_utf8(body).unwrap();
                let rows = body
                    .strip_prefix("{\"model\":\"default\",\"rows\":[[")
                    .and_then(|b| b.strip_suffix("]]}"))
                    .unwrap_or_else(|| panic!("not a rows request: {body}"));
                let sums: Vec<f64> = rows
                    .split("],[")
                    .map(|row| row.split(',').map(|t| t.parse::<f64>().unwrap()).sum())
                    .collect();
                let Some(reply) = answer(seen.len(), &sums) else {
                    return seen;
                };
                let n_rows = sums.len();
                seen.push(sums);
                let resp = match reply {
                    Reply::Raw(bytes) => bytes,
                    Reply::Json(status, outputs) => {
                        let resp_body = format!(
                            "{{\"model\":\"default@v1\",\"batch_rows\":{n_rows},\"outputs\":{outputs}}}"
                        );
                        format!(
                            "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{resp_body}",
                            resp_body.len()
                        )
                    }
                };
                if writer.write_all(resp.as_bytes()).is_err() {
                    return seen;
                }
            }
        });
        (addr, handle)
    }

    /// Rows `from..from + n`, each summing to something distinct.
    fn rows(from: usize, n: usize) -> Vec<Vec<f64>> {
        (from..from + n).map(|i| vec![i as f64, 0.5, 2.0]).collect()
    }

    fn refs(data: &[Vec<f64>]) -> Vec<&[f64]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn chunk_size_fits_the_default_server() {
        let (batch, serve) = (BatchConfig::default(), ServeConfig::default());
        // A full pipeline of chunks never overruns the row-counted queue...
        assert_eq!(ROWS_PER_REQUEST, batch.queue_cap / serve.max_pipeline);
        assert!(ROWS_PER_REQUEST * serve.max_pipeline <= batch.queue_cap);
        // ...and whole chunks tile a batch.
        assert!(ROWS_PER_REQUEST <= batch.max_batch);
        assert_eq!(batch.max_batch % ROWS_PER_REQUEST, 0);
    }

    #[test]
    fn request_and_reply_shapes_round_trip() {
        let mut body = PredictRequest::new("we\"ird\\name");
        body.write(&[&[7.0]]);
        assert_eq!(
            body.write(&[&[1.0, -0.5], &[0.1 + 0.2, 3e-7]]),
            "{\"model\":\"we\\\"ird\\\\name\",\"rows\":[[1,-0.5],[0.30000000000000004,0.0000003]]}"
        );

        let parse = |body: &str, n| {
            let mut out = Vec::new();
            parse_outputs(body.as_bytes(), n, &mut out).map(|()| out)
        };
        let two =
            "{\"model\":\"m@v2\",\"batch_rows\":64,\"outputs\":[[1.5,-2.25,1e-3,0.1],[4,3,2,1]]}";
        assert_eq!(
            parse(two, 2),
            Some(vec![[1.5, -2.25, 1e-3, 0.1], [4.0, 3.0, 2.0, 1.0]])
        );
        assert_eq!(parse(two, 1), None, "more rows than asked for");
        assert_eq!(parse(two, 3), None, "fewer rows than asked for");
        // Entries ≤ 0 are a regressor's answer, not a protocol error.
        let low = parse("{\"outputs\":[[0,-0,-1e-3,2]]}", 1).unwrap()[0];
        assert_eq!(
            low.map(f64::to_bits),
            [0.0, -0.0, -1e-3, 2.0].map(f64::to_bits)
        );
        for bad in [
            "{\"outputs\":[[1,2,3]]}",
            "{\"outputs\":[[1,2,3,4,5]]}",
            "{\"outputs\":[1,2,3,4]}", // the one-row form's flat shape
            "{\"outputs\":[[1,2,3,null]]}",
            "{\"outputs\":[[1,2,3,NaN]]}",
            "{\"outputs\":[[1,-inf,3,4]]}",
            "{\"outputs\":[[1,2,3,4]]} trailing",
            "no outputs here",
        ] {
            assert_eq!(parse(bad, 1), None, "{bad}");
        }
        // Invalid UTF-8 is a protocol error, not U+FFFD.
        let mut out = Vec::new();
        assert_eq!(
            parse_outputs(b"{\"outputs\":[[1,2,3,4]]}\xff", 1, &mut out),
            None
        );
        // Shortest-roundtrip display survives the hop bit-exactly.
        let v = 0.1f64 + 0.2f64;
        let body = format!("{{\"outputs\":[[{v},{v},{v},{v}]]}}");
        assert_eq!(parse(&body, 1).unwrap()[0][0].to_bits(), v.to_bits());
    }

    #[test]
    fn batches_travel_in_order_as_chunks_of_32_rows() {
        for window in [1usize, 4, 32] {
            let (addr, handle) = fake_server(|_, sums| Some(Reply::Json(200, honest(sums))));
            let mut fed =
                FederatedRpv::new(&addr, "default", Duration::from_secs(5), window, local(1.0));
            // Every batch on the one keep-alive connection the fake accepts.
            let (mut from, mut requests) = (0usize, 0u64);
            for n in [0usize, 1, 31, 32, 33, 1_000] {
                let data = rows(from, n);
                let got = fed.predict(&refs(&data)).unwrap();
                let want: Vec<_> = data.iter().map(|r| rpv_of(r.iter().sum())).collect();
                assert_eq!(got, want, "{n} rows, window {window}");
                from += n;
                requests += n.div_ceil(ROWS_PER_REQUEST) as u64;
                let st = fed.stats();
                assert_eq!(st.requests, requests, "{n} rows, window {window}");
                assert_eq!(st.responses, requests);
                assert_eq!((st.rows, st.sent_rows), (from as u64, from as u64));
            }
            let st = fed.stats();
            assert_eq!(st.fallbacks, 0);
            assert!(!st.degraded);
            assert!(st.latency_us_max >= 1, "latency was measured");
            assert!(st.mean_latency_us() > 0.0);
            drop(fed);
            // Full chunks, then each batch's remainder.
            let mut want = Vec::new();
            for n in [1usize, 31, 32, 33, 1_000] {
                want.extend(std::iter::repeat(ROWS_PER_REQUEST).take(n / ROWS_PER_REQUEST));
                want.extend((n % ROWS_PER_REQUEST > 0).then_some(n % ROWS_PER_REQUEST));
            }
            let seen: Vec<usize> = handle.join().unwrap().iter().map(Vec::len).collect();
            assert_eq!(seen, want, "window {window}");
        }
    }

    #[test]
    fn each_distinct_row_of_a_batch_travels_once() {
        // The server adds 100 × a row's position in its request to the
        // answer, so an answer spread to the wrong input row would show.
        let (addr, handle) = fake_server(|_, sums| {
            let tagged: Vec<f64> = sums
                .iter()
                .enumerate()
                .map(|(j, s)| s + 100.0 * j as f64)
                .collect();
            Some(Reply::Json(200, honest(&tagged)))
        });
        let (a, b, c) = (vec![1.0, 0.5], vec![2.0, 0.5], vec![3.0, 0.5]);
        // Equal as numbers, not as bits: two rows.
        let (zero, negative_zero) = (vec![0.0, 4.0], vec![-0.0, 4.0]);
        let batch = [&a, &b, &a, &a, &c, &b, &zero, &negative_zero, &zero];
        let data: Vec<&[f64]> = batch.iter().map(|r| r.as_slice()).collect();
        let mut fed = FederatedRpv::new(&addr, "default", Duration::from_secs(5), 4, local(2.0));
        let got = fed.predict(&data).unwrap();
        // Each input row's position on the wire: a b c 0.0 -0.0.
        let wire = [0, 1, 0, 0, 2, 1, 3, 4, 3];
        let want = data
            .iter()
            .zip(wire)
            .map(|(r, j)| rpv_of(r.iter().sum::<f64>() + 100.0 * j as f64).map(f64::to_bits));
        let got_bits: Vec<_> = got.iter().map(|r| r.map(f64::to_bits)).collect();
        assert_eq!(got_bits, want.collect::<Vec<_>>());
        let st = fed.stats();
        assert_eq!(
            (st.requests, st.rows, st.sent_rows, st.fallbacks),
            (1, 9, 5, 0)
        );
        drop(fed);
        assert_eq!(handle.join().unwrap(), [vec![1.5, 2.5, 3.5, 4.0, 4.0]]);
    }

    #[test]
    fn a_batch_of_100_rows_with_40_distinct_sends_two_requests() {
        // Row i is distinct row 7i mod 40: all 40 within the first 40 rows.
        let distinct = rows(0, 40);
        let data: Vec<&[f64]> = (0..100).map(|i| &distinct[i * 7 % 40][..]).collect();
        let first_seen: Vec<f64> = data[..40].iter().map(|r| r.iter().sum()).collect();
        for bad_second_chunk in [false, true] {
            let (addr, handle) = fake_server(move |k, sums| {
                let status = if bad_second_chunk && k == 1 { 503 } else { 200 };
                Some(Reply::Json(status, honest(sums)))
            });
            let mut fed =
                FederatedRpv::new(&addr, "default", Duration::from_secs(5), 4, local(2.0));
            let got = fed.predict(&data).unwrap();
            let st = fed.stats();
            assert_eq!(st.requests, 2, "⌈40/32⌉");
            if bad_second_chunk {
                // Every row of the batch, repeats included, from the fallback.
                assert_eq!(got, local(2.0).predict(&data).unwrap());
                assert_eq!((st.rows, st.sent_rows, st.fallbacks), (0, 0, 100));
                assert!(st.degraded);
            } else {
                let want: Vec<_> = data.iter().map(|r| rpv_of(r.iter().sum())).collect();
                assert_eq!(got, want);
                assert_eq!((st.rows, st.sent_rows, st.fallbacks), (100, 40, 0));
            }
            drop(fed);
            assert_eq!(handle.join().unwrap().concat(), first_seen);
        }
    }

    #[test]
    fn a_bad_answer_on_any_chunk_sends_the_whole_batch_to_the_fallback() {
        // 100 rows are four chunks; the third (k == 2) goes wrong. The
        // fallback predicts differently from the server (scale 2), so a
        // batch that mixed the two sources would show.
        type Tokens = Vec<Vec<String>>;
        type Fault = fn(Tokens) -> Option<Reply>;
        fn json(status: u16, t: Tokens) -> Option<Reply> {
            Some(Reply::Json(status, outputs_of(&t)))
        }
        fn with_token(mut t: Tokens, token: &str) -> Option<Reply> {
            t[5][1] = token.to_string();
            json(200, t)
        }
        let faults: [(&str, Fault); 10] = [
            ("one row short", |mut t| {
                t.pop();
                json(200, t)
            }),
            ("one row over", |mut t| {
                t.push(t[0].clone());
                json(200, t)
            }),
            ("three outputs", |mut t| {
                t[5].pop();
                json(200, t)
            }),
            ("NaN", |t| with_token(t, "NaN")),
            ("inf", |t| with_token(t, "inf")),
            ("null", |t| with_token(t, "null")),
            ("status 503", |t| json(503, t)),
            ("connection dropped", |_| None),
            // Sizes the peer dictates are refused, not allocated.
            ("content-length of usize::MAX", |_| {
                let head = format!("HTTP/1.1 200 X\r\ncontent-length: {}\r\n\r\n", usize::MAX);
                Some(Reply::Raw(head))
            }),
            ("a head with no newline", |_| {
                Some(Reply::Raw(format!("HTTP/1.1 200 {}", "X".repeat(64 << 10))))
            }),
        ];
        for (what, fault) in faults {
            let (addr, handle) = fake_server(move |k, sums| {
                let honest = honest_tokens(sums);
                if k == 2 {
                    fault(honest)
                } else {
                    json(200, honest)
                }
            });
            let mut fed =
                FederatedRpv::new(&addr, "default", Duration::from_secs(5), 4, local(2.0));
            let data = rows(0, 100);
            let got = fed.predict(&refs(&data)).unwrap();
            assert_eq!(got, local(2.0).predict(&refs(&data)).unwrap(), "{what}");
            let st = fed.stats();
            assert!(st.degraded, "{what}");
            assert_eq!(st.timeouts, 0, "{what}: refused on sight, not waited out");
            assert_eq!((st.rows, st.fallbacks), (0, 100), "{what}: never a mix");
            // Degraded for good: the next batch asks the server nothing.
            let sent = st.requests;
            let more = fed.predict(&refs(&data[..40])).unwrap();
            assert_eq!(more, local(2.0).predict(&refs(&data[..40])).unwrap());
            let st = fed.stats();
            assert_eq!(
                (st.requests, st.rows, st.fallbacks),
                (sent, 0, 140),
                "{what}"
            );
            drop(fed);
            handle.join().unwrap();
        }
    }

    /// Three features in, `rpv_of(their sum)` out.
    struct SumModel;

    impl PredictModel for SumModel {
        fn n_features(&self) -> usize {
            3
        }
        fn n_outputs(&self) -> usize {
            N_MACHINES
        }
        fn predict_batch(&self, rows: &[f64], _n_rows: usize) -> Result<Vec<f64>, MphpcError> {
            Ok(rows
                .chunks(3)
                .flat_map(|r| rpv_of(r.iter().sum()))
                .collect())
        }
    }

    #[test]
    fn a_window_wider_than_the_servers_pipeline_never_falls_back() {
        // 64 requests of 32 rows in flight are twice the default queue_cap;
        // the server reads only max_pipeline (32) of them ahead, so none
        // is ever answered 503.
        let registry = Arc::new(ModelRegistry::new(Arc::new(|_: &str| {
            Err(MphpcError::Serve("no uploads in this test".to_string()))
        })));
        // `install` takes any name; one that needs escaping in JSON is
        // still asked for, and answered, by that name.
        let names = ["default", "we\"ird\\name"];
        for name in names {
            registry.install(name, Arc::new(SumModel));
        }
        let handle = serve(ServeConfig::default(), registry).expect("server starts");
        let addr = handle.addr().to_string();
        for name in names {
            let mut fed = FederatedRpv::new(&addr, name, Duration::from_secs(10), 64, local(2.0));
            let data = rows(0, 5_000);
            for _ in 0..2 {
                let got = fed.predict(&refs(&data)).unwrap();
                let want: Vec<_> = data.iter().map(|r| rpv_of(r.iter().sum())).collect();
                assert_eq!(got, want, "{name}");
            }
            let st = fed.stats();
            assert_eq!(
                (st.rows, st.fallbacks, st.degraded),
                (10_000, 0, false),
                "{name}"
            );
            assert_eq!(st.requests, 2 * 5_000u64.div_ceil(ROWS_PER_REQUEST as u64));
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn unreachable_server_is_a_clean_immediate_fallback() {
        // Port 1 on localhost refuses connections.
        let mut fed = FederatedRpv::new(
            "127.0.0.1:1",
            "default",
            Duration::from_millis(200),
            4,
            local(2.0),
        );
        let data = rows(0, 3);
        let out = fed.predict(&refs(&data)).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], rpv_of(data[0].iter().sum::<f64>() * 2.0));
        let st = fed.stats();
        assert!(st.degraded);
        assert_eq!((st.requests, st.rows, st.fallbacks), (0, 0, 3));
    }

    #[test]
    fn provider_length_mismatch_is_an_error() {
        let mut bad = FnRpvProvider::new("bad", |rows: &[&[f64]]| {
            Ok(vec![[1.0; N_MACHINES]; rows.len() + 1])
        });
        let data = rows(0, 2);
        assert!(bad.predict(&refs(&data)).is_err());
    }
}
