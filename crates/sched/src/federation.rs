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
//!   keep-alive pipelined HTTP client, with a bounded in-flight window,
//!   per-request timeouts, and degradation to a local fallback provider:
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
//! Serving latency is a first-class simulator metric: every response's
//! send→receive time lands in the `sched.federation.lookup_us` histogram
//! and in [`FederationStats`], so `exp_sched_scale` can report scheduler
//! throughput *with* the prediction-service term the same way Li et al.
//! (2310.16792) argue it must be measured.

use crate::job::{finite_rpv, N_MACHINES};
use mphpc_errors::MphpcError;
use mphpc_serve::client::ClientConn;
use std::collections::VecDeque;
use std::fmt::Write as _;
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FederationStats {
    /// Requests sent to the server.
    pub requests: u64,
    /// Responses successfully received and parsed.
    pub responses: u64,
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
    /// Mean per-lookup serving latency in microseconds (0 when no
    /// response ever arrived).
    pub fn mean_latency_us(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.latency_us_total as f64 / self.responses as f64
        }
    }
}

/// Federated provider: RPVs from a live `mphpc serve` endpoint, degrading
/// permanently to `fallback` on the first error.
pub struct FederatedRpv<'a> {
    addr: String,
    model: String,
    timeout: Duration,
    max_inflight: usize,
    conn: Option<ClientConn>,
    fallback: Box<dyn RpvProvider + 'a>,
    stats: FederationStats,
}

impl<'a> FederatedRpv<'a> {
    /// A provider for `POST /predict` on `addr`, predicting with model
    /// `model` ("default" unless the server hosts several), with at most
    /// `max_inflight` pipelined requests outstanding and `timeout` on
    /// every socket operation. `fallback` answers everything after the
    /// first failure (and the rows of the failing batch itself).
    pub fn new(
        addr: &str,
        model: &str,
        timeout: Duration,
        max_inflight: usize,
        fallback: Box<dyn RpvProvider + 'a>,
    ) -> Self {
        Self {
            addr: addr.to_string(),
            model: model.to_string(),
            timeout,
            max_inflight: max_inflight.max(1),
            conn: None,
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

    /// Pipelined round trip for the whole batch; any error returns `Err`
    /// and the caller falls back for the entire batch.
    fn predict_remote(&mut self, rows: &[&[f64]]) -> std::io::Result<Vec<[f64; N_MACHINES]>> {
        if self.conn.is_none() {
            self.conn = Some(ClientConn::connect(&self.addr, self.timeout)?);
        }
        let mut out = Vec::with_capacity(rows.len());
        let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(self.max_inflight);
        let mut next = 0usize;
        let telemetry = mphpc_telemetry::enabled();
        let conn = self.conn.as_mut().expect("connected above");
        while out.len() < rows.len() {
            // Fill the window before draining: the server answers
            // strictly in order, so send/recv pair up FIFO.
            while next < rows.len() && inflight.len() < self.max_inflight {
                let body = request_body(&self.model, rows[next]);
                conn.send("POST", "/predict", &body)?;
                self.stats.requests += 1;
                inflight.push_back(Instant::now());
                next += 1;
            }
            let sent_at = inflight.pop_front().expect("window non-empty");
            let resp = conn.recv()?;
            let us = sent_at.elapsed().as_micros() as u64;
            self.stats.responses += 1;
            self.stats.latency_us_total += us;
            self.stats.latency_us_max = self.stats.latency_us_max.max(us);
            if telemetry {
                mphpc_telemetry::histogram_record("sched.federation.lookup_us", us as f64);
            }
            if resp.status != 200 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("predict returned status {}", resp.status),
                ));
            }
            // An RPV the engine would reject (`"NaN".parse()` succeeds) is
            // a protocol error like any other: the whole batch goes to the
            // fallback.
            let rpv = parse_outputs(&resp.text())
                .filter(finite_rpv)
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "predict response without 4 finite outputs",
                    )
                })?;
            out.push(rpv);
        }
        Ok(out)
    }
}

impl RpvProvider for FederatedRpv<'_> {
    fn predict(&mut self, rows: &[&[f64]]) -> Result<Vec<[f64; N_MACHINES]>, MphpcError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        if !self.stats.degraded {
            match self.predict_remote(rows) {
                Ok(out) => {
                    if mphpc_telemetry::enabled() {
                        mphpc_telemetry::counter_add(
                            "sched.federation.requests",
                            rows.len() as u64,
                        );
                    }
                    return Ok(out);
                }
                Err(e) => {
                    self.degrade(&e);
                }
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

/// One `POST /predict` body. `{}` is shortest-roundtrip for f64: the
/// server's parse recovers the exact bits, which is what keeps federated
/// schedules identical to local ones.
fn request_body(model: &str, row: &[f64]) -> String {
    let mut body = String::with_capacity(32 + 24 * row.len());
    body.push_str("{\"model\":\"");
    body.push_str(model);
    body.push_str("\",\"features\":[");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{v}");
    }
    body.push_str("]}");
    body
}

/// Extract the `"outputs":[a,b,c,d]` array from a predict response body.
/// The server's JSON is machine-generated with a fixed shape, so a
/// positional scan is exact (and keeps `serde` off the simulator's hot
/// path).
fn parse_outputs(body: &str) -> Option<[f64; N_MACHINES]> {
    let start = body.find("\"outputs\":[")? + "\"outputs\":[".len();
    let end = start + body[start..].find(']')?;
    let mut out = [0.0; N_MACHINES];
    let mut n = 0;
    for tok in body[start..end].split(',') {
        if n >= N_MACHINES {
            return None;
        }
        out[n] = tok.trim().parse().ok()?;
        n += 1;
    }
    (n == N_MACHINES).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    fn local(scale: f64) -> Box<dyn RpvProvider> {
        Box::new(FnRpvProvider::new(
            "test-local",
            move |rows: &[&[f64]]| {
                Ok(rows
                    .iter()
                    .map(|r| {
                        let s: f64 = r.iter().sum::<f64>() * scale;
                        [s, s + 1.0, s + 2.0, s + 3.0]
                    })
                    .collect())
            },
        ))
    }

    /// A fake predict server: answers `n_ok` requests with the same
    /// function `local(1.0)` computes, then drops the connection.
    fn fake_server(n_ok: usize) -> (String, std::thread::JoinHandle<()>) {
        fake_server_rendering(n_ok, |sum| {
            format!("{},{},{},{}", sum, sum + 1.0, sum + 2.0, sum + 3.0)
        })
    }

    /// [`fake_server`] with the `outputs` array's contents rendered by
    /// `outputs` from the request's feature sum.
    fn fake_server_rendering(
        n_ok: usize,
        outputs: impl Fn(f64) -> String + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..n_ok {
                // Read one request: headers then content-length body.
                let mut len = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
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
                    return;
                }
                let body = String::from_utf8(body).unwrap();
                let s = body.find("\"features\":[").unwrap() + "\"features\":[".len();
                let e = s + body[s..].find(']').unwrap();
                let sum: f64 = body[s..e]
                    .split(',')
                    .map(|t| t.trim().parse::<f64>().unwrap())
                    .sum();
                let resp_body = format!(
                    "{{\"model\":\"default@v1\",\"batch_rows\":1,\"outputs\":[{}]}}",
                    outputs(sum)
                );
                let head = format!(
                    "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                    resp_body.len()
                );
                // A client that degraded has hung up; that ends the session.
                if writer.write_all(head.as_bytes()).is_err()
                    || writer.write_all(resp_body.as_bytes()).is_err()
                {
                    return;
                }
            }
            // Connection drops here; further recv() on the client errors.
        });
        (addr, handle)
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, 0.5, 2.0]).collect()
    }

    #[test]
    fn parse_outputs_round_trip() {
        let body = "{\"model\":\"m@v2\",\"batch_rows\":1,\"outputs\":[1.5,-2.25,1e-3,0.1]}";
        assert_eq!(parse_outputs(body), Some([1.5, -2.25, 1e-3, 0.1]));
        assert_eq!(parse_outputs("{\"outputs\":[1,2,3]}"), None);
        assert_eq!(parse_outputs("{\"outputs\":[1,2,3,4,5]}"), None);
        assert_eq!(parse_outputs("no outputs here"), None);
        // Shortest-roundtrip display survives the hop bit-exactly.
        let v = 0.1f64 + 0.2f64;
        let body = format!("{{\"outputs\":[{v},{v},{v},{v}]}}");
        assert_eq!(parse_outputs(&body).unwrap()[0].to_bits(), v.to_bits());
    }

    #[test]
    fn healthy_server_answers_pipelined_batches() {
        let (addr, handle) = fake_server(12);
        let mut fed = FederatedRpv::new(&addr, "default", Duration::from_secs(2), 4, local(1.0));
        let data = rows(12);
        let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        // Two batches (5 + 7) across one keep-alive connection.
        let a = fed.predict(&refs[..5]).unwrap();
        let b = fed.predict(&refs[5..]).unwrap();
        let expect = |r: &[f64]| {
            let s: f64 = r.iter().sum();
            [s, s + 1.0, s + 2.0, s + 3.0]
        };
        for (i, got) in a.iter().chain(b.iter()).enumerate() {
            assert_eq!(*got, expect(&data[i]), "row {i}");
        }
        let st = fed.stats();
        assert_eq!(st.requests, 12);
        assert_eq!(st.responses, 12);
        assert_eq!(st.fallbacks, 0);
        assert!(!st.degraded);
        assert!(st.latency_us_max >= 1, "latency was measured");
        handle.join().unwrap();
    }

    #[test]
    fn server_death_mid_batch_degrades_to_fallback_for_whole_batch() {
        // Server answers 3 requests then drops; the 8-row batch must be
        // answered entirely by the fallback (no remote/local mixing).
        let (addr, handle) = fake_server(3);
        let mut fed = FederatedRpv::new(&addr, "default", Duration::from_secs(2), 4, local(1.0));
        let data = rows(8);
        let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let out = fed.predict(&refs).unwrap();
        // Fallback computes the same function here, so outputs match the
        // healthy path — which is exactly the bit-identity the real
        // deployment gets from running the same model on both sides.
        for (i, r) in data.iter().enumerate() {
            let s: f64 = r.iter().sum();
            assert_eq!(out[i], [s, s + 1.0, s + 2.0, s + 3.0]);
        }
        let st = fed.stats();
        assert!(st.degraded);
        assert_eq!(st.fallbacks, 8, "whole batch recomputed locally");
        // Next batch goes straight to the fallback without reconnecting.
        let more = fed.predict(&refs[..2]).unwrap();
        assert_eq!(more.len(), 2);
        assert_eq!(fed.stats().fallbacks, 10);
        handle.join().unwrap();
    }

    #[test]
    fn non_finite_outputs_are_a_protocol_error() {
        // These tokens parse as f64, so the shape check alone would pass
        // them straight to the strategies.
        for outputs in ["NaN,1,1,1", "1,inf,1,1", "1,1,-inf,1"] {
            let (addr, handle) = fake_server_rendering(4, move |_| outputs.to_string());
            let mut fed =
                FederatedRpv::new(&addr, "default", Duration::from_secs(2), 4, local(1.0));
            let data = rows(4);
            let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
            let out = fed.predict(&refs).unwrap();
            assert_eq!(out, local(1.0).predict(&refs).unwrap(), "{outputs}");
            let st = fed.stats();
            assert!(st.degraded, "{outputs}");
            assert_eq!(st.fallbacks, 4, "{outputs}: whole batch from the fallback");
            drop(fed);
            handle.join().unwrap();
        }
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
        let data = rows(3);
        let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let out = fed.predict(&refs).unwrap();
        assert_eq!(out.len(), 3);
        let s: f64 = data[0].iter().sum::<f64>() * 2.0;
        assert_eq!(out[0], [s, s + 1.0, s + 2.0, s + 3.0]);
        assert!(fed.stats().degraded);
        assert_eq!(fed.stats().requests, 0);
    }

    #[test]
    fn provider_length_mismatch_is_an_error() {
        let mut bad = FnRpvProvider::new("bad", |rows: &[&[f64]]| {
            Ok(vec![[1.0; N_MACHINES]; rows.len() + 1])
        });
        let data = rows(2);
        let refs: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        assert!(bad.predict(&refs).is_err());
    }
}
