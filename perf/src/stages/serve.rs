//! Serve: `/predict` at job-submit time, open loop.
//!
//! An in-process `serve()` with one shard hosts the default 100-tree forest
//! (the HTTP-bound case) as `default` and the GBT as `gbt` (for the
//! federated scheduler). After a closed-loop warm-up, requests fall due at a
//! fixed total rate over two keep-alive connections, one request per due
//! time, whatever the server does; latency is counted from the due time.
//! Job submissions are independent arrivals, so this is fixed per-request
//! cost — parse, queue hand-off, wake-ups, single-row predict, render —
//! with nothing for batching to amortise.

use crate::loadgen::{lateness, open_loop, RecvHalf, Sample, Schedule, SendHalf};
use crate::run::Ctx;
use crate::stages::chain;
use crate::stages::setup::Inputs;
use crate::stages::train::Models;
use crate::stats::{median, tail_p99};
use crate::workload::SERVE_CONNS;
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_serve::client::ClientConn;
use mphpc_serve::{
    http, json, serve, BatchConfig, MicroBatcher, ModelRegistry, PredictModel, ServeConfig,
    ServerHandle,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct feature rows the load cycles through.
const DISTINCT_ROWS: usize = 512;
/// Long enough to sit out a pause of the host; a run that hits it fails.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(20);

/// The running server and what the stages need to talk to it.
pub struct Server {
    handle: ServerHandle,
    pub addr: String,
    pub registry: Arc<ModelRegistry>,
    /// The hosted forest, for computing expected outputs locally.
    pub forest: Arc<ServedPredictor>,
}

impl Server {
    /// Shut down gracefully and wait for every server thread to end.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.handle.join();
    }
}

pub fn start(models: &Models) -> Result<Server, String> {
    let registry = Arc::new(ModelRegistry::new(predictor_loader()));
    let forest = Arc::new(ServedPredictor::new(models.forest.clone()));
    registry.install("default", Arc::clone(&forest) as Arc<dyn PredictModel>);
    registry.install("gbt", Arc::new(ServedPredictor::new(models.gbt.clone())));
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let handle = serve(cfg, Arc::clone(&registry)).map_err(chain("starting the server"))?;
    let addr = handle.addr().to_string();
    Ok(Server {
        handle,
        addr,
        registry,
        forest,
    })
}

/// `{"features":[...]}` with shortest round-trip floats, so the server
/// parses back the exact bits.
fn request_body(row: &[f64; 21]) -> String {
    let mut body = String::from("{\"features\":[");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{v}");
    }
    body.push_str("]}");
    body
}

/// The bytes `ClientConn::send` would write for this body.
fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nhost: mphpc\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `/predict` answer: status and, for a 200, what the body said.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub model_tag: String,
    pub batch_rows: usize,
    pub outputs: [f64; 4],
}

fn field<'a>(body: &'a str, key: &str, end: char) -> Option<&'a str> {
    let start = body.find(key)? + key.len();
    let len = body[start..].find(end)?;
    Some(&body[start..start + len])
}

/// Read the fixed shape the server renders:
/// `{"model":"name@vN","batch_rows":N,"outputs":[a,b,c,d]}`.
pub fn parse_reply(status: u16, body: &str) -> Option<Reply> {
    let mut outputs = [0.0; 4];
    let mut n = 0;
    for tok in field(body, "\"outputs\":[", ']')?.split(',') {
        *outputs.get_mut(n)? = tok.trim().parse().ok()?;
        n += 1;
    }
    (n == 4).then_some(())?;
    Some(Reply {
        status,
        model_tag: field(body, "\"model\":\"", '"')?.to_string(),
        batch_rows: field(body, "\"batch_rows\":", ',')?.trim().parse().ok()?,
        outputs,
    })
}

struct HttpTx {
    stream: TcpStream,
    requests: Arc<Vec<Vec<u8>>>,
}

impl SendHalf for HttpTx {
    fn send(&mut self, request: usize) -> io::Result<()> {
        self.stream
            .write_all(&self.requests[request % self.requests.len()])
    }
}

struct HttpRx {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl HttpRx {
    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        std::str::from_utf8(&self.line)
            .map(|l| l.trim_end_matches(['\r', '\n']))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))
    }
}

impl RecvHalf for HttpRx {
    type Reply = Option<Reply>;

    /// One response; `None` if it is not a well-formed `/predict` answer.
    fn recv(&mut self) -> io::Result<Option<Reply>> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = self
            .read_line()?
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        if length > 1 << 20 {
            return Err(bad("response body too large"));
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(std::str::from_utf8(&self.body)
            .ok()
            .and_then(|b| parse_reply(status, b)))
    }
}

fn connect(addr: &str, requests: &Arc<Vec<Vec<u8>>>) -> io::Result<(HttpTx, HttpRx)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let tx = HttpTx {
        stream: stream.try_clone()?,
        requests: Arc::clone(requests),
    };
    let rx = HttpRx {
        reader: BufReader::new(stream),
        line: Vec::new(),
        body: Vec::new(),
    };
    Ok((tx, rx))
}

/// What the load cycles through, and what each row must answer.
struct Load {
    rows: Vec<[f64; 21]>,
    bodies: Vec<String>,
    requests: Arc<Vec<Vec<u8>>>,
    expected: Vec<[u64; 4]>,
}

fn build_load(inputs: &Inputs, forest: &ServedPredictor) -> Result<Load, String> {
    let rows: Vec<[f64; 21]> = inputs
        .features
        .iter()
        .cycle()
        .take(DISTINCT_ROWS)
        .copied()
        .collect();
    let bodies: Vec<String> = rows.iter().map(request_body).collect();
    let requests = Arc::new(bodies.iter().map(|b| request_bytes(b)).collect());
    let mut expected = Vec::with_capacity(rows.len());
    for row in &rows {
        let out = forest
            .predict_batch(row, 1)
            .map_err(chain("local prediction"))?;
        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        expected.push(
            bits.try_into()
                .map_err(|_| "the served model must have four outputs")?,
        );
    }
    Ok(Load {
        rows,
        bodies,
        requests,
        expected,
    })
}

fn reply_is_right(reply: &Option<Reply>, expected: &[u64; 4]) -> bool {
    reply.as_ref().is_some_and(|r| {
        r.status == 200 && r.model_tag == "default@v1" && r.outputs.map(f64::to_bits) == *expected
    })
}

/// Closed loop, depth one, on every connection for `secs`: the warm-up, and
/// the capacity figure the open-loop rate is held against.
fn closed_loop(ctx: &mut Ctx, addr: &str, load: &Load, secs: f64) -> Result<f64, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let counts: Vec<io::Result<(usize, usize)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SERVE_CONNS)
            .map(|c| {
                scope.spawn(move || -> io::Result<(usize, usize)> {
                    let mut conn = ClientConn::connect(addr, SOCKET_TIMEOUT)?;
                    let (mut done, mut wrong) = (0, 0);
                    let mut i = c;
                    while Instant::now() < deadline {
                        let k = i % load.bodies.len();
                        let resp = conn.request("POST", "/predict", &load.bodies[k])?;
                        let reply = parse_reply(resp.status, &resp.text());
                        wrong += usize::from(!reply_is_right(&reply, &load.expected[k]));
                        done += 1;
                        i += SERVE_CONNS;
                    }
                    Ok((done, wrong))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut total = 0;
    for c in counts {
        let (done, wrong) = c.map_err(|e| format!("closed-loop client: {e}"))?;
        ctx.ledger.ops_ok(done - wrong);
        for _ in 0..wrong {
            ctx.ledger.op(false, || {
                "closed loop: wrong or non-200 response".to_string()
            });
        }
        total += done;
    }
    Ok(total as f64 / elapsed)
}

fn ns_per_op(iterations: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        f();
    }
    started.elapsed().as_nanos() as f64 / iterations as f64
}

/// Per-request cost of each server layer, each function called alone.
fn layer_metrics(ctx: &mut Ctx, server: &Server, load: &Load, p50_us: f64) -> Result<(), String> {
    let iterations = if ctx.args.smoke { 2_000 } else { 50_000 };
    let request = &load.requests[0];
    let parse_ns = ns_per_op(iterations, || {
        black_box(http::parse_head(black_box(request), http::MAX_HEAD_BYTES));
    });
    let mut features = Vec::with_capacity(21);
    let body = load.bodies[0].as_str();
    let scan_ns = ns_per_op(iterations, || {
        black_box(json::scan_predict_body(black_box(body), &mut features));
    });
    let outputs = load.expected[0].map(f64::from_bits);
    let (mut body_buf, mut out) = (Vec::new(), Vec::new());
    let render_ns = ns_per_op(iterations, || {
        // What the server's reply renderer does for a 200.
        body_buf.clear();
        out.clear();
        body_buf.extend_from_slice(b"{\"model\":");
        json::write_json_str(&mut body_buf, "default@v1");
        let _ = std::io::Write::write_fmt(
            &mut body_buf,
            format_args!(",\"batch_rows\":{},\"outputs\":[", 1),
        );
        for (i, v) in outputs.iter().enumerate() {
            if i > 0 {
                body_buf.push(b',');
            }
            json::write_json_num(&mut body_buf, *v);
        }
        body_buf.extend_from_slice(b"]}");
        http::render_response(&mut out, 200, &[], &body_buf, true);
        black_box(&out);
    });

    let calls = iterations / 10;
    let mut predict_us = Vec::with_capacity(calls);
    for i in 0..calls {
        let row = &load.rows[i % load.rows.len()];
        let t = Instant::now();
        black_box(
            server
                .forest
                .predict_batch(black_box(row), 1)
                .map_err(chain("replaying predict_batch"))?,
        );
        predict_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let model_us = median(&predict_us);

    // One submitter, one row at a time, through a batcher of its own: the
    // round trip is queue hand-off plus the same prediction.
    let batcher = MicroBatcher::start(BatchConfig::default());
    let model = server
        .registry
        .get("default")
        .ok_or("the registry lost `default`")?;
    let mut roundtrip_us = Vec::with_capacity(calls);
    for i in 0..calls {
        let row = load.rows[i % load.rows.len()].to_vec();
        let t = Instant::now();
        let rx = batcher
            .submit(Arc::clone(&model), row)
            .map_err(|e| format!("batcher refused a row: {e:?}"))?;
        black_box(rx.recv().map_err(|_| "the batcher dropped a reply")?);
        roundtrip_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    batcher.shutdown();
    let roundtrip = median(&roundtrip_us);

    let l = &mut ctx.ledger;
    l.put("serve.parse_head_ns", "ns", parse_ns, iterations);
    l.put("serve.scan_body_ns", "ns", scan_ns, iterations);
    l.put("serve.render_ns", "ns", render_ns, iterations);
    l.put("serve.model_predict_us", "us", model_us, calls);
    l.put("serve.batch_roundtrip_us", "us", roundtrip, calls);
    l.put(
        "serve.queue_handoff_us",
        "us",
        (roundtrip - model_us).max(0.0),
        calls,
    );
    let accounted = (parse_ns + scan_ns + render_ns) / 1e3 + roundtrip;
    l.put("serve.wire_us", "us", p50_us - accounted, 1);
    Ok(())
}

/// The serve stage's state across rounds.
pub struct Stage {
    load: Load,
    closed_rps: f64,
    /// Latency of every correct answer, microseconds, in request order.
    latencies: Vec<f64>,
    /// How late the pacer wrote each request, microseconds.
    late_us: Vec<f64>,
    batch_rows: usize,
    open_loop_s: f64,
}

impl Stage {
    /// Build the load and warm the server up with a short closed loop.
    pub fn new(ctx: &mut Ctx, inputs: &Inputs, server: &Server) -> Result<Self, String> {
        let load = build_load(inputs, &server.forest)?;
        let token = ctx.tracer.open("serve.closed_loop");
        let closed_rps = closed_loop(ctx, &server.addr, &load, ctx.sizes.warmup_secs);
        ctx.tracer.close(token);
        Ok(Self {
            load,
            closed_rps: closed_rps?,
            latencies: Vec::new(),
            late_us: Vec::new(),
            batch_rows: 0,
            open_loop_s: 0.0,
        })
    }

    /// One stretch of open loop: the base length, or until `until` if that
    /// is later (the emphasised stage fills its round).
    ///
    /// A stretch in which a connection failed (end of stream, timeout) is
    /// repeated once: the host pauses for seconds now and then, and the
    /// server then closes connections on its own read deadline. The repeat
    /// is counted in the `serve_slices_repeated` parameter; failures in the
    /// repeated stretch, and wrong answers in any, are failed operations.
    pub fn slice(
        &mut self,
        ctx: &mut Ctx,
        server: &Server,
        until: Option<Instant>,
    ) -> Result<(), String> {
        let secs = until
            .map_or(0.0, |u| {
                u.saturating_duration_since(Instant::now()).as_secs_f64()
            })
            .max(ctx.sizes.serve_secs);
        let mut samples = self.open_loop(ctx, server, secs)?;
        if samples.iter().any(|s| s.outcome.is_err()) {
            ctx.ledger.bump("serve_slices_repeated");
            samples = self.open_loop(ctx, server, ctx.sizes.serve_secs)?;
        }
        for (i, s) in samples.iter().enumerate() {
            let expected = &self.load.expected[i % self.load.expected.len()];
            self.late_us.push(s.late_us());
            match &s.outcome {
                Ok((done, reply)) if reply_is_right(reply, expected) => {
                    ctx.ledger.ops_ok(1);
                    self.batch_rows += reply.as_ref().map_or(0, |r| r.batch_rows);
                    self.latencies
                        .push(s.latency_us().expect("answered sample has a latency"));
                    if i < 500 {
                        ctx.tracer.record("serve.request", s.due, *done);
                    }
                }
                Ok((_, reply)) => ctx
                    .ledger
                    .op(false, || format!("request {i}: wrong answer {reply:?}")),
                Err(e) => ctx.ledger.op(false, || format!("request {i}: {e}")),
            }
        }
        Ok(())
    }

    fn open_loop(
        &mut self,
        ctx: &mut Ctx,
        server: &Server,
        secs: f64,
    ) -> Result<Vec<Sample<Option<Reply>>>, String> {
        let rate = ctx.sizes.rate_rps;
        let mut conns = Vec::with_capacity(SERVE_CONNS);
        for _ in 0..SERVE_CONNS {
            conns.push(
                connect(&server.addr, &self.load.requests)
                    .map_err(|e| format!("connecting: {e}"))?,
            );
        }
        let schedule = Schedule {
            start: Instant::now() + Duration::from_millis(10),
            rate_rps: rate,
            total: (rate * secs) as usize,
        };
        let stage = ctx.tracer.open("stage.serve");
        let token = ctx.tracer.open("serve.open_loop");
        let samples = open_loop(conns, schedule);
        ctx.tracer.close(token);
        ctx.tracer.close(stage);
        self.open_loop_s += secs;
        Ok(samples)
    }

    pub fn finish(self, ctx: &mut Ctx, server: &Server) -> Result<(), String> {
        if self.latencies.is_empty() {
            return Err("the open loop got no correct answer".to_string());
        }
        let rate = ctx.sizes.rate_rps;
        let n = self.latencies.len();
        let tail = tail_p99(&self.latencies);
        let p50 = median(&self.latencies);
        ctx.ledger.put("serve_p50_us", "us", p50, n);
        ctx.ledger.put("serve_p99_us", "us", tail.value, n);
        ctx.ledger.param("serve_tail_percentile", tail.percentile);
        ctx.ledger.param("serve_tail_windows", tail.windows as f64);
        ctx.ledger.param("rate_rps", rate);
        ctx.ledger.param("serve_open_loop_s", self.open_loop_s);
        ctx.ledger.param("serve_closed_loop_rps", self.closed_rps);
        if !ctx.args.trace {
            return Ok(());
        }
        let late = lateness(&self.late_us, rate, SERVE_CONNS);
        let l = &mut ctx.ledger;
        l.put(
            "serve.batch_rows_mean",
            "rows",
            self.batch_rows as f64 / n as f64,
            n,
        );
        l.put("serve.closed_loop_rps", "1/s", self.closed_rps, 1);
        l.put("serve.utilisation", "ratio", rate / self.closed_rps, 1);
        l.put(
            "serve.generator_late_share",
            "ratio",
            late.late_share,
            self.late_us.len(),
        );
        l.put(
            "serve.generator_late_p99_us",
            "us",
            late.late_p99_us,
            self.late_us.len(),
        );
        layer_metrics(ctx, server, &self.load, p50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_and_requests_match_the_client() {
        let body = "{\"model\":\"default@v1\",\"batch_rows\":3,\"outputs\":[1,0.5,2.25,1e-3]}";
        let r = parse_reply(200, body).unwrap();
        assert_eq!(r.model_tag, "default@v1");
        assert_eq!(r.batch_rows, 3);
        assert_eq!(r.outputs, [1.0, 0.5, 2.25, 0.001]);
        assert_eq!(parse_reply(200, "{\"error\":\"x\"}"), None);
        assert_eq!(
            parse_reply(
                200,
                "{\"model\":\"m@v1\",\"batch_rows\":1,\"outputs\":[1,2,3]}"
            ),
            None
        );
        assert_eq!(
            parse_reply(
                200,
                "{\"model\":\"m@v1\",\"batch_rows\":1,\"outputs\":[1,2,3,4,5]}"
            ),
            None
        );

        let mut row = [0.0; 21];
        row[0] = 0.1;
        row[20] = -3.5e-7;
        let body = request_body(&row);
        assert!(body.starts_with("{\"features\":[0.1,0,"));
        assert!(body.ends_with(",-0.00000035]}"));
        let mut features = Vec::new();
        assert_eq!(json::scan_predict_body(&body, &mut features), Some(None));
        assert_eq!(features, row);
        let bytes = request_bytes(&body);
        let http::Parse::Head(head) = http::parse_head(&bytes, http::MAX_HEAD_BYTES) else {
            panic!("the server must accept the generator's request head");
        };
        assert_eq!(
            (head.method, head.path, head.content_length),
            ("POST", "/predict", body.len())
        );
    }
}
