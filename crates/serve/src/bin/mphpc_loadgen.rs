//! Closed-loop load generator for `mphpc serve`.
//!
//! Holds `--clients` simultaneous connections, each with `--pipeline`
//! requests in flight (default 1: send, then receive), and issues
//! `POST /predict` back-to-back for `--duration-ms`. A pool of at most 8
//! driver threads multiplexes the connections in rounds — send on every
//! connection, then receive on every connection — so up to 8 clients are
//! one thread per connection and 10 000 still fit one process. Prints
//! one row per client count: throughput, exact latency quantiles
//! (computed from every recorded sample, not the telemetry buckets), the
//! 200 / 503 / error counts and the mean batch size the server actually
//! coalesced. The CI serving and watch smokes run this binary; how fast
//! the server *is* comes from `mphpc_perf` (`serve.closed_loop_rps`).
//!
//! ```text
//! mphpc_loadgen --addr 127.0.0.1:8077 [--clients 32,256,1024] [--duration-ms 2000]
//!               [--model default] [--expect-min-ok 1] [--shutdown]
//!               [--no-keepalive] [--pipeline 1]
//! ```
//!
//! `--no-keepalive` reconnects every connection every round, pricing the
//! accept + admission path. Exits non-zero unless every row saw at least
//! `--expect-min-ok` successful responses.

use std::time::{Duration, Instant};

use mphpc_serve::client::{request_once, ClientConn, PredictRequest};
use mphpc_serve::json::JsonValue;

/// What every driver thread is told.
struct Load {
    addr: String,
    model: String,
    n_features: usize,
    duration: Duration,
    no_keepalive: bool,
    pipeline: usize,
}

/// What one driver thread, or one whole row, saw.
#[derive(Default)]
struct Tally {
    ok: u64,
    /// 503s: the server shed the request.
    rejected: u64,
    errors: u64,
    latencies_s: Vec<f64>,
    batch_rows_sum: u64,
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mphpc_loadgen: {msg}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut load = Load {
        addr: String::new(),
        model: "default".to_string(),
        n_features: 0,
        duration: Duration::from_millis(2000),
        no_keepalive: false,
        pipeline: 1,
    };
    let mut clients = vec![32usize];
    let mut expect_min_ok = 1u64;
    let mut shutdown_after = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |word: &str| {
            let parsed = word.trim().parse::<u64>();
            parsed.map_err(|e| format!("bad {flag} {word:?}: {e}"))
        };
        match flag.as_str() {
            "--addr" => load.addr = value()?,
            "--clients" => {
                clients = value()?
                    .split(',')
                    .map(|word| number(word).map(|n| n as usize))
                    .collect::<Result<_, _>>()?
            }
            "--duration-ms" => load.duration = Duration::from_millis(number(&value()?)?),
            "--model" => load.model = value()?,
            "--expect-min-ok" => expect_min_ok = number(&value()?)?,
            "--shutdown" => shutdown_after = true,
            "--no-keepalive" => load.no_keepalive = true,
            "--pipeline" => load.pipeline = number(&value()?)? as usize,
            _ => {
                return Err(format!(
                    "unknown flag {flag:?} (usage: --addr H:P [--clients N,N,...] \
                     [--duration-ms N] [--model NAME] [--expect-min-ok N] [--shutdown] \
                     [--no-keepalive] [--pipeline N])"
                ))
            }
        }
    }
    if load.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if clients.contains(&0) || load.pipeline == 0 {
        return Err("--clients and --pipeline want positive counts".to_string());
    }
    let (addr, model) = (load.addr.as_str(), load.model.as_str());

    // Discover the feature width from the server, so the generator
    // works against any hosted model.
    let io_timeout = Duration::from_secs(10);
    let listing = request_once(addr, "GET", "/models", "", io_timeout)
        .map_err(|e| format!("querying {addr}/models: {e}"))?;
    load.n_features = JsonValue::parse(&listing.text())
        .ok()
        .and_then(|v| {
            v.get("models")?
                .as_array()?
                .iter()
                .find(|m| m.get("name").and_then(JsonValue::as_str) == Some(model))?
                .get("n_features")?
                .as_f64()
        })
        .ok_or_else(|| format!("model {model:?} is not installed on {addr}"))?
        as usize;
    let load = &load;

    println!("loadgen: pipeline_depth={}", load.pipeline);
    println!(
        "{:>11} {:>9} {:>14} {:>9} {:>9} {:>10} {:>9} {:>8} {:>15}",
        "connections",
        "keepalive",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "ok",
        "rejected",
        "errors",
        "mean_batch_rows"
    );
    let mut short = None;
    for &n in &clients {
        let mut row = Tally::default();
        std::thread::scope(|scope| {
            // `n` connections over at most 8 threads, as evenly as they go.
            let threads = n.min(8);
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let n_conns = n / threads + usize::from(t < n % threads);
                    scope.spawn(move || drive(load, t as u64, n_conns))
                })
                .collect();
            for handle in handles {
                let part = handle.join().expect("driver thread panicked");
                row.ok += part.ok;
                row.rejected += part.rejected;
                row.errors += part.errors;
                row.batch_rows_sum += part.batch_rows_sum;
                row.latencies_s.extend(part.latencies_s);
            }
        });
        row.latencies_s.sort_by(|a, b| a.total_cmp(b));
        let q_ms = |p: f64| match row.latencies_s.len() {
            0 => 0.0,
            len => row.latencies_s[(p * (len - 1) as f64).round() as usize] * 1e3,
        };
        println!(
            "{:>11} {:>9} {:>14.0} {:>9.3} {:>9.3} {:>10} {:>9} {:>8} {:>15.1}",
            n,
            !load.no_keepalive,
            row.ok as f64 / load.duration.as_secs_f64(),
            q_ms(0.50),
            q_ms(0.99),
            row.ok,
            row.rejected,
            row.errors,
            row.batch_rows_sum as f64 / row.ok.max(1) as f64
        );
        if row.ok < expect_min_ok {
            short.get_or_insert((n, row.ok));
        }
    }

    if shutdown_after {
        request_once(&load.addr, "POST", "/shutdown", "", io_timeout)
            .map_err(|e| format!("posting /shutdown: {e}"))?;
        println!("loadgen: server acknowledged shutdown");
    }
    match short {
        Some((n, ok)) => Err(format!(
            "only {ok} successful responses at {n} connections (expected at least {expect_min_ok})"
        )),
        None => Ok(()),
    }
}

/// One driver thread: `n_conns` connections, `pipeline` requests in
/// flight on each, driven in rounds (send on every connection, then
/// receive on every connection) until `duration` has passed.
fn drive(load: &Load, thread_id: u64, n_conns: usize) -> Tally {
    let (addr, pipeline) = (load.addr.as_str(), load.pipeline);
    let io_timeout = Duration::from_secs(30);
    // One fixed body per connection (deterministic, reused every round):
    // request generation must not become the bottleneck at 10k.
    let mut request = PredictRequest::new(&load.model);
    let bodies: Vec<String> = (0..n_conns)
        .map(|i| {
            let seed = thread_id * 100_000 + i as u64;
            let features: Vec<f64> = (0..load.n_features as u64)
                .map(|j| ((seed + j) % 8) as f64 + ((seed * 7 + j) % 100) as f64 / 100.0)
                .collect();
            request.write(&[&features]).to_string()
        })
        .collect();

    let mut conns: Vec<Option<ClientConn>> = (0..n_conns)
        .map(|_| ClientConn::connect(addr, io_timeout).ok())
        .collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n_conns];

    let mut tally = Tally {
        latencies_s: Vec::with_capacity(4096),
        ..Tally::default()
    };
    let deadline = Instant::now() + load.duration;
    while Instant::now() < deadline {
        if load.no_keepalive {
            // Reconnect the whole round: every request pays the accept
            // path, but the N requests are still concurrent.
            for conn in conns.iter_mut() {
                *conn = ClientConn::connect(addr, io_timeout).ok();
            }
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            sent_at[i] = None;
            let Some(c) = conn.as_mut() else {
                tally.errors += 1;
                *conn = ClientConn::connect(addr, io_timeout).ok();
                continue;
            };
            if (0..pipeline).all(|_| c.send("POST", "/predict", &bodies[i]).is_ok()) {
                sent_at[i] = Some(Instant::now());
            } else {
                tally.errors += 1;
                *conn = ClientConn::connect(addr, io_timeout).ok();
            }
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let Some(t0) = sent_at[i] else { continue };
            let Some(c) = conn.as_mut() else { continue };
            for _ in 0..pipeline {
                match c.recv() {
                    Ok(resp) if resp.status == 200 => {
                        tally.ok += 1;
                        tally.latencies_s.push(t0.elapsed().as_secs_f64());
                        tally.batch_rows_sum += extract_batch_rows(&resp.text()).unwrap_or(1);
                    }
                    Ok(resp) if resp.status == 503 => tally.rejected += 1,
                    Ok(_) => tally.errors += 1,
                    Err(_) => {
                        // Closed or timed out: what was in flight is lost.
                        tally.errors += 1;
                        *conn = ClientConn::connect(addr, io_timeout).ok();
                        break;
                    }
                }
            }
        }
    }
    tally
}

/// Pull `"batch_rows":N` out of a 200 body without a full JSON parse
/// (this runs once per request on the measurement path).
fn extract_batch_rows(body: &str) -> Option<u64> {
    let start = body.find("\"batch_rows\":")? + "\"batch_rows\":".len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
