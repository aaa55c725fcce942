//! Serving-path experiment (DESIGN.md §13): micro-batching throughput at
//! 32 concurrent closed-loop clients versus a batch-size-1 server
//! configuration, on a production-scale forest where inference dominates
//! the request cost.
//!
//! Both servers host the *same* trained model; the only difference is
//! `BatchConfig::max_batch`. The batched config coalesces the concurrent
//! single-row `/predict` requests into one inference-engine batch call,
//! which amortises the per-request queue hand-off and replaces single-row
//! traversal with the blocked batch kernel — the win recorded in
//! EXPERIMENTS.md ("Micro-batching prediction server").

use std::sync::Arc;
use std::time::{Duration, Instant};

use mphpc_bench::{load_or_build_dataset, print_table, ExpArgs};
use mphpc_core::pipeline::train_predictor;
use mphpc_core::serving::{predictor_loader, ServedPredictor};
use mphpc_errors::MphpcError;
use mphpc_ml::{ForestParams, ModelKind};
use mphpc_serve::client::ClientConn;
use mphpc_serve::json::JsonValue;
use mphpc_serve::{serve, ModelRegistry, PredictModel, ServeConfig};

const CLIENTS: usize = 32;
const DURATION: Duration = Duration::from_secs(2);
/// Big enough that inference, not HTTP handling, is the bottleneck even
/// on a single hardware thread — the regime micro-batching exists for.
const SERVE_TREES: usize = 2400;

fn main() -> std::process::ExitCode {
    mphpc_bench::run(body)
}

struct RunResult {
    label: &'static str,
    ok: u64,
    rejected: u64,
    errors: u64,
    elapsed: Duration,
    latencies_s: Vec<f64>,
    batch_rows_sum: u64,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] * 1e3
    }
}

fn body() -> Result<(), MphpcError> {
    let args = ExpArgs::from_env();
    let dataset = load_or_build_dataset(args)?;
    eprintln!("[train] forest with {SERVE_TREES} trees ...");
    let params = ForestParams {
        n_trees: SERVE_TREES,
        ..Default::default()
    };
    let predictor = train_predictor(&dataset, ModelKind::Forest(params), args.seed)?;
    let model = Arc::new(ServedPredictor::new(predictor)) as Arc<dyn PredictModel>;

    let mut results = Vec::new();
    for (label, max_batch) in [("micro-batched (64)", 64usize), ("batch-size 1", 1)] {
        let registry = Arc::new(ModelRegistry::new(predictor_loader()));
        registry.install("default", Arc::clone(&model));
        let mut cfg = ServeConfig {
            shards: 1,
            ..Default::default()
        };
        cfg.batch.max_batch = max_batch;
        let handle = serve(cfg, registry)?;
        let addr = handle.addr().to_string();
        eprintln!("[serve] {label} on {addr}, {CLIENTS} clients for {DURATION:?} ...");
        let result = drive_clients(label, &addr)?;
        handle.shutdown();
        let stats = handle.join();
        if stats.failed > 0 {
            return Err(MphpcError::Serve(format!(
                "{label}: {} model-side failures during the run",
                stats.failed
            )));
        }
        results.push(result);
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.0}", r.throughput()),
                format!("{:.1}", r.batch_rows_sum as f64 / r.ok.max(1) as f64),
                format!("{:.3}", r.quantile_ms(0.50)),
                format!("{:.3}", r.quantile_ms(0.95)),
                format!("{:.3}", r.quantile_ms(0.99)),
                r.ok.to_string(),
                r.rejected.to_string(),
                r.errors.to_string(),
            ]
        })
        .collect();
    print_table(
        "Serving — micro-batching vs batch-size 1 (32 closed-loop clients)",
        &[
            "config",
            "rps",
            "rows/batch",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "ok",
            "503",
            "errors",
        ],
        &rows,
    );
    let speedup = results[0].throughput() / results[1].throughput().max(1e-9);
    println!("micro-batching speedup: {speedup:.2}x");
    Ok(())
}

#[derive(Default)]
struct ClientTotals {
    ok: u64,
    rejected: u64,
    errors: u64,
    latencies_s: Vec<f64>,
    batch_rows: u64,
}

/// Closed-loop load: every client holds one keep-alive connection and
/// issues the next request as soon as the previous answer lands — the
/// same shape as `mphpc_loadgen`.
fn drive_clients(label: &'static str, addr: &str) -> Result<RunResult, MphpcError> {
    let n_features = discover_n_features(addr)?;
    let started = Instant::now();
    let per_client: Vec<ClientTotals> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || one_client(c, addr, n_features, started)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut result = RunResult {
        label,
        ok: 0,
        rejected: 0,
        errors: 0,
        elapsed,
        latencies_s: Vec::new(),
        batch_rows_sum: 0,
    };
    for totals in per_client {
        result.ok += totals.ok;
        result.rejected += totals.rejected;
        result.errors += totals.errors;
        result.latencies_s.extend(totals.latencies_s);
        result.batch_rows_sum += totals.batch_rows;
    }
    if result.ok == 0 {
        return Err(MphpcError::Serve(format!(
            "{label}: no successful request in {elapsed:?}"
        )));
    }
    Ok(result)
}

fn one_client(c: usize, addr: &str, n_features: usize, started: Instant) -> ClientTotals {
    let mut totals = ClientTotals::default();
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ ((c as u64) << 32);
    let Ok(mut conn) = ClientConn::connect(addr, Duration::from_secs(10)) else {
        totals.errors = 1;
        return totals;
    };
    while started.elapsed() < DURATION {
        let body = row_body(&mut state, n_features);
        let t0 = Instant::now();
        match conn.request("POST", "/predict", &body) {
            Ok(resp) if resp.status == 200 => {
                totals.ok += 1;
                totals.latencies_s.push(t0.elapsed().as_secs_f64());
                totals.batch_rows += JsonValue::parse(&resp.text())
                    .ok()
                    .and_then(|v| v.get("batch_rows").and_then(JsonValue::as_f64))
                    .unwrap_or(1.0) as u64;
            }
            Ok(resp) if resp.status == 503 => {
                totals.rejected += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(_) => totals.errors += 1,
            Err(_) => {
                totals.errors += 1;
                match ClientConn::connect(addr, Duration::from_secs(10)) {
                    Ok(c2) => conn = c2,
                    Err(_) => break,
                }
            }
        }
    }
    totals
}

fn discover_n_features(addr: &str) -> Result<usize, MphpcError> {
    let resp =
        mphpc_serve::client::request_once(addr, "GET", "/models", "", Duration::from_secs(10))
            .map_err(|e| MphpcError::Serve(format!("GET /models failed: {e}")))?;
    let listing = JsonValue::parse(&resp.text())
        .map_err(|e| MphpcError::Serve(format!("bad /models body: {e}")))?;
    listing
        .get("models")
        .and_then(JsonValue::as_array)
        .and_then(|m| m.first())
        .and_then(|m| m.get("n_features"))
        .and_then(JsonValue::as_f64)
        .map(|v| v as usize)
        .ok_or_else(|| MphpcError::Serve("no model advertised by /models".to_string()))
}

/// Deterministic per-client feature rows (splitmix64), kept in the
/// feature ranges the model saw in training closely enough to exercise
/// real tree paths.
fn row_body(state: &mut u64, n_features: usize) -> String {
    let mut body = String::with_capacity(16 * n_features + 16);
    body.push_str("{\"features\":[");
    for i in 0..n_features {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{:.6}", unit * 8.0));
    }
    body.push_str("]}");
    body
}
