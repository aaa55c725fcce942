//! Event-queue micro-benchmarks: `BinaryHeap` (the test-only oracle
//! engine's structure) versus the scheduling engine's `CalendarQueue` at
//! 10k / 100k / 1M events.
//!
//! Two access patterns bracket a discrete-event simulation's behaviour:
//!
//! - **fill_drain**: push everything, then pop everything — the
//!   saturated-backlog shape (all arrivals at t=0 enqueue every
//!   completion up front).
//! - **hold**: a steady-state churn at constant queue depth — pop the
//!   minimum, push a replacement a random distance in the future. This is
//!   the classic calendar-queue workload (Brown, CACM '88), where the
//!   heap pays O(log n) per operation and the calendar stays O(1)
//!   amortised.
//!
//! Both structures carry the same `(EventKey, u64)` payload so the
//! comparison isolates structure cost, not payload cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mphpc_sched::{CalendarQueue, EventKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// Operations measured per `hold` iteration.
const HOLD_OPS: usize = 10_000;

/// Deterministic event times: splitmix64 mapped to a mean-1.0
/// exponential-ish spread (uniform is fine for structure cost).
fn times(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * n as f64
        })
        .collect()
}

fn bench_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_fill_drain");
    group.sample_size(10);
    for &n in &SIZES {
        let ts = times(n, 0xF111);
        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_with_input(BenchmarkId::new("binary_heap", n), &ts, |b, ts| {
            b.iter(|| {
                let mut q: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
                for (i, &t) in ts.iter().enumerate() {
                    q.push(Reverse((EventKey::new(t, i as u64), i as u64)));
                }
                let mut last = 0u64;
                while let Some(Reverse((_, v))) = q.pop() {
                    last = v;
                }
                black_box(last)
            })
        });
        group.bench_with_input(BenchmarkId::new("calendar", n), &ts, |b, ts| {
            b.iter(|| {
                let mut q: CalendarQueue<u64> = CalendarQueue::new();
                for (i, &t) in ts.iter().enumerate() {
                    q.push(EventKey::new(t, i as u64), i as u64);
                }
                let mut last = 0u64;
                while let Some((_, v)) = q.pop() {
                    last = v;
                }
                black_box(last)
            })
        });
    }
    group.finish();
}

fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    group.sample_size(10);
    for &n in &SIZES {
        let ts = times(n, 0x401D);
        let gaps = times(HOLD_OPS, 0x6A95);
        group.throughput(Throughput::Elements(HOLD_OPS as u64));
        // The queue is filled once and persists across iterations: each
        // pop re-pushes a replacement, so depth stays n and only the
        // steady-state churn is on the clock.
        group.bench_with_input(BenchmarkId::new("binary_heap", n), &(), |b, _| {
            let mut q: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
            for (i, &t) in ts.iter().enumerate() {
                q.push(Reverse((EventKey::new(t, i as u64), i as u64)));
            }
            let mut seq = n as u64;
            b.iter(|| {
                for g in &gaps {
                    let Reverse((k, v)) = q.pop().unwrap();
                    seq += 1;
                    q.push(Reverse((
                        EventKey::new(k.time() + g / n as f64, seq),
                        v,
                    )));
                }
                black_box(q.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("calendar", n), &(), |b, _| {
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            for (i, &t) in ts.iter().enumerate() {
                q.push(EventKey::new(t, i as u64), i as u64);
            }
            let mut seq = n as u64;
            b.iter(|| {
                for g in &gaps {
                    let (k, v) = q.pop().unwrap();
                    seq += 1;
                    q.push(EventKey::new(k.time() + g / n as f64, seq), v);
                }
                black_box(q.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fill_drain, bench_hold);
criterion_main!(benches);
