//! The host-speed yardstick: a fixed piece of work, owned by the harness,
//! that is timed right before and right after every timed call into the
//! program.
//!
//! The reference host is a small guest on a shared machine. Its cores move,
//! from one millisecond to the next and for minutes at a time, between full
//! speed and a state a quarter to a half slower, so that the same call into
//! the program reads anywhere in a band that wide (README, "Steadiness").
//! What slows the program slows the yardstick beside it, so every duration the
//! benchmark gates is divided by the yardstick's time around it, relative to
//! [`REFERENCE_MS`]: it is reported in *seconds at the reference host's usual
//! speed*. The raw duration is reported next to it.
//!
//! The kernel mixes what the program's hot paths are made of — sorting
//! (branches), binary searches in a table twice the size of the second-level
//! cache (dependent loads) and streaming sums over it (bandwidth). A pure arithmetic loop
//! or a pointer chase alone tracked the program's slow-downs badly; this mix
//! cut the run-to-run spread of the unit timings by a third.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's median time on the reference host, milliseconds. A
/// duration measured while the yardstick takes this long is reported as is.
pub const REFERENCE_MS: f64 = 22.0;

const TABLE_KEYS: usize = 1 << 20; // 8 MiB
const SORT_WORDS: usize = 400_000;
const LOOKUPS: usize = 25_000;
const STREAM_PASSES: usize = 8;

fn next(key: u64) -> u64 {
    key.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

pub struct Yardstick {
    /// The kernel's sizes are divided by this: 1, or more at the smoke size,
    /// where the readings only have to exist.
    shrink: usize,
    table: Vec<u64>,
    scratch: Vec<u64>,
    /// When the last reading ended, and what it read.
    last: Option<(Instant, f64)>,
    readings_ms: Vec<f64>,
}

impl Yardstick {
    /// The yardstick's data is fixed: it does not depend on the run's seed.
    pub fn new(smoke: bool) -> Self {
        let shrink = if smoke { 16 } else { 1 };
        let mut table: Vec<u64> = (0..(TABLE_KEYS / shrink) as u64)
            .map(|i| i.wrapping_mul(0xd134_2543_de82_ef95))
            .collect();
        table.sort_unstable();
        Self {
            shrink,
            table,
            scratch: Vec::with_capacity(SORT_WORDS),
            last: None,
            readings_ms: Vec::new(),
        }
    }

    fn run_ms(&mut self) -> f64 {
        let started = Instant::now();
        let mut key = 0x1234_5678u64;
        self.scratch.clear();
        self.scratch
            .extend((0..black_box(SORT_WORDS / self.shrink)).map(|_| {
                key = next(key);
                key
            }));
        self.scratch.sort_unstable();
        black_box(&self.scratch);

        let mut ranks = 0usize;
        for _ in 0..black_box(LOOKUPS / self.shrink) {
            key = next(key);
            ranks += self.table.partition_point(|k| *k < key);
        }
        black_box(ranks);

        let mut sum = 0u64;
        for _ in 0..black_box(STREAM_PASSES) {
            for word in &self.table {
                sum = sum.wrapping_add(*word);
            }
        }
        black_box(sum);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// A reading of the host's speed now, milliseconds. A reading that ended
    /// less than its own length ago is used again, so timed calls that follow
    /// each other closely share the reading between them.
    pub fn read_ms(&mut self) -> f64 {
        if let Some((at, ms)) = self.last {
            if at.elapsed().as_secs_f64() * 1e3 < ms {
                return ms;
            }
        }
        let ms = self.run_ms();
        self.last = Some((Instant::now(), ms));
        self.readings_ms.push(ms);
        ms
    }

    /// Every reading taken so far.
    pub fn readings_ms(&self) -> &[f64] {
        &self.readings_ms
    }
}

/// A duration and the host speed it was measured at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub raw_s: f64,
    /// The yardstick's time around the call over [`REFERENCE_MS`]: above one
    /// while the host is slower than usual.
    pub slowdown: f64,
}

impl Timed {
    /// The mean of the readings before and after, over the reference.
    pub fn new(raw_s: f64, before_ms: f64, after_ms: f64) -> Self {
        Self {
            raw_s,
            slowdown: (before_ms + after_ms) / (2.0 * REFERENCE_MS),
        }
    }

    /// Seconds at the reference host's usual speed.
    pub fn scaled_s(&self) -> f64 {
        self.raw_s / self.slowdown
    }

    /// This duration followed by `next`: raw and scaled seconds both add.
    pub fn then(&self, next: Timed) -> Timed {
        let raw_s = self.raw_s + next.raw_s;
        Timed {
            raw_s,
            slowdown: raw_s / (self.scaled_s() + next.scaled_s()),
        }
    }
}

/// Median of the scaled and of the raw seconds of `samples`.
pub fn medians(samples: &[Timed]) -> (f64, f64) {
    let of =
        |f: fn(&Timed) -> f64| crate::stats::median(&samples.iter().map(f).collect::<Vec<_>>());
    (of(Timed::scaled_s), of(|t| t.raw_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_duration_is_scaled_by_the_readings_around_it() {
        let t = Timed::new(3.0, REFERENCE_MS, REFERENCE_MS);
        assert_eq!((t.slowdown, t.scaled_s()), (1.0, 3.0));
        // Host half as fast before, back to normal after: 1.5 on average.
        let t = Timed::new(3.0, 2.0 * REFERENCE_MS, REFERENCE_MS);
        assert_eq!((t.slowdown, t.scaled_s()), (1.5, 2.0));
        // Followed by 1 s at normal speed: 4 s raw, 3 s scaled.
        let both = t.then(Timed::new(1.0, REFERENCE_MS, REFERENCE_MS));
        assert_eq!((both.raw_s, both.scaled_s()), (4.0, 3.0));
        assert_eq!(medians(&[t, both, t]), (2.0, 3.0));
    }

    #[test]
    fn back_to_back_calls_share_a_reading() {
        let mut y = Yardstick::new(true);
        let first = y.read_ms();
        assert!(first > 0.0);
        assert_eq!(y.read_ms(), first);
        assert_eq!(y.readings_ms().len(), 1);
        std::thread::sleep(std::time::Duration::from_secs_f64(2e-3 * first));
        y.read_ms();
        assert_eq!(y.readings_ms().len(), 2);
    }
}
