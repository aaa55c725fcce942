//! Calendar-queue event structure for the large-scale scheduling engine.
//!
//! A calendar queue \[brown88\] holds pending events in an array of time
//! buckets ("days"), each `width` seconds wide; the array as a whole
//! spans one "year" of `n_buckets × width` seconds and wraps, so bucket
//! `i` holds days `i`, `i + n_buckets`, `i + 2·n_buckets`, … of simulated
//! time. With the width adapted to the observed event density, enqueue
//! lands in the right bucket in O(1) and dequeue-min scans an O(1)
//! expected number of buckets — versus `O(log n)` for the binary heap
//! the original engine used. Discrete-event schedulers enqueue mostly
//! near-future completions, exactly the access pattern the calendar
//! shape rewards.
//!
//! \[brown88\]: R. Brown, "Calendar queues: a fast O(1) priority queue
//! implementation for the simulation event set problem", CACM 31(10).
//!
//! Determinism: keys are `(time, seq)` where `seq` is the engine's
//! monotonic tie-break counter, so the full order is total and the drain
//! order is identical to the binary heap's — the property the old-vs-new
//! engine bit-identity suite leans on. Nothing in here hashes, samples,
//! or otherwise depends on anything but the inserted keys.
//!
//! Degenerate inputs are first-class: a workload submitted as one batch
//! puts *every* arrival at `t = 0` with ascending `seq`, which lands in
//! a single bucket. Buckets are kept sorted ascending in a `VecDeque`,
//! so those same-time, ascending-seq inserts are all O(1) `push_back`s
//! and dequeues are O(1) `pop_front`s; only a genuinely out-of-order
//! insert pays a binary search plus mid-insert within its bucket.

use std::collections::VecDeque;

/// Totally ordered event key: `(time, tie-break sequence)`.
///
/// Times order by `f64::total_cmp`, encoded into monotone `u64` bits so
/// bucket mapping and comparisons never touch floats; `seq` breaks ties
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    bits: u64,
    /// Tie-break sequence (unique per enqueue within one simulation).
    pub seq: u64,
}

/// Map an `f64` to `u64` bits whose unsigned order equals
/// [`f64::total_cmp`] order (the standard sign-fold trick): negatives flip
/// every bit, the rest only the sign bit, so `-0.0` keys before `0.0`.
fn total_cmp_bits(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((b as i64 >> 63) as u64 | 1 << 63)
}

impl EventKey {
    /// Key for an event at `time` with tie-break `seq`.
    pub fn new(time: f64, seq: u64) -> EventKey {
        EventKey {
            bits: total_cmp_bits(time),
            seq,
        }
    }

    /// The event's time.
    pub fn time(self) -> f64 {
        // Invert the sign fold.
        let b = self.bits;
        f64::from_bits(b ^ (!((b as i64 >> 63) as u64) | 1 << 63))
    }
}

/// Minimum bucket width: protects the width estimate against a sample of
/// identical (or denormal-close) event times collapsing the calendar to
/// zero-width days.
const MIN_WIDTH: f64 = 1e-9;

/// One pending event: key plus payload.
type Entry<T> = (EventKey, T);

/// A calendar queue: O(1) amortized enqueue and dequeue-min over
/// `(time, seq)` keys.
///
/// The queue resizes (doubling or halving the day count and re-estimating
/// the day width from the live event population) when the population
/// leaves the `[n_buckets / 2, 2 × n_buckets]` band, so both operations
/// stay O(1) amortized as the event set grows to millions.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `buckets[i]` sorted ascending by key; front = earliest.
    buckets: Vec<VecDeque<Entry<T>>>,
    /// Day width in seconds.
    width: f64,
    /// Number of events stored.
    len: usize,
    /// Bucket the next dequeue starts scanning from.
    cur: usize,
    /// Day number (an integer-valued float) the scan stands on; `cur` is
    /// its bucket. An entry at the front of `cur` is due iff its own day
    /// number — the same `floor(time / width)` that filed it — is not
    /// later. Comparing day numbers, not times against a running
    /// `day_start + width` sum, keeps the scan and the filing in
    /// agreement for events that sit exactly on a day boundary.
    cur_day: f64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue (2 day-buckets, 1-second days, anchored at t = 0;
    /// the first resize re-estimates both from the real events).
    pub fn new() -> CalendarQueue<T> {
        let mut q = CalendarQueue {
            buckets: Vec::new(),
            width: 1.0,
            len: 0,
            cur: 0,
            cur_day: 0.0,
        };
        q.buckets.resize_with(2, VecDeque::new);
        q
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Day number of a time under the current geometry. Times are
    /// simulation clocks: finite and non-negative; the division is safe
    /// (width >= MIN_WIDTH).
    fn day_of(&self, time: f64) -> f64 {
        (time / self.width).floor()
    }

    /// Bucket index for a time under the current geometry.
    fn bucket_of(&self, time: f64) -> usize {
        // The day number can exceed usize on absurd times, so go through
        // f64 modulo.
        let day = self.day_of(time);
        let nb = self.buckets.len() as f64;
        let idx = day - (day / nb).floor() * nb;
        (idx as usize).min(self.buckets.len() - 1)
    }

    /// Insert an event. O(1) amortized; same-bucket inserts arriving in
    /// ascending key order (the common DES pattern) are O(1) worst case.
    pub fn push(&mut self, key: EventKey, value: T) {
        let b = self.bucket_of(key.time());
        let bucket = &mut self.buckets[b];
        // Fast path: new maximum for its bucket.
        if bucket.back().map_or(true, |(k, _)| *k < key) {
            bucket.push_back((key, value));
        } else if bucket.front().is_some_and(|(k, _)| key < *k) {
            bucket.push_front((key, value));
        } else {
            let pos = bucket.partition_point(|(k, _)| *k < key);
            bucket.insert(pos, (key, value));
        }
        self.len += 1;
        // A new event can precede the dequeue scan position; rewind so
        // the scan can't skip the year (and bucket) it lives in.
        if self.day_of(key.time()) < self.cur_day {
            self.anchor_at(key.time());
        }
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Remove and return the earliest event. O(1) amortized.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        // Scan at most one full year of days from the current position;
        // each day only inspects its bucket's front (buckets are sorted).
        for _ in 0..self.buckets.len() {
            if let Some((k, _)) = self.buckets[self.cur].front() {
                if self.day_of(k.time()) <= self.cur_day {
                    let entry = self.buckets[self.cur].pop_front().expect("front checked");
                    self.len -= 1;
                    if self.len < self.buckets.len() / 2 && self.buckets.len() > 2 {
                        self.resize(self.buckets.len() / 2);
                    }
                    return Some(entry);
                }
            }
            self.cur = (self.cur + 1) % self.buckets.len();
            self.cur_day += 1.0;
        }
        // A whole year was empty at the scan position: the remaining
        // events are far in the future (or the width collapsed). Jump
        // straight to the globally earliest bucket front — O(n_buckets),
        // rare by construction — then re-anchor the calendar there.
        let earliest = self
            .buckets
            .iter()
            .filter_map(|b| b.front().map(|(k, _)| *k))
            .min()
            .expect("len > 0 but every bucket empty");
        self.anchor_at(earliest.time());
        let b = self.bucket_of(earliest.time());
        let entry = self.buckets[b].pop_front().expect("anchored at an entry");
        self.len -= 1;
        Some(entry)
    }

    /// Key of the earliest event without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        // Mirror `pop`'s scan without mutating the position.
        let (mut cur, mut day) = (self.cur, self.cur_day);
        for _ in 0..self.buckets.len() {
            if let Some((k, _)) = self.buckets[cur].front() {
                if self.day_of(k.time()) <= day {
                    return Some(*k);
                }
            }
            cur = (cur + 1) % self.buckets.len();
            day += 1.0;
        }
        self.buckets
            .iter()
            .filter_map(|b| b.front())
            .map(|(k, _)| *k)
            .min()
    }

    /// Re-position the dequeue scan on `time`'s day.
    fn anchor_at(&mut self, time: f64) {
        self.cur = self.bucket_of(time);
        self.cur_day = self.day_of(time);
    }

    /// Rebuild with `n_buckets` days, re-estimating the day width from
    /// the live population, and re-anchor at the earliest pending event.
    fn resize(&mut self, n_buckets: usize) {
        let n_buckets = n_buckets.max(2);
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(bucket.drain(..));
        }
        entries.sort_unstable_by_key(|e| e.0);
        self.width = estimate_width(&entries);
        self.buckets = Vec::new();
        self.buckets.resize_with(n_buckets, VecDeque::new);
        let earliest = entries.first().map(|(k, _)| k.time());
        for (key, value) in entries {
            let b = self.bucket_of(key.time());
            // Sorted insertion order keeps every bucket sorted with
            // nothing but push_back.
            self.buckets[b].push_back((key, value));
        }
        match earliest {
            Some(t) if t.is_finite() => self.anchor_at(t),
            _ => self.anchor_at(0.0),
        }
    }
}

/// Day-width estimate: a small multiple of the mean gap between distinct
/// *adjacent* event times — the classic calendar-queue heuristic (aim
/// for a few events per day so dequeue scans O(1) buckets and bucket
/// insertions stay short). `entries` must already be sorted; the gaps
/// are taken between truly adjacent pairs at 64 positions spread across
/// the population, so the estimate tracks local density rather than
/// range/64 (a decimated sample would make days ~n/64 events deep and
/// turn every insertion into a long memmove). Falls back to
/// [`MIN_WIDTH`] when every sampled pair is simultaneous.
fn estimate_width<T>(entries: &[Entry<T>]) -> f64 {
    const SAMPLE: usize = 64;
    if entries.len() < 2 {
        return 1.0;
    }
    let step = ((entries.len() - 1) / SAMPLE).max(1);
    let mut gap_sum = 0.0;
    let mut gaps = 0u32;
    let mut i = 0;
    while i + 1 < entries.len() {
        let gap = entries[i + 1].0.time() - entries[i].0.time();
        if gap > 0.0 && gap.is_finite() {
            gap_sum += gap;
            gaps += 1;
        }
        i += step;
    }
    if gaps == 0 {
        return MIN_WIDTH;
    }
    ((gap_sum / gaps as f64) * 3.0).max(MIN_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn key_order_matches_total_cmp_then_seq() {
        // Negative times, -0.0 among them, key below every positive one.
        let times = [-2.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.5, 1e300];
        for (i, &a) in times.iter().enumerate() {
            for &b in &times[i + 1..] {
                assert!(EventKey::new(a, 5) < EventKey::new(b, 0), "{a} < {b}");
            }
            assert_eq!(EventKey::new(a, 3).time().to_bits(), a.to_bits());
        }
        assert!(EventKey::new(2.0, 1) < EventKey::new(2.0, 2));
        assert_eq!(EventKey::new(1.25, 7).time(), 1.25);
        assert_eq!(EventKey::new(0.0, 0).time(), 0.0);
    }

    #[test]
    fn drains_in_sorted_order() {
        let mut q = CalendarQueue::new();
        let times = [5.0, 1.0, 3.0, 1.0, 0.0, 2.5, 7.75, 3.0, -0.0];
        for (seq, &t) in times.iter().enumerate() {
            q.push(EventKey::new(t, seq as u64), seq);
        }
        assert_eq!(q.len(), times.len());
        let mut drained = Vec::new();
        while let Some((k, v)) = q.pop() {
            drained.push((k, v));
        }
        let mut expected: Vec<(EventKey, usize)> = times
            .iter()
            .enumerate()
            .map(|(seq, &t)| (EventKey::new(t, seq as u64), seq))
            .collect();
        expected.sort_by_key(|(k, _)| *k);
        assert_eq!(drained, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn all_events_at_the_same_instant() {
        // The batch-submission degenerate case: a million-jobs-at-t=0
        // workload must not quadratic-blow the bucket. 50k here keeps the
        // test fast while being far past every resize threshold.
        let mut q = CalendarQueue::new();
        for seq in 0..50_000u64 {
            q.push(EventKey::new(0.0, seq), seq);
        }
        for seq in 0..50_000u64 {
            let (k, v) = q.pop().expect("pending");
            assert_eq!((k.seq, v), (seq, seq));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        let mut rng = StdRng::seed_from_u64(7);
        for seq in 0..1000u64 {
            q.push(EventKey::new(rng.gen_range(0.0..100.0), seq), ());
        }
        while let Some(k) = q.peek_key() {
            assert_eq!(q.pop().unwrap().0, k);
        }
        assert!(q.is_empty() && q.peek_key().is_none());
    }

    #[test]
    fn interleaved_matches_binary_heap_model() {
        // Differential model check: random interleaving of pushes and
        // pops against BinaryHeap, including past-the-scan-position
        // inserts, duplicate times, and wide dynamic range.
        let mut rng = StdRng::seed_from_u64(0xCA1E);
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..20_000 {
            if rng.gen_bool(0.55) || model.is_empty() {
                // Mostly near-future events, some bursts of simultaneity,
                // occasional far future.
                let t = match rng.gen_range(0..10) {
                    0..=5 => now + rng.gen_range(0.0..10.0),
                    6..=7 => now,
                    8 => now + rng.gen_range(0.0..1e4),
                    _ => rng.gen_range(0.0..now.max(1.0)), // behind the scan
                };
                q.push(EventKey::new(t, seq), seq);
                model.push(Reverse((EventKey::new(t, seq), seq)));
                seq += 1;
            } else {
                let got = q.pop().expect("model non-empty");
                let Reverse(want) = model.pop().unwrap();
                assert_eq!(got, want);
                now = got.0.time();
            }
        }
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(q.pop().expect("model non-empty"), want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_at_the_instant_being_drained() {
        // What a dependent released at `now` does: while the engine drains
        // every event at `now`, a completion pushes a new arrival at that
        // very instant. It must come out in the same drain, after the
        // events already queued for `now` (its seq is larger), and before
        // anything later — across bucket geometries, hence the filler.
        for filler in [0u64, 3, 40, 1000] {
            let mut q = CalendarQueue::new();
            let mut seq = 0u64;
            let mut push = |q: &mut CalendarQueue<u64>, t: f64| {
                q.push(EventKey::new(t, seq), seq);
                seq += 1;
            };
            for i in 0..filler {
                push(&mut q, 0.5 * i as f64);
            }
            let now = 0.5 * (filler / 2) as f64 + 0.25;
            for _ in 0..3 {
                push(&mut q, now);
            }
            while q.peek_key().is_some_and(|k| k.time() < now) {
                q.pop();
            }
            let mut drained = Vec::new();
            while q.peek_key().is_some_and(|k| k.time() <= now) {
                let (k, v) = q.pop().unwrap();
                assert_eq!(k.time(), now);
                // The first two events at `now` each release one more.
                if drained.len() < 2 {
                    push(&mut q, now);
                }
                drained.push(v);
            }
            assert_eq!(drained.len(), 5, "filler {filler}");
            assert!(drained.windows(2).all(|w| w[0] < w[1]), "{drained:?}");
            let later = (0..filler).filter(|&i| 0.5 * i as f64 > now).count();
            assert_eq!(q.len(), later, "filler {filler}");
        }
    }

    #[test]
    fn events_on_day_boundaries_are_not_passed_over() {
        // Twenty pipelines submitted 0.1 s apart, first stage 5 s or 10 s:
        // the adjacent-gap estimate makes days 0.3 s wide, so completions
        // such as t = 6.6 sit exactly on a day boundary. A scan bound kept
        // by repeated addition drifts below `floor(time / width) * width`
        // there and passes the event over for a whole year.
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>,
                        model: &mut BinaryHeap<Reverse<(EventKey, u64)>>,
                        t: f64| {
            q.push(EventKey::new(t, seq), seq);
            model.push(Reverse((EventKey::new(t, seq), seq)));
            seq += 1;
        };
        for i in 0..20 {
            push(&mut q, &mut model, i as f64 * 0.1);
        }
        for i in 0..20 {
            let (k, _) = q.pop().unwrap();
            model.pop();
            push(
                &mut q,
                &mut model,
                k.time() + if i % 4 == 0 { 5.0 } else { 10.0 },
            );
        }
        // Each completion releases two successors at the same instant,
        // which then start and enqueue their own completions.
        for _ in 0..40 {
            let Some(Reverse(want)) = model.pop() else {
                break;
            };
            let got = q.pop().expect("model non-empty");
            assert_eq!(got, want);
            let now = got.0.time();
            push(&mut q, &mut model, now);
            push(&mut q, &mut model, now);
            for later in [10.0, 4.0] {
                assert_eq!(q.pop().unwrap(), model.pop().unwrap().0);
                push(&mut q, &mut model, now + later);
            }
        }
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(q.pop().expect("model non-empty"), want);
        }
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Events separated by huge gaps force the year-scan fallback.
        let mut q = CalendarQueue::new();
        for (seq, t) in [0.0, 1e6, 2e9, 3e12].into_iter().enumerate() {
            q.push(EventKey::new(t, seq as u64), seq);
        }
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }
}
