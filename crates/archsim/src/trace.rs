//! Synthetic memory-reference trace generation from a [`LocalityProfile`].
//!
//! The generator is reuse-distance driven: it keeps an LRU stack of
//! previously touched cache lines; for each reference it either touches a
//! brand-new line (with the profile's `streaming` probability, or when the
//! drawn reuse distance exceeds the lines touched so far) or re-touches the
//! line at a stack depth drawn from the profile's reuse-distance CDF. This
//! produces address streams whose fully-associative LRU miss curve matches
//! [`LocalityProfile::analytic_miss_ratio`] by construction, while still
//! exhibiting realistic set-conflict behaviour in the set-associative
//! simulator.
//!
//! The LRU stack ([`IndexedLru`]) is an occupancy bitmap over access-time
//! slots: every touch appends at the top, a re-touch clears the line's old
//! slot, and "the line at depth `d`" is the `d`-th set bit counted *from the
//! top*, found through two levels of block counts. For the default trace
//! length the whole index is 4 KiB, and shallow depths — the common case —
//! resolve in the top block. The generator keeps the stack's buffers between
//! kernels: it is on the per-kernel hot path of every simulated run in the
//! dataset (DESIGN.md §18).

use crate::demand::LocalityProfile;
use rand::Rng;

/// A single memory reference in a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Line-granular address (already divided by line size). Trace line ids
    /// are a dense counter below the trace length, so 32 bits hold them.
    pub line: u32,
    /// True for stores, false for loads.
    pub is_store: bool,
}

/// Bitmap words per first-level count (512 slots).
const GROUP_WORDS: usize = 8;
/// Bitmap words per second-level count (4096 slots).
const SUPER_WORDS: usize = 64;

/// Position of the `k`-th set bit of `word` counted from the top (`k = 0` is
/// the highest set bit). `k` must be below `word.count_ones()`.
fn select_from_top(word: u64, mut k: u32) -> usize {
    let mut pos = 0u32;
    let mut half = 32u32;
    while half > 0 {
        let upper = ((word >> (pos + half)) & ((1u64 << half) - 1)).count_ones();
        if k < upper {
            pos += half;
        } else {
            k -= upper;
        }
        half >>= 1;
    }
    pos as usize
}

/// An LRU stack supporting "touch the k-th most recently used item", for a
/// known bound on total touches.
#[derive(Debug, Default)]
pub struct IndexedLru {
    /// Bit `s` is set while access-time slot `s` holds a line's latest touch.
    words: Vec<u64>,
    /// Live slots per [`GROUP_WORDS`] words.
    groups: Vec<u16>,
    /// Live slots per [`SUPER_WORDS`] words.
    supers: Vec<u16>,
    slot_line: Vec<u32>,
    capacity: usize,
    now: usize,
    active: usize,
    next_line: u32,
}

impl IndexedLru {
    /// Create an LRU stack that can absorb at most `capacity` touches.
    pub fn new(capacity: usize) -> Self {
        let mut lru = Self::default();
        lru.reset(capacity);
        lru
    }

    /// Empty the stack and size it for `capacity` touches, keeping buffers.
    /// Panics if `capacity` exceeds `u32::MAX` (line ids are 32-bit).
    pub fn reset(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        assert!(
            u32::try_from(capacity).is_ok(),
            "IndexedLru capacity {capacity} exceeds 32-bit line ids"
        );
        let n_words = capacity.div_ceil(64 * SUPER_WORDS) * SUPER_WORDS;
        self.words.clear();
        self.words.resize(n_words, 0);
        self.groups.clear();
        self.groups.resize(n_words / GROUP_WORDS, 0);
        self.supers.clear();
        self.supers.resize(n_words / SUPER_WORDS, 0);
        if self.slot_line.len() < capacity {
            self.slot_line.resize(capacity, 0);
        }
        self.capacity = capacity;
        self.now = 0;
        self.active = 0;
        self.next_line = 0;
    }

    /// Number of distinct lines currently on the stack.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Touch a brand-new line and return its id.
    pub fn touch_fresh(&mut self) -> u32 {
        let line = self.next_line;
        self.place(line);
        self.next_line += 1;
        self.active += 1;
        line
    }

    /// Touch the line at LRU depth `depth` (0 = most recent) and return it.
    /// Panics if `depth >= active()`.
    pub fn touch_depth(&mut self, depth: usize) -> u32 {
        assert!(
            depth < self.active,
            "depth {depth} >= active {}",
            self.active
        );
        // Walk down from the newest slot, skipping whole blocks by their
        // counts; `depth < active` guarantees every loop stops in range.
        let top = (self.now - 1) / 64;
        let mut k = depth as u32;
        let mut s = top / SUPER_WORDS;
        while k >= self.supers[s] as u32 {
            k -= self.supers[s] as u32;
            s -= 1;
        }
        let mut g = ((s + 1) * (SUPER_WORDS / GROUP_WORDS) - 1).min(top / GROUP_WORDS);
        while k >= self.groups[g] as u32 {
            k -= self.groups[g] as u32;
            g -= 1;
        }
        let mut w = ((g + 1) * GROUP_WORDS - 1).min(top);
        loop {
            let live = self.words[w].count_ones();
            if k < live {
                break;
            }
            k -= live;
            w -= 1;
        }
        let bit = select_from_top(self.words[w], k);
        self.words[w] &= !(1u64 << bit);
        self.groups[w / GROUP_WORDS] -= 1;
        self.supers[w / SUPER_WORDS] -= 1;
        let line = self.slot_line[w * 64 + bit];
        self.place(line);
        line
    }

    fn place(&mut self, line: u32) {
        let slot = self.now;
        assert!(slot < self.capacity, "IndexedLru capacity exhausted");
        self.now += 1;
        self.words[slot / 64] |= 1u64 << (slot % 64);
        self.groups[slot / (64 * GROUP_WORDS)] += 1;
        self.supers[slot / (64 * SUPER_WORDS)] += 1;
        self.slot_line[slot] = line;
    }
}

/// Generates synthetic reference streams; reusable across kernels (the LRU
/// stack's buffers are allocated on first use and kept).
#[derive(Debug, Default)]
pub struct TraceGenerator {
    lru: IndexedLru,
}

impl TraceGenerator {
    /// New generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill `out` with `n` references drawn from `profile`.
    ///
    /// `store_fraction` is the probability a reference is a store;
    /// `line_bytes` converts the profile's byte distances to line depths.
    pub fn generate_into(
        &mut self,
        profile: &LocalityProfile,
        n: usize,
        store_fraction: f64,
        line_bytes: u32,
        rng: &mut impl Rng,
        out: &mut Vec<MemRef>,
    ) {
        out.clear();
        out.reserve(n);
        let lru = &mut self.lru;
        lru.reset(n);
        let line_bytes = line_bytes.max(1) as f64;
        let ws_lines = (profile.working_set_bytes / line_bytes).max(1.0);
        let exponent = 1.0 / profile.theta;
        // A draw `u >= fresh_above` maps to a depth of at least `fresh_bound`
        // lines, past every line on the stack: the line is fresh whatever the
        // exact depth, so its `powf` is skipped. The bound runs ahead of
        // `active()`, so the threshold is recomputed O(log n) times, and its
        // 1e-9 margin is far outside `powf`'s rounding error for profiles in
        // their documented ranges; other profiles never skip.
        let skips = profile.is_valid() && ws_lines.is_finite();
        let mut fresh_bound = 0;
        let mut fresh_above = f64::INFINITY;
        for _ in 0..n {
            let is_store = rng.gen::<f64>() < store_fraction;
            let line = if rng.gen::<f64>() < profile.streaming {
                lru.touch_fresh()
            } else {
                // Inverse-transform sample of the reuse-distance CDF
                // F(d) = (d / ws)^theta, in line units.
                let u: f64 = rng.gen();
                if skips && lru.active() >= fresh_bound {
                    fresh_bound = lru.active() + lru.active() / 8 + 64;
                    fresh_above = (fresh_bound as f64 / ws_lines).powf(profile.theta)
                        * (1.0 + 1e-9)
                        + f64::MIN_POSITIVE;
                }
                let depth = if u >= fresh_above {
                    usize::MAX
                } else {
                    (ws_lines * u.powf(exponent)) as usize
                };
                if depth >= lru.active() {
                    lru.touch_fresh()
                } else {
                    lru.touch_depth(depth)
                }
            };
            out.push(MemRef { line, is_store });
        }
    }
}

/// Default number of sampled references used to estimate miss ratios for a
/// kernel. The estimate's error scales as 1/√n; 32k keeps the cache
/// simulation fast while staying well under the counter-noise floor.
pub const DEFAULT_TRACE_LEN: usize = 32_768;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::rng_for;

    fn profile(theta: f64, streaming: f64, ws: f64) -> LocalityProfile {
        LocalityProfile {
            working_set_bytes: ws,
            theta,
            streaming,
        }
    }

    #[test]
    fn select_from_top_finds_kth_highest_bit() {
        let word = (1u64 << 63) | (1 << 40) | (1 << 7) | 1;
        assert_eq!(select_from_top(word, 0), 63);
        assert_eq!(select_from_top(word, 1), 40);
        assert_eq!(select_from_top(word, 2), 7);
        assert_eq!(select_from_top(word, 3), 0);
        for k in 0..64 {
            assert_eq!(select_from_top(u64::MAX, k), 63 - k as usize);
        }
    }

    #[test]
    fn indexed_lru_matches_naive_stack() {
        use rand::Rng;
        let mut rng = rng_for(5, &[]);
        let mut lru = IndexedLru::new(4000);
        let mut naive: Vec<u32> = Vec::new();
        for _ in 0..2000 {
            if naive.is_empty() || rng.gen::<f64>() < 0.3 {
                let line = lru.touch_fresh();
                naive.insert(0, line);
            } else {
                let depth = rng.gen_range(0..naive.len());
                let got = lru.touch_depth(depth);
                let expect = naive.remove(depth);
                assert_eq!(got, expect, "depth {depth}");
                naive.insert(0, expect);
            }
            assert_eq!(lru.active(), naive.len());
        }
    }

    #[test]
    fn trace_has_requested_length_and_store_fraction() {
        let mut gen = TraceGenerator::new();
        let mut out = Vec::new();
        let mut rng = rng_for(1, &[]);
        gen.generate_into(&profile(0.5, 0.1, 1e6), 20_000, 0.3, 64, &mut rng, &mut out);
        assert_eq!(out.len(), 20_000);
        let stores = out.iter().filter(|r| r.is_store).count() as f64 / 20_000.0;
        assert!((stores - 0.3).abs() < 0.02, "store fraction {stores}");
    }

    #[test]
    fn streaming_profile_touches_mostly_fresh_lines() {
        let mut gen = TraceGenerator::new();
        let mut out = Vec::new();
        let mut rng = rng_for(2, &[]);
        gen.generate_into(
            &profile(0.9, 0.95, 1e8),
            10_000,
            0.0,
            64,
            &mut rng,
            &mut out,
        );
        let distinct: std::collections::HashSet<u32> = out.iter().map(|r| r.line).collect();
        assert!(
            distinct.len() > 9_000,
            "expected mostly unique lines, got {}",
            distinct.len()
        );
    }

    #[test]
    fn cache_friendly_profile_reuses_lines() {
        let mut gen = TraceGenerator::new();
        let mut out = Vec::new();
        let mut rng = rng_for(3, &[]);
        gen.generate_into(
            &profile(0.3, 0.0, 64.0 * 100.0),
            10_000,
            0.0,
            64,
            &mut rng,
            &mut out,
        );
        let distinct: std::collections::HashSet<u32> = out.iter().map(|r| r.line).collect();
        assert!(
            distinct.len() < 500,
            "expected heavy reuse, got {} distinct lines",
            distinct.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut g1 = TraceGenerator::new();
        let mut g2 = TraceGenerator::new();
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        let p = profile(0.5, 0.2, 1e6);
        g1.generate_into(&p, 5000, 0.25, 64, &mut rng_for(9, &[1]), &mut o1);
        g2.generate_into(&p, 5000, 0.25, 64, &mut rng_for(9, &[1]), &mut o2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn larger_working_set_means_more_distinct_lines() {
        let distinct = |ws: f64| {
            let mut gen = TraceGenerator::new();
            let mut out = Vec::new();
            let mut rng = rng_for(11, &[ws.to_bits()]);
            gen.generate_into(&profile(0.8, 0.0, ws), 16_000, 0.0, 64, &mut rng, &mut out);
            out.iter()
                .map(|r| r.line)
                .collect::<std::collections::HashSet<u32>>()
                .len()
        };
        assert!(distinct(64.0 * 1e5) > distinct(64.0 * 1e3));
    }
}
