//! Test-only oracles: the trace generator and cache simulator as they were
//! before the allocation-free rewrite (DESIGN.md §18) — a Fenwick tree over
//! access-time slots, one `Vec<u64>` of tags per set, a reference-major walk
//! of the hierarchy, `powf` on every non-streaming draw — and the tests that
//! hold [`crate::trace`] and [`crate::cache`] bit-identical to them.

use crate::cache::{HierarchyResult, LevelStats};
use crate::demand::LocalityProfile;
use crate::machine::{CacheLevelSpec, CpuSpec};
use rand::Rng;

/// Fenwick (binary indexed) tree over `1..=n`: point add, prefix-sum select.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        while i <= self.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Smallest index `i` with `prefix_sum(i) >= rank` (rank >= 1).
    fn select(&self, rank: u32) -> Option<usize> {
        if rank == 0 {
            return None;
        }
        let mut pos = 0usize;
        let mut remaining = rank;
        let mut mask = self.len().next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= self.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        (pos < self.len()).then_some(pos + 1)
    }
}

/// The Fenwick-backed LRU stack.
pub struct FenwickLru {
    bit: Fenwick,
    slot_line: Vec<u64>,
    now: usize,
    active: usize,
    next_line: u64,
}

impl FenwickLru {
    pub fn new(capacity: usize) -> Self {
        Self {
            bit: Fenwick::new(capacity.max(1)),
            slot_line: vec![0; capacity.max(1) + 1],
            now: 1,
            active: 0,
            next_line: 0,
        }
    }

    pub fn active(&self) -> usize {
        self.active
    }

    pub fn touch_fresh(&mut self) -> u64 {
        let line = self.next_line;
        self.next_line += 1;
        self.place(line);
        self.active += 1;
        line
    }

    pub fn touch_depth(&mut self, depth: usize) -> u64 {
        assert!(depth < self.active);
        let rank = (self.active - depth) as u32;
        let slot = self.bit.select(rank).expect("rank within active count");
        let line = self.slot_line[slot];
        self.bit.add(slot, -1);
        self.place(line);
        line
    }

    fn place(&mut self, line: u64) {
        let slot = self.now;
        assert!(slot <= self.bit.len(), "capacity exhausted");
        self.now += 1;
        self.bit.add(slot, 1);
        self.slot_line[slot] = line;
    }
}

/// The trace as `(line, is_store)` pairs, from the original generator loop.
pub fn generate(
    profile: &LocalityProfile,
    n: usize,
    store_fraction: f64,
    line_bytes: u32,
    rng: &mut impl Rng,
) -> Vec<(u64, bool)> {
    let mut out = Vec::with_capacity(n);
    let mut lru = FenwickLru::new(n);
    let line_bytes = line_bytes.max(1) as f64;
    let ws_lines = (profile.working_set_bytes / line_bytes).max(1.0);
    for _ in 0..n {
        let is_store = rng.gen::<f64>() < store_fraction;
        let line = if rng.gen::<f64>() < profile.streaming {
            lru.touch_fresh()
        } else {
            let u: f64 = rng.gen();
            let depth_lines = ws_lines * u.powf(1.0 / profile.theta);
            let depth = depth_lines as usize;
            if depth >= lru.active() {
                lru.touch_fresh()
            } else {
                lru.touch_depth(depth)
            }
        };
        out.push((line, is_store));
    }
    out
}

/// The set-associative cache with one most-recent-first `Vec` per set.
pub struct VecSetCache {
    n_sets: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
    pub stats: LevelStats,
}

impl VecSetCache {
    pub fn from_spec(spec: &CacheLevelSpec, sharing: u32) -> Self {
        let sharing = sharing.max(1) as u64;
        let capacity = (spec.capacity_bytes / sharing).max(spec.line_bytes as u64);
        let lines = (capacity / spec.line_bytes as u64).max(1);
        let ways = (spec.associativity as u64).min(lines).max(1);
        let n_sets = (lines / ways).max(1);
        Self {
            n_sets,
            ways: ways as usize,
            sets: vec![Vec::new(); n_sets as usize],
            stats: LevelStats::default(),
        }
    }

    pub fn n_sets(&self) -> u64 {
        self.n_sets
    }

    pub fn ways(&self) -> usize {
        self.ways
    }

    pub fn access(&mut self, line: u64, is_store: bool) -> bool {
        let set = &mut self.sets[(line % self.n_sets) as usize];
        let hit = match set.iter().position(|&t| t == line) {
            Some(pos) => {
                let tag = set.remove(pos);
                set.insert(0, tag);
                true
            }
            None => {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, line);
                false
            }
        };
        match (is_store, hit) {
            (false, true) => self.stats.load_hits += 1,
            (false, false) => self.stats.load_misses += 1,
            (true, true) => self.stats.store_hits += 1,
            (true, false) => self.stats.store_misses += 1,
        }
        hit
    }
}

/// One kernel through `cpu`'s hierarchy, every structure built afresh.
pub fn run_trace(
    profile: &LocalityProfile,
    store_fraction: f64,
    cpu: &CpuSpec,
    ranks_on_node: u32,
    trace_len: usize,
    rng: &mut impl Rng,
) -> HierarchyResult {
    let line_bytes = cpu.cache_levels.first().map_or(64, |l| l.line_bytes);
    let trace = generate(profile, trace_len, store_fraction, line_bytes, rng);
    let mut caches: Vec<VecSetCache> = cpu
        .cache_levels
        .iter()
        .map(|spec| VecSetCache::from_spec(spec, if spec.shared { ranks_on_node } else { 1 }))
        .collect();
    let mut dram = 0u64;
    for &(line, is_store) in &trace {
        if !caches.iter_mut().any(|c| c.access(line, is_store)) {
            dram += 1;
        }
    }
    HierarchyResult {
        levels: caches.into_iter().map(|c| c.stats).collect(),
        dram_accesses: dram,
        total_refs: trace.len() as u64,
    }
}

mod tests {
    use super::*;
    use crate::cache::{CacheSimulator, SetAssocCache};
    use crate::machine::table1_machines;
    use crate::noise::rng_for;
    use crate::trace::{IndexedLru, MemRef, TraceGenerator};
    use proptest::prelude::*;

    fn level(capacity_bytes: u64, associativity: u32) -> CacheLevelSpec {
        CacheLevelSpec {
            capacity_bytes,
            associativity,
            line_bytes: 64,
            latency_cycles: 1.0,
            shared: true,
        }
    }

    /// A line stream with reuse (a hot range), conflicts (strides of the set
    /// count) and cold lines, so hits, evictions and first touches all occur.
    fn line_stream(n_sets: u64, len: usize, rng: &mut impl Rng) -> Vec<(u32, bool)> {
        (0..len)
            .map(|_| {
                let line = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..64u64),
                    1 => rng.gen_range(0..8u64) + n_sets * rng.gen_range(0..40u64),
                    2 => rng.gen_range(0..4 * n_sets),
                    _ => rng.gen_range(0..u32::MAX as u64 + 1),
                };
                (line as u32, rng.gen::<f64>() < 0.3)
            })
            .collect()
    }

    fn assert_same_cache(new: &mut SetAssocCache, old: &mut VecSetCache, stream: &[(u32, bool)]) {
        assert_eq!((new.n_sets(), new.ways()), (old.n_sets(), old.ways()));
        for (i, &(line, is_store)) in stream.iter().enumerate() {
            let (got, want) = (
                new.access(line, is_store),
                old.access(line as u64, is_store),
            );
            assert_eq!(got, want, "access {i}: line {line}");
        }
        assert_eq!(new.stats, old.stats);
    }

    #[test]
    fn set_assoc_cache_matches_vec_cache_on_table1_geometries() {
        let mut rng = rng_for(12, &[]);
        let mut seen_sets = Vec::new();
        // One cache re-shaped through every geometry, as the simulator does.
        let mut reused: Option<SetAssocCache> = None;
        for machine in table1_machines() {
            for spec in &machine.cpu.cache_levels {
                for sharing in [1, 2, 7, 20, machine.cores()] {
                    let mut old = VecSetCache::from_spec(spec, sharing);
                    seen_sets.push(old.n_sets());
                    let stream = line_stream(old.n_sets(), 6_000, &mut rng);
                    let mut fresh = SetAssocCache::from_spec(spec, sharing);
                    assert_same_cache(&mut fresh, &mut old, &stream);
                    let mut old = VecSetCache::from_spec(spec, sharing);
                    let new = match reused.as_mut() {
                        Some(cache) => {
                            cache.configure(spec, sharing);
                            cache
                        }
                        None => reused.insert(SetAssocCache::from_spec(spec, sharing)),
                    };
                    assert_same_cache(new, &mut old, &stream);
                    assert!(new.sets_touched() <= stream.len());
                }
            }
        }
        // The unshared last-level set counts, none but Corona's a power of two.
        for n_sets in [36_864, 56_599, 45_056, 131_072] {
            assert!(
                seen_sets.contains(&n_sets),
                "no geometry with {n_sets} sets"
            );
        }
    }

    #[test]
    fn reset_empties_the_cache_without_touching_geometry() {
        let mut rng = rng_for(13, &[]);
        let spec = level(90_112 * 64 * 11, 11);
        let mut new = SetAssocCache::from_spec(&spec, 1);
        for round in 0..3 {
            let mut old = VecSetCache::from_spec(&spec, 1);
            let stream = line_stream(old.n_sets(), 4_000, &mut rng);
            assert_same_cache(&mut new, &mut old, &stream);
            assert!(new.sets_touched() > 0, "round {round}");
            new.reset();
            assert_eq!(new.sets_touched(), 0);
        }
    }

    #[test]
    fn extreme_lines_neither_panic_nor_alias() {
        // One set: the tag is the whole line. Many sets: the set index is.
        for spec in [level(64 * 4, 4), level(64 * 65_536 * 2, 2)] {
            let mut new = SetAssocCache::from_spec(&spec, 1);
            let mut old = VecSetCache::from_spec(&spec, 1);
            let lines = [u32::MAX, 0, u32::MAX - 1, u32::MAX, 1 << 31, 0, u32::MAX];
            let stream: Vec<_> = lines.iter().map(|&l| (l, false)).collect();
            assert_same_cache(&mut new, &mut old, &stream);
        }
    }

    #[test]
    fn degenerate_specs_get_a_one_line_cache() {
        let spec = CacheLevelSpec {
            capacity_bytes: 0,
            associativity: 0,
            line_bytes: 0,
            latency_cycles: 1.0,
            shared: false,
        };
        let mut c = SetAssocCache::from_spec(&spec, 0);
        assert_eq!((c.n_sets(), c.ways()), (1, 1));
        assert!(!c.access(7, false));
        assert!(c.access(7, true));
        assert!(!c.access(8, false));
        assert!(!c.access(7, false), "one way: 8 evicted 7");
    }

    fn assert_same_lru(capacity: usize, ops: &[(bool, usize)], new: &mut IndexedLru) {
        let mut old = FenwickLru::new(capacity);
        let mut naive: Vec<u32> = Vec::new();
        for &(fresh, pick) in ops.iter().take(capacity) {
            if fresh || naive.is_empty() {
                let line = new.touch_fresh();
                assert_eq!(line as u64, old.touch_fresh());
                naive.insert(0, line);
            } else {
                let depth = pick % naive.len();
                let line = new.touch_depth(depth);
                assert_eq!(line as u64, old.touch_depth(depth), "depth {depth}");
                assert_eq!(line, naive.remove(depth), "depth {depth}");
                naive.insert(0, line);
            }
            assert_eq!(new.active(), naive.len());
            assert_eq!(new.active(), old.active());
        }
    }

    #[test]
    fn indexed_lru_matches_fenwick_and_naive_across_resets() {
        let mut rng = rng_for(14, &[]);
        let mut lru = IndexedLru::new(1);
        // Capacities on both sides of the 512- and 4096-slot block sizes, in
        // an order that shrinks and grows the reused stack.
        for capacity in [9_000, 1, 511, 4_097, 64, 12_288, 4_096] {
            for fresh_share in [0.02, 0.3, 0.9] {
                let ops: Vec<(bool, usize)> = (0..capacity)
                    .map(|_| (rng.gen::<f64>() < fresh_share, rng.gen_range(0..usize::MAX)))
                    .collect();
                lru.reset(capacity);
                assert_same_lru(capacity, &ops, &mut lru);
            }
        }
    }

    fn regimes() -> [LocalityProfile; 4] {
        let profile = |working_set_bytes, theta, streaming| LocalityProfile {
            working_set_bytes,
            theta,
            streaming,
        };
        [
            profile(64.0 * 1024.0, 0.3, 0.0),
            profile(4.0 * 1024.0 * 1024.0, 0.8, 0.0),
            profile(2.0e8, 0.6, 0.25),
            profile(512.0 * 1024.0 * 1024.0, 1.0, 0.5),
        ]
    }

    fn assert_same_trace(profile: &LocalityProfile, n: usize, gen: &mut TraceGenerator, seed: u64) {
        let want = generate(profile, n, 0.3, 64, &mut rng_for(seed, &[]));
        let mut got: Vec<MemRef> = Vec::new();
        gen.generate_into(profile, n, 0.3, 64, &mut rng_for(seed, &[]), &mut got);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!((g.line as u64, g.is_store), *w, "ref {i} of {profile:?}");
        }
    }

    #[test]
    fn reused_generator_matches_original_loop() {
        let mut gen = TraceGenerator::new();
        for (seed, n) in [(1, 20_000), (2, 300), (3, 32_768), (4, 5_000)] {
            for profile in &regimes() {
                assert_same_trace(profile, n, &mut gen, seed);
            }
        }
    }

    /// Profiles outside their documented ranges still draw a depth for every
    /// non-streaming reference, exactly as the original loop did.
    #[test]
    fn out_of_range_profiles_generate_the_same_trace() {
        let mut gen = TraceGenerator::new();
        for (working_set_bytes, theta, streaming) in [
            (1.0e6, 0.0, 0.1),
            (1.0e6, -0.7, 0.1),
            (1.0e6, f64::NAN, 0.1),
            (1.0e6, f64::INFINITY, 0.1),
            (1.0e6, 40.0, 0.0),
            (f64::INFINITY, 0.5, 0.2),
            (f64::NAN, 0.5, 0.2),
            (-5.0, 0.5, 0.2),
            (0.0, 1.5, 0.0),
            (1.0e300, 1.5, 0.0),
            (4096.0, 0.5, 1.5),
            (4096.0, 0.5, f64::NAN),
        ] {
            let profile = LocalityProfile {
                working_set_bytes,
                theta,
                streaming,
            };
            assert_same_trace(&profile, 3_000, &mut gen, 21);
        }
    }

    /// The failure mode reuse introduces: stale epochs, stale geometry, a
    /// stale trace buffer. One simulator driven back to back through kernels
    /// of different machines and rank counts must equal a fresh simulator per
    /// kernel, and both must equal the original implementation.
    #[test]
    fn reused_simulator_matches_fresh_simulator_and_oracle() {
        let machines = table1_machines();
        let mut reused = CacheSimulator::new();
        let mut kernel = 0u64;
        for round in 0..2 {
            for profile in &regimes() {
                // Machines innermost, so consecutive kernels change geometry.
                for machine in &machines {
                    for ranks in [1, machine.cores(), 7] {
                        kernel += 1;
                        let seed = 100 + kernel;
                        let run = |sim: &mut CacheSimulator| {
                            sim.run(profile, 0.3, &machine.cpu, ranks, &mut rng_for(seed, &[]))
                        };
                        let want = run_trace(
                            profile,
                            0.3,
                            &machine.cpu,
                            ranks,
                            reused.trace_len,
                            &mut rng_for(seed, &[]),
                        );
                        assert_eq!(run(&mut reused), want, "round {round} kernel {kernel}");
                        let mut fresh = CacheSimulator::new();
                        fresh.trace_len = reused.trace_len;
                        assert_eq!(run(&mut fresh), want);
                    }
                }
            }
            // A different trace length re-sizes every reused buffer.
            reused.trace_len = 5_000;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn set_assoc_cache_matches_vec_cache(
            sets in 1u64..3_000,
            ways in 1u32..=20,
            sharing in 1u32..=56,
            seed in any::<u64>(),
        ) {
            // Capacities that are not multiples of `ways * 64` after sharing
            // exercise the rounding in the geometry.
            let spec = level(sets * ways as u64 * 64 * sharing as u64 + 64 * (seed % 3), ways);
            let mut rng = rng_for(seed, &[]);
            let mut old = VecSetCache::from_spec(&spec, sharing);
            let stream = line_stream(old.n_sets(), 3_000, &mut rng);
            // Start from a different, used geometry.
            let mut new = SetAssocCache::from_spec(&level(64 * 8 * 100, 8), 1);
            for &(line, is_store) in &stream[..200] {
                new.access(line, is_store);
            }
            new.configure(&spec, sharing);
            prop_assert_eq!((new.n_sets(), new.ways()), (old.n_sets(), old.ways()));
            for &(line, is_store) in &stream {
                prop_assert_eq!(new.access(line, is_store), old.access(line as u64, is_store));
            }
            prop_assert_eq!(new.stats, old.stats);
        }

        #[test]
        fn indexed_lru_matches_fenwick_and_naive(
            ops in proptest::collection::vec((any::<bool>(), any::<usize>()), 1..1500),
            slack in 0usize..700,
        ) {
            let capacity = ops.len() + slack;
            let mut lru = IndexedLru::new(7);
            lru.touch_fresh();
            lru.reset(capacity);
            assert_same_lru(capacity, &ops, &mut lru);
        }

        #[test]
        fn simulator_matches_oracle_for_arbitrary_profiles(
            ws in 1.0e3f64..1.0e9,
            theta in 0.05f64..1.5,
            streaming in 0.0f64..0.95,
            store_fraction in 0.0f64..1.0,
            machine in 0usize..4,
            full_node in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let profile = LocalityProfile { working_set_bytes: ws, theta, streaming };
            let machine = &table1_machines()[machine];
            let ranks = if full_node { machine.cores() } else { 1 };
            let mut sim = CacheSimulator::new();
            sim.trace_len = 6_000;
            // Warm the reused structures on another kernel first.
            sim.run(&regimes()[2], 0.5, &machine.cpu, 3, &mut rng_for(seed, &[1]));
            let got = sim.run(&profile, store_fraction, &machine.cpu, ranks, &mut rng_for(seed, &[]));
            let want = run_trace(&profile, store_fraction, &machine.cpu, ranks, 6_000, &mut rng_for(seed, &[]));
            prop_assert_eq!(got, want);
        }
    }
}
