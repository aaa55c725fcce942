//! Test-only oracles: the trace generator and cache simulator in their
//! plainest form — a Fenwick tree over access-time slots, one `Vec<u64>` of
//! lines per set that every reference of the trace is carried through, a
//! reference-major walk of the hierarchy, `powf` on every non-streaming draw
//! — and the tests that hold [`crate::trace`] and [`crate::cache`]
//! bit-identical to them (DESIGN.md §18).

use crate::cache::{HierarchyResult, LevelStats};
use crate::demand::LocalityProfile;
use crate::machine::{CacheLevelSpec, CpuSpec};
use crate::trace::MemRef;
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
        let (n_sets, ways) = spec.geometry(sharing);
        Self {
            n_sets: n_sets as u64,
            ways: ways as usize,
            sets: vec![Vec::new(); n_sets as usize],
            stats: LevelStats::default(),
        }
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
    walk(&trace, cpu, ranks_on_node).0
}

/// `trace` through `cpu`'s hierarchy, reference by reference; also the sets
/// that hold a line afterwards, summed over levels.
pub fn walk(trace: &[(u64, bool)], cpu: &CpuSpec, ranks_on_node: u32) -> (HierarchyResult, u64) {
    let mut caches: Vec<VecSetCache> = cpu
        .cache_levels
        .iter()
        .map(|spec| VecSetCache::from_spec(spec, if spec.shared { ranks_on_node } else { 1 }))
        .collect();
    let mut dram = 0u64;
    for &(line, is_store) in trace {
        if !caches.iter_mut().any(|c| c.access(line, is_store)) {
            dram += 1;
        }
    }
    let sets_touched = caches
        .iter()
        .flat_map(|c| &c.sets)
        .filter(|s| !s.is_empty());
    let result = HierarchyResult {
        levels: caches.iter().map(|c| c.stats).collect(),
        dram_accesses: dram,
        total_refs: trace.len() as u64,
    };
    (result, sets_touched.count() as u64)
}

/// A CPU whose cache levels have the given `(sets, ways)`, none shared.
pub fn hierarchy(levels: &[(u64, u32)]) -> CpuSpec {
    let mut cpu = crate::machine::quartz().cpu;
    cpu.cache_levels = levels
        .iter()
        .map(|&(sets, ways)| CacheLevelSpec {
            capacity_bytes: sets * ways as u64 * 64,
            associativity: ways,
            line_bytes: 64,
            latency_cycles: 1.0,
            shared: false,
        })
        .collect();
    cpu
}

/// `lines` as a trace of loads.
pub fn loads(lines: &[u32]) -> Vec<MemRef> {
    let load = |&line| MemRef {
        line,
        is_store: false,
    };
    lines.iter().map(load).collect()
}

mod tests {
    use super::*;
    use crate::cache::CacheSimulator;
    use crate::machine::table1_machines;
    use crate::noise::rng_for;
    use crate::trace::{IndexedLru, TraceGenerator};
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

    fn one_level(spec: CacheLevelSpec) -> CpuSpec {
        let mut cpu = hierarchy(&[]);
        cpu.cache_levels = vec![spec];
        cpu
    }

    /// A trace with dense line ids in which `fresh_share` of the references
    /// are first touches and the rest re-touch a recent line, a line some
    /// multiples of one of `strides` (set counts) below a recent one, or any
    /// line seen: hits, conflict evictions and long windows all occur.
    fn dense_stream(
        strides: &[u64],
        len: usize,
        fresh_share: f64,
        rng: &mut impl Rng,
    ) -> Vec<MemRef> {
        let mut seen = 0u64;
        let mut line = |rng: &mut dyn rand::RngCore| {
            if seen == 0 || rng.gen::<f64>() < fresh_share {
                seen += 1;
                return seen - 1;
            }
            match rng.gen_range(0..3u32) {
                0 => seen - 1 - rng.gen_range(0..seen.min(48)),
                1 => {
                    let recent = seen - 1 - rng.gen_range(0..seen.min(6));
                    let stride = strides[rng.gen_range(0..strides.len())];
                    recent - stride * rng.gen_range(0..=(recent / stride).min(40))
                }
                _ => rng.gen_range(0..seen),
            }
        };
        (0..len)
            .map(|_| MemRef {
                line: line(rng) as u32,
                is_store: rng.gen::<f64>() < 0.3,
            })
            .collect()
    }

    /// `walk` decides `trace` on `cpu` exactly as the reference-by-reference
    /// caches do, and touches the sets they touch.
    fn assert_same_hierarchy(
        sim: &mut CacheSimulator,
        trace: &[MemRef],
        cpu: &CpuSpec,
        ranks: u32,
    ) {
        let pairs: Vec<_> = trace.iter().map(|r| (r.line as u64, r.is_store)).collect();
        let (want, sets_touched) = super::walk(&pairs, cpu, ranks);
        assert_eq!(sim.walk(trace, cpu, ranks), want);
        assert_eq!(sim.sets_touched(), sets_touched);
    }

    #[test]
    fn simulator_walk_matches_vec_caches_on_table1_geometries() {
        let mut rng = rng_for(12, &[]);
        let mut seen_sets = Vec::new();
        // One simulator re-shaped through every geometry, as in a collection.
        let mut reused = CacheSimulator::new();
        for machine in table1_machines() {
            for spec in &machine.cpu.cache_levels {
                for sharing in [1, 2, 7, 20, machine.cores()] {
                    let cpu = one_level(CacheLevelSpec {
                        shared: true,
                        ..*spec
                    });
                    let n_sets = spec.geometry(sharing).0 as u64;
                    seen_sets.push(n_sets);
                    // Long enough for lines `n_sets` apart to exist.
                    let stream = dense_stream(&[n_sets], 40_000, 0.97, &mut rng);
                    assert_same_hierarchy(&mut CacheSimulator::new(), &stream, &cpu, sharing);
                    assert_same_hierarchy(&mut reused, &stream, &cpu, sharing);
                    let stream = dense_stream(&[n_sets], 6_000, 0.3, &mut rng);
                    assert_same_hierarchy(&mut reused, &stream, &cpu, sharing);
                }
            }
            // The whole hierarchy, both rank layouts.
            let strides: Vec<u64> = machine
                .cpu
                .cache_levels
                .iter()
                .map(|l| l.geometry(1).0 as u64)
                .collect();
            for ranks in [1, machine.cores()] {
                for fresh_share in [0.05, 0.5, 0.9] {
                    let stream = dense_stream(&strides, 40_000, fresh_share, &mut rng);
                    assert_same_hierarchy(&mut reused, &stream, &machine.cpu, ranks);
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
    fn reused_simulator_starts_every_trace_empty() {
        let mut rng = rng_for(13, &[]);
        let cpu = one_level(level(90_112 * 64 * 11, 11));
        let mut sim = CacheSimulator::new();
        for fresh_share in [0.1, 0.6, 0.95] {
            let stream = dense_stream(&[90_112, 1], 4_000, fresh_share, &mut rng);
            assert_same_hierarchy(&mut sim, &stream, &cpu, 1);
            // The same trace again: nothing of the first pass is left.
            assert_same_hierarchy(&mut sim, &stream, &cpu, 1);
        }
    }

    #[test]
    fn extreme_geometries_neither_panic_nor_alias() {
        let mut rng = rng_for(15, &[]);
        let stream = dense_stream(&[1, 512, 65_536], 20_000, 0.4, &mut rng);
        let mut sim = CacheSimulator::new();
        // One set of 4, 64 and 512 ways; many sets; more sets than lines.
        for spec in [
            level(64 * 4, 4),
            level(64 * 64, 64),
            level(64 * 512, 512),
            level(64 * 65_536 * 2, 2),
            level(64 * 7 * 600, 600),
        ] {
            assert_same_hierarchy(&mut sim, &stream, &one_level(spec), 1);
        }
        // A set count saturated at `u32::MAX` is one set per line: only the
        // first touches miss, and the set table is sized by the lines.
        let huge = one_level(CacheLevelSpec {
            line_bytes: 1,
            ..level(u64::MAX, 1)
        });
        assert_eq!(huge.cache_levels[0].geometry(1), (u32::MAX, 1));
        let r = sim.walk(&stream, &huge, 1);
        assert_eq!(r.dram_accesses, sim.first_touches());
        assert_eq!(r.levels[0].accesses(), 20_000);
    }

    #[test]
    fn degenerate_specs_get_a_one_line_cache() {
        let spec = CacheLevelSpec {
            capacity_bytes: 0,
            associativity: 0,
            line_bytes: 0,
            latency_cycles: 1.0,
            shared: true,
        };
        assert_eq!(spec.geometry(0), (1, 1));
        // One way: 1 evicts 0.
        let mut trace = loads(&[0, 0, 1, 0]);
        trace[1].is_store = true;
        let r = CacheSimulator::new().walk(&trace, &one_level(spec), 0);
        let stats = r.levels[0];
        assert_eq!(
            (stats.load_misses, stats.store_hits, stats.load_hits),
            (3, 1, 0)
        );
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

    /// The failure mode reuse introduces: stale line state, stale geometry, a
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
        fn simulator_walk_matches_vec_caches(
            sets in 1u64..3_000,
            ways in 1u32..=20,
            tall in 0usize..4,
            sharing in 1u32..=56,
            len in 1usize..=40_000,
            fresh_share in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            // Capacities that are not multiples of `ways * 64` after sharing
            // exercise the rounding in the geometry; half the cases have 64
            // ways or more, every third is a single set.
            let ways = [ways, ways, 63 + ways, 500 + ways][tall];
            let sets = if seed % 3 == 0 { 1 } else { sets };
            let spec = level(sets * ways as u64 * 64 * sharing as u64 + 64 * (seed % 3), ways);
            let mut rng = rng_for(seed, &[]);
            let n_sets = spec.geometry(sharing).0 as u64;
            // Long traces cost the oracle `ways` per reference: keep the
            // product bounded.
            let len = len.min(4_000_000 / ways as usize);
            let stream = dense_stream(&[n_sets, 2 * n_sets + 1], len, fresh_share, &mut rng);
            // Start from a different, used geometry.
            let mut sim = CacheSimulator::new();
            sim.walk(&stream[..len.min(200)], &one_level(level(64 * 8 * 100, 8)), 1);
            assert_same_hierarchy(&mut sim, &stream, &one_level(spec), sharing);
            // Two levels: the second sees the first's misses only.
            let cpu = hierarchy(&[(n_sets.min(64), ways.min(4)), (n_sets, ways)]);
            assert_same_hierarchy(&mut sim, &stream, &cpu, 1);
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
            trace_len in 1usize..=40_000,
            seed in any::<u64>(),
        ) {
            let profile = LocalityProfile { working_set_bytes: ws, theta, streaming };
            let machine = &table1_machines()[machine];
            let ranks = if full_node { machine.cores() } else { 1 };
            let mut sim = CacheSimulator::new();
            sim.trace_len = trace_len;
            // Warm the reused structures on another kernel first.
            sim.run(&regimes()[2], 0.5, &machine.cpu, 3, &mut rng_for(seed, &[1]));
            let got = sim.run(&profile, store_fraction, &machine.cpu, ranks, &mut rng_for(seed, &[]));
            let want = run_trace(&profile, store_fraction, &machine.cpu, ranks, trace_len, &mut rng_for(seed, &[]));
            prop_assert_eq!(got, want);
        }
    }
}
