//! Trace-driven multi-level cache simulation.
//!
//! [`SetAssocCache`] is a classic set-associative LRU cache model;
//! [`CacheSimulator`] drives a synthetic reference trace (from
//! [`crate::trace`]) through the machine's hierarchy and reports per-level
//! load/store miss ratios, which the execution model turns into stall cycles
//! and the counter model into `PAPI_L*_LDM/STM`-style values.
//!
//! Shared levels (e.g. L3) are modelled by dividing their capacity among the
//! ranks co-resident on the node, which is what makes full-node runs miss
//! more than single-core runs on the same input — a relationship the ML
//! model must be able to learn (Fig. 4's scale ablation).
//!
//! A [`CacheSimulator`] keeps one [`SetAssocCache`] and re-shapes it for each
//! level of each kernel, so a reused simulator allocates nothing in steady
//! state: a set gets its `ways` tags out of one arena the first time it is
//! touched, and an epoch stamp per set makes emptying the cache O(1)
//! (DESIGN.md §18).

use crate::demand::LocalityProfile;
use crate::machine::{CacheLevelSpec, CpuSpec};
use crate::trace::{MemRef, TraceGenerator, DEFAULT_TRACE_LEN};
use rand::Rng;

/// Hit/miss counts for one cache level, split by access type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Load accesses that hit.
    pub load_hits: u64,
    /// Load accesses that missed.
    pub load_misses: u64,
    /// Store accesses that hit.
    pub store_hits: u64,
    /// Store accesses that missed.
    pub store_misses: u64,
}

impl LevelStats {
    /// Total accesses observed at this level.
    pub fn accesses(&self) -> u64 {
        self.load_hits + self.load_misses + self.store_hits + self.store_misses
    }

    /// Miss ratio over all accesses at this level (0 if none).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 0.0;
        }
        (self.load_misses + self.store_misses) as f64 / total as f64
    }
}

/// One set's entry in the set table: live only while `epoch` matches the
/// cache's, in which case the set's tags are arena block `block`.
#[derive(Debug, Clone, Copy, Default)]
struct SetSlot {
    epoch: u32,
    block: u32,
}

/// A set-associative cache with true-LRU replacement.
///
/// Lines are 32-bit (see [`MemRef`]), so a tag (`line / n_sets`) is too, and
/// only sets that were touched since the last reset hold storage.
#[derive(Debug)]
pub struct SetAssocCache {
    n_sets: u32,
    ways: usize,
    /// Current epoch; never 0, which stamps set-table entries never touched.
    epoch: u32,
    sets: Vec<SetSlot>,
    /// One block of `1 + ways` words per touched set: how many tags it holds,
    /// then the tags, most recently used first.
    arena: Vec<u32>,
    /// Statistics accumulated since construction or [`SetAssocCache::reset`].
    pub stats: LevelStats,
}

impl Default for SetAssocCache {
    /// A cache of one line, the smallest [`SetAssocCache::configure`] makes.
    fn default() -> Self {
        Self {
            n_sets: 1,
            ways: 1,
            epoch: 1,
            sets: vec![SetSlot::default()],
            arena: Vec::new(),
            stats: LevelStats::default(),
        }
    }
}

impl SetAssocCache {
    /// Build from a level spec with an optional capacity divisor for shared
    /// levels (how many ranks share it).
    pub fn from_spec(spec: &CacheLevelSpec, sharing: u32) -> Self {
        let mut cache = Self::default();
        cache.configure(spec, sharing);
        cache
    }

    /// Re-shape for `spec` and `sharing` and empty the cache, keeping its
    /// buffers. Set counts beyond `u32::MAX` saturate.
    pub fn configure(&mut self, spec: &CacheLevelSpec, sharing: u32) {
        let line_bytes = spec.line_bytes.max(1) as u64;
        let capacity = (spec.capacity_bytes / sharing.max(1) as u64).max(line_bytes);
        let lines = (capacity / line_bytes).max(1);
        let ways = (spec.associativity as u64).min(lines).max(1);
        self.n_sets = (lines / ways).clamp(1, u32::MAX as u64) as u32;
        self.ways = ways as usize;
        if self.sets.len() < self.n_sets as usize {
            self.sets.resize(self.n_sets as usize, SetSlot::default());
        }
        self.reset();
    }

    /// Number of sets (after sharing adjustment).
    pub fn n_sets(&self) -> u64 {
        self.n_sets as u64
    }

    /// Associativity (after sharing adjustment).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Sets touched since construction or the last reset.
    pub fn sets_touched(&self) -> usize {
        self.arena.len() / (self.ways + 1)
    }

    /// Access a line; returns true on hit. Updates LRU order and stats.
    pub fn access(&mut self, line: u32, is_store: bool) -> bool {
        let tag = line / self.n_sets;
        let stride = self.ways + 1;
        let slot = &mut self.sets[(line % self.n_sets) as usize];
        if slot.epoch != self.epoch {
            *slot = SetSlot {
                epoch: self.epoch,
                block: (self.arena.len() / stride) as u32,
            };
            self.arena.resize(self.arena.len() + stride, 0);
        }
        let base = slot.block as usize * stride;
        let (len, tags) = self.arena[base..base + stride]
            .split_first_mut()
            .expect("a block holds a length and at least one way");
        // One pass: push `tag` in at the MRU end and carry each resident tag
        // one way down, until the carried tag is `tag` itself (a hit).
        let held = *len as usize;
        let mut carried = tag;
        let mut hit = false;
        for way in &mut tags[..held] {
            carried = std::mem::replace(way, carried);
            if carried == tag {
                hit = true;
                break;
            }
        }
        // On a miss `carried` is the LRU tag: it moves into a free way, or
        // falls out of a full set.
        if !hit && held < self.ways {
            tags[held] = carried;
            *len += 1;
        }
        // Branch-free: `is_store` is a coin flip the predictor cannot learn.
        self.stats.load_hits += (!is_store & hit) as u64;
        self.stats.load_misses += (!is_store & !hit) as u64;
        self.stats.store_hits += (is_store & hit) as u64;
        self.stats.store_misses += (is_store & !hit) as u64;
        hit
    }

    /// Clear contents and statistics.
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2^32 resets ago would look live again.
            self.sets.fill(SetSlot::default());
            self.epoch = 1;
        }
        self.arena.clear();
        self.stats = LevelStats::default();
    }
}

/// Result of simulating a kernel's reference stream through a hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyResult {
    /// Per-level statistics, L1 first.
    pub levels: Vec<LevelStats>,
    /// References that missed every level (went to DRAM).
    pub dram_accesses: u64,
    /// Total references simulated.
    pub total_refs: u64,
}

impl HierarchyResult {
    /// Global miss ratio of level `i` relative to *all* references (not just
    /// those that reached the level): what `PAPI_L2_LDM / PAPI_LD_INS`-style
    /// derived features measure.
    pub fn global_load_miss_ratio(&self, level: usize) -> f64 {
        let total_loads: u64 = self.levels[0].load_hits + self.levels[0].load_misses;
        if total_loads == 0 {
            return 0.0;
        }
        self.levels[level].load_misses as f64 / total_loads as f64
    }

    /// Store analogue of [`HierarchyResult::global_load_miss_ratio`].
    pub fn global_store_miss_ratio(&self, level: usize) -> f64 {
        let total_stores: u64 = self.levels[0].store_hits + self.levels[0].store_misses;
        if total_stores == 0 {
            return 0.0;
        }
        self.levels[level].store_misses as f64 / total_stores as f64
    }
}

/// How miss ratios are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheModel {
    /// Trace-driven set-associative simulation (default; slower, captures
    /// conflict misses).
    #[default]
    Trace,
    /// Closed-form stack-distance model (fast; fully-associative
    /// approximation). Used by the ablation benches and as a fallback for
    /// very large sweeps.
    Analytic,
}

/// Reusable cache-hierarchy simulator (owns the trace buffer and the cache
/// every level is simulated in, one level after the other).
#[derive(Debug)]
pub struct CacheSimulator {
    gen: TraceGenerator,
    buf: Vec<MemRef>,
    cache: SetAssocCache,
    sets_touched: u64,
    /// Number of sampled references per kernel.
    pub trace_len: usize,
    /// Selected model.
    pub model: CacheModel,
}

impl Default for CacheSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheSimulator {
    /// Trace-driven simulator with the default sample size.
    pub fn new() -> Self {
        Self {
            gen: TraceGenerator::new(),
            buf: Vec::with_capacity(DEFAULT_TRACE_LEN),
            cache: SetAssocCache::default(),
            sets_touched: 0,
            trace_len: DEFAULT_TRACE_LEN,
            model: CacheModel::Trace,
        }
    }

    /// Analytic-model simulator (no traces).
    pub fn analytic() -> Self {
        Self {
            model: CacheModel::Analytic,
            ..Self::new()
        }
    }

    /// Simulate one rank's reference stream through `cpu`'s hierarchy.
    ///
    /// `store_fraction` is stores / (loads + stores) from the instruction
    /// mix; `ranks_on_node` divides shared-level capacity.
    pub fn run(
        &mut self,
        profile: &LocalityProfile,
        store_fraction: f64,
        cpu: &CpuSpec,
        ranks_on_node: u32,
        rng: &mut impl Rng,
    ) -> HierarchyResult {
        self.sets_touched = 0;
        match self.model {
            CacheModel::Trace => self.run_trace(profile, store_fraction, cpu, ranks_on_node, rng),
            CacheModel::Analytic => self.run_analytic(profile, store_fraction, cpu, ranks_on_node),
        }
    }

    /// Cache sets touched, summed over levels, by the most recent
    /// [`CacheSimulator::run`] (0 under the analytic model).
    pub fn sets_touched(&self) -> u64 {
        self.sets_touched
    }

    fn run_trace(
        &mut self,
        profile: &LocalityProfile,
        store_fraction: f64,
        cpu: &CpuSpec,
        ranks_on_node: u32,
        rng: &mut impl Rng,
    ) -> HierarchyResult {
        let line_bytes = cpu.cache_levels.first().map(|l| l.line_bytes).unwrap_or(64);
        self.gen.generate_into(
            profile,
            self.trace_len,
            store_fraction,
            line_bytes,
            rng,
            &mut self.buf,
        );
        // Level by level: each level sees the previous one's misses in trace
        // order, compacted to the front of the (now spent) trace buffer, so
        // one cache's storage serves the whole hierarchy.
        let total_refs = self.buf.len();
        let mut live = total_refs;
        let mut levels = Vec::with_capacity(cpu.cache_levels.len());
        for spec in &cpu.cache_levels {
            let sharing = if spec.shared { ranks_on_node } else { 1 };
            self.cache.configure(spec, sharing);
            let mut missed = 0;
            for i in 0..live {
                let r = self.buf[i];
                self.buf[missed] = r;
                missed += !self.cache.access(r.line, r.is_store) as usize;
            }
            live = missed;
            levels.push(self.cache.stats);
            self.sets_touched += self.cache.sets_touched() as u64;
        }
        HierarchyResult {
            levels,
            dram_accesses: live as u64,
            total_refs: total_refs as u64,
        }
    }

    fn run_analytic(
        &self,
        profile: &LocalityProfile,
        store_fraction: f64,
        cpu: &CpuSpec,
        ranks_on_node: u32,
    ) -> HierarchyResult {
        // Model each level as fully-associative LRU of its (shared-adjusted)
        // capacity; the level sees only the misses of the previous one.
        let n = self.trace_len as f64;
        let loads = n * (1.0 - store_fraction);
        let stores = n * store_fraction;
        let mut levels = Vec::with_capacity(cpu.cache_levels.len());
        let mut in_loads = loads;
        let mut in_stores = stores;
        for spec in &cpu.cache_levels {
            let sharing = if spec.shared {
                ranks_on_node.max(1) as f64
            } else {
                1.0
            };
            let capacity = spec.capacity_bytes as f64 / sharing;
            // Cumulative miss ratio relative to all references.
            let cum_miss = profile.analytic_miss_ratio(capacity);
            let out_loads = (loads * cum_miss).min(in_loads);
            let out_stores = (stores * cum_miss).min(in_stores);
            levels.push(LevelStats {
                load_hits: (in_loads - out_loads).round() as u64,
                load_misses: out_loads.round() as u64,
                store_hits: (in_stores - out_stores).round() as u64,
                store_misses: out_stores.round() as u64,
            });
            in_loads = out_loads;
            in_stores = out_stores;
        }
        HierarchyResult {
            dram_accesses: (in_loads + in_stores).round() as u64,
            total_refs: n as u64,
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{quartz, ruby};
    use crate::noise::rng_for;

    fn friendly() -> LocalityProfile {
        LocalityProfile {
            working_set_bytes: 16.0 * 1024.0,
            theta: 0.5,
            streaming: 0.0,
        }
    }

    fn hostile() -> LocalityProfile {
        LocalityProfile {
            working_set_bytes: 512.0 * 1024.0 * 1024.0,
            theta: 1.0,
            streaming: 0.5,
        }
    }

    #[test]
    fn small_cache_spec_geometry() {
        let spec = CacheLevelSpec {
            capacity_bytes: 1024,
            associativity: 4,
            line_bytes: 64,
            latency_cycles: 1.0,
            shared: false,
        };
        let c = SetAssocCache::from_spec(&spec, 1);
        assert_eq!(c.n_sets(), 4);
        assert_eq!(c.ways(), 4);
    }

    #[test]
    fn direct_access_pattern_hits_after_warmup() {
        let spec = CacheLevelSpec {
            capacity_bytes: 64 * 16,
            associativity: 16,
            line_bytes: 64,
            latency_cycles: 1.0,
            shared: false,
        };
        let mut c = SetAssocCache::from_spec(&spec, 1);
        for line in 0..8u32 {
            assert!(!c.access(line, false), "cold miss expected");
        }
        for line in 0..8u32 {
            assert!(c.access(line, false), "warm hit expected");
        }
        assert_eq!(c.stats.load_hits, 8);
        assert_eq!(c.stats.load_misses, 8);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways.
        let spec = CacheLevelSpec {
            capacity_bytes: 128,
            associativity: 2,
            line_bytes: 64,
            latency_cycles: 1.0,
            shared: false,
        };
        let mut c = SetAssocCache::from_spec(&spec, 1);
        assert_eq!(c.n_sets(), 1);
        c.access(0, false); // [0]
        c.access(1, false); // [1,0]
        c.access(0, false); // hit, [0,1]
        c.access(2, false); // evicts 1, [2,0]
        assert!(c.access(0, false), "0 should still be cached");
        assert!(!c.access(1, false), "1 was evicted");
    }

    #[test]
    fn friendly_profile_hits_l1_hostile_misses() {
        let cpu = quartz().cpu;
        let mut sim = CacheSimulator::new();
        let f = sim.run(&friendly(), 0.25, &cpu, 1, &mut rng_for(1, &[]));
        let h = sim.run(&hostile(), 0.25, &cpu, 1, &mut rng_for(2, &[]));
        assert!(
            f.levels[0].miss_ratio() < 0.2,
            "friendly L1 miss {}",
            f.levels[0].miss_ratio()
        );
        assert!(
            h.levels[0].miss_ratio() > 0.5,
            "hostile L1 miss {}",
            h.levels[0].miss_ratio()
        );
        assert!(h.dram_accesses > f.dram_accesses);
    }

    #[test]
    fn sharing_reduces_effective_capacity() {
        let cpu = ruby().cpu;
        let mid = LocalityProfile {
            working_set_bytes: 4.0 * 1024.0 * 1024.0,
            theta: 0.8,
            streaming: 0.0,
        };
        let mut sim = CacheSimulator::new();
        let solo = sim.run(&mid, 0.25, &cpu, 1, &mut rng_for(3, &[]));
        let packed = sim.run(&mid, 0.25, &cpu, 56, &mut rng_for(3, &[]));
        let last = cpu.cache_levels.len() - 1;
        assert!(
            packed.levels[last].miss_ratio() > solo.levels[last].miss_ratio(),
            "shared LLC must miss more when divided among ranks"
        );
    }

    #[test]
    fn analytic_and_trace_models_agree_on_ordering() {
        let cpu = quartz().cpu;
        let mut tr = CacheSimulator::new();
        let an = CacheSimulator::analytic();
        let f_t = tr.run(&friendly(), 0.2, &cpu, 1, &mut rng_for(4, &[]));
        let h_t = tr.run(&hostile(), 0.2, &cpu, 1, &mut rng_for(5, &[]));
        let f_a = an.run_analytic(&friendly(), 0.2, &cpu, 1);
        let h_a = an.run_analytic(&hostile(), 0.2, &cpu, 1);
        assert!(f_t.dram_accesses < h_t.dram_accesses);
        assert!(f_a.dram_accesses < h_a.dram_accesses);
    }

    #[test]
    fn both_models_simulate_trace_len_references() {
        let cpu = quartz().cpu;
        for trace_len in [4_096, 32_768] {
            let (mut tr, mut an) = (CacheSimulator::new(), CacheSimulator::analytic());
            tr.trace_len = trace_len;
            an.trace_len = trace_len;
            let t = tr.run(&hostile(), 0.25, &cpu, 36, &mut rng_for(7, &[]));
            let a = an.run(&hostile(), 0.25, &cpu, 36, &mut rng_for(7, &[]));
            assert_eq!(t.total_refs, trace_len as u64);
            assert_eq!(a.total_refs, t.total_refs);
            // The first level sees every reference (up to per-counter rounding).
            assert!(a.levels[0].accesses().abs_diff(t.levels[0].accesses()) <= 2);
            assert_eq!(an.sets_touched(), 0);
            assert!(tr.sets_touched() > 0);
        }
    }

    #[test]
    fn global_miss_ratios_are_monotone_down_the_hierarchy() {
        let cpu = quartz().cpu;
        let mut sim = CacheSimulator::new();
        let r = sim.run(&hostile(), 0.3, &cpu, 1, &mut rng_for(6, &[]));
        let l1 = r.global_load_miss_ratio(0);
        let l2 = r.global_load_miss_ratio(1);
        assert!(l2 <= l1 + 1e-12, "L2 global misses cannot exceed L1's");
    }

    #[test]
    fn stats_reset() {
        let spec = CacheLevelSpec {
            capacity_bytes: 1024,
            associativity: 4,
            line_bytes: 64,
            latency_cycles: 1.0,
            shared: false,
        };
        let mut c = SetAssocCache::from_spec(&spec, 1);
        c.access(1, true);
        c.reset();
        assert_eq!(c.stats, LevelStats::default());
        assert!(!c.access(1, true), "reset must clear contents too");
    }
}
