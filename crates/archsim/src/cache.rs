//! Trace-driven multi-level cache simulation.
//!
//! [`CacheSimulator`] drives a synthetic reference trace (from
//! [`crate::trace`]) through the machine's hierarchy of set-associative LRU
//! levels and reports per-level load/store miss ratios, which the execution
//! model turns into stall cycles and the counter model into
//! `PAPI_L*_LDM/STM`-style values.
//!
//! Shared levels (e.g. L3) are modelled by dividing their capacity among the
//! ranks co-resident on the node, which is what makes full-node runs miss
//! more than single-core runs on the same input — a relationship the ML
//! model must be able to learn (Fig. 4's scale ablation).
//!
//! Only re-touches are simulated (DESIGN.md §18). Trace line ids are dense in
//! first-touch order, so a *first touch* is a reference whose `line ==` the
//! lines seen so far; it misses every level and is charged arithmetically. A
//! *re-touch* of line `x` hits a level iff fewer than `ways` distinct other
//! lines of `x`'s set were accessed at that level since `x`'s last access
//! there: lines first touched in between are an id range, counted in O(1),
//! and older lines re-touched in between top the set's recency list, walked
//! until `ways` is reached. A level sees the previous level's misses only,
//! so a hit above does not refresh a line's recency below. A reused
//! simulator allocates nothing in steady state.

use crate::demand::LocalityProfile;
use crate::machine::CpuSpec;
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

/// End of a set's recency list; no line has this id (a trace holds at most
/// `u32::MAX` references, the generator's own bound).
const NIL: u32 = u32::MAX;

/// A re-touch that has missed every level so far.
#[derive(Debug, Clone, Copy)]
struct Retouch {
    line: u32,
    /// Position in the trace, and the lines first touched before it.
    pos: u32,
    fresh: u32,
    is_store: bool,
}

/// A re-touched line at the level being simulated: the trace position of its
/// last access there, the lines first touched up to and including that
/// position, and its neighbours in its set's recency list (the lines
/// re-touched at this level, most recent first; both [`NIL`] off the list).
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    pos: u32,
    fresh: u32,
    newer: u32,
    older: u32,
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

/// Reusable cache-hierarchy simulator (owns the trace buffer and the state
/// every level is simulated in, one level after the other).
#[derive(Debug)]
pub struct CacheSimulator {
    gen: TraceGenerator,
    buf: Vec<MemRef>,
    /// Re-touches live at the current level, in trace order.
    retouches: Vec<Retouch>,
    /// Trace position of each line's first touch.
    first_pos: Vec<u32>,
    lines: Vec<LineState>,
    /// Top of each set's recency list at the current level.
    heads: Vec<u32>,
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
            retouches: Vec::new(),
            first_pos: Vec::new(),
            lines: Vec::new(),
            heads: Vec::new(),
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
        if self.model == CacheModel::Analytic {
            self.first_pos.clear();
            self.sets_touched = 0;
            return self.run_analytic(profile, store_fraction, cpu, ranks_on_node);
        }
        let line_bytes = cpu.cache_levels.first().map_or(64, |l| l.line_bytes);
        let (mut trace, n) = (std::mem::take(&mut self.buf), self.trace_len);
        self.gen
            .generate_into(profile, n, store_fraction, line_bytes, rng, &mut trace);
        let result = self.walk(&trace, cpu, ranks_on_node);
        self.buf = trace;
        result
    }

    /// Cache sets touched, summed over levels, by the most recent
    /// [`CacheSimulator::run`] (0 under the analytic model).
    pub fn sets_touched(&self) -> u64 {
        self.sets_touched
    }

    /// Distinct lines of the most recent [`CacheSimulator::run`]'s trace: its
    /// first touches, compulsory misses at every level (0 under the analytic
    /// model).
    pub fn first_touches(&self) -> u64 {
        self.first_pos.len() as u64
    }

    /// Simulate `trace` through `cpu`'s levels. Panics if its line ids are
    /// not dense in first-touch order.
    pub(crate) fn walk(
        &mut self,
        trace: &[MemRef],
        cpu: &CpuSpec,
        ranks_on_node: u32,
    ) -> HierarchyResult {
        self.retouches.clear();
        self.first_pos.clear();
        let mut fresh_stores = 0;
        for (pos, r) in trace.iter().enumerate() {
            let (pos, fresh) = (pos as u32, self.first_pos.len() as u32);
            if r.line == fresh {
                self.first_pos.push(pos);
                fresh_stores += r.is_store as u64;
            } else {
                assert!(
                    r.line < fresh,
                    "trace position {pos} touches line {} when only {fresh} lines were seen: \
                     line ids must be dense in first-touch order",
                    r.line
                );
                let (line, is_store) = (r.line, r.is_store);
                self.retouches.push(Retouch {
                    line,
                    pos,
                    fresh,
                    is_store,
                });
            }
        }
        let seen = self.first_pos.len();
        if self.lines.len() < seen {
            self.lines.resize(seen, LineState::default());
        }
        // Level by level: each level sees the previous one's misses in trace
        // order — every first touch, and the re-touches compacted to the
        // front of `retouches` — so the same buffers serve the whole hierarchy.
        let mut live = self.retouches.len();
        self.sets_touched = 0;
        let mut levels = Vec::with_capacity(cpu.cache_levels.len());
        for spec in &cpu.cache_levels {
            let (n_sets, ways) = spec.geometry(if spec.shared { ranks_on_node } else { 1 });
            // Dense ids: `seen` lines fall into `min(seen, n_sets)` sets.
            self.sets_touched += seen.min(n_sets as usize) as u64;
            let mut stats = LevelStats {
                load_misses: seen as u64 - fresh_stores,
                store_misses: fresh_stores,
                ..LevelStats::default()
            };
            live = self.level(n_sets, ways, live, &mut stats);
            levels.push(stats);
        }
        HierarchyResult {
            levels,
            dram_accesses: (seen + live) as u64,
            total_refs: trace.len() as u64,
        }
    }

    /// Decide the first `live` re-touches at a level of `n_sets` × `ways`,
    /// keep its misses at the front of `retouches` and return their number.
    fn level(&mut self, n_sets: u32, ways: u32, live: usize, stats: &mut LevelStats) -> usize {
        // Lines are below `first_pos.len()`, and so are their set indices.
        self.heads.clear();
        self.heads
            .resize((n_sets as usize).min(self.first_pos.len()), NIL);
        // At a level's start every line was last accessed by its first touch.
        for r in &self.retouches[..live] {
            let (pos, fresh) = (self.first_pos[r.line as usize], r.line + 1);
            self.lines[r.line as usize] = LineState {
                pos,
                fresh,
                newer: NIL,
                older: NIL,
            };
        }
        let mut missed = 0;
        for i in 0..live {
            let r = self.retouches[i];
            let x = r.line;
            let was = self.lines[x as usize];
            let head = std::mem::replace(&mut self.heads[(x % n_sets) as usize], x);
            // Distinct other lines of the set accessed here since `was.pos`:
            // those first touched since are the ids `x + j * n_sets`, `j > 0`,
            // in `was.fresh..r.fresh`; ...
            let mut others = (r.fresh - 1 - x) / n_sets - (was.fresh - 1 - x) / n_sets;
            // ... those re-touched since top the recency list, each once, and
            // count unless the id range already holds them.
            let mut y = head;
            while others < ways && y != NIL && self.lines[y as usize].pos > was.pos {
                others += (y < was.fresh) as u32;
                y = self.lines[y as usize].older;
            }
            let hit = others < ways;
            // `x` becomes its set's most recent line.
            if head != x {
                if was.newer != NIL {
                    self.lines[was.newer as usize].older = was.older;
                    if was.older != NIL {
                        self.lines[was.older as usize].newer = was.newer;
                    }
                }
                if head != NIL {
                    self.lines[head as usize].newer = x;
                }
                (self.lines[x as usize].newer, self.lines[x as usize].older) = (NIL, head);
            }
            (self.lines[x as usize].pos, self.lines[x as usize].fresh) = (r.pos, r.fresh);
            // Branch-free: `is_store` is a coin flip the predictor cannot learn.
            stats.load_hits += (!r.is_store & hit) as u64;
            stats.load_misses += (!r.is_store & !hit) as u64;
            stats.store_hits += (r.is_store & hit) as u64;
            stats.store_misses += (r.is_store & !hit) as u64;
            self.retouches[missed] = r;
            missed += !hit as usize;
        }
        missed
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
    use crate::oracle::{hierarchy, loads};

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

    /// Hit (`true`) or miss of every reference of `lines` at the first level
    /// of `cpu`, read off the stats of the growing prefixes.
    fn first_level_outcomes(cpu: &CpuSpec, lines: &[u32]) -> Vec<bool> {
        let mut sim = CacheSimulator::new();
        let mut hits = |n| sim.walk(&loads(&lines[..n]), cpu, 1).levels[0].load_hits;
        (1..=lines.len()).map(|n| hits(n) > hits(n - 1)).collect()
    }

    #[test]
    fn direct_access_pattern_hits_after_warmup() {
        let lines: Vec<u32> = (0..8).chain(0..8).collect();
        let r = CacheSimulator::new().walk(&loads(&lines), &hierarchy(&[(1, 16)]), 1);
        assert_eq!((r.levels[0].load_misses, r.levels[0].load_hits), (8, 8));
        assert_eq!((r.dram_accesses, r.total_refs), (8, 16));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: [0] [1,0] hit [0,1] [2,0] hit [0,2] and 1 is gone.
        let outcomes = first_level_outcomes(&hierarchy(&[(1, 2)]), &[0, 1, 0, 2, 0, 1]);
        assert_eq!(outcomes, [false, false, true, false, true, false]);
    }

    // Three traces, one per condition the stack-distance argument rests on.

    #[test]
    fn line_first_touched_and_re_touched_in_the_window_counts_once() {
        // 1 set, 2 ways. Between the two accesses of 0, line 1 is first
        // touched (counted by the id range) and re-touched (on the recency
        // list): one other line, so 0 is still resident.
        let outcomes = first_level_outcomes(&hierarchy(&[(1, 2)]), &[0, 1, 1, 0]);
        assert_eq!(outcomes, [false, false, true, true]);
    }

    #[test]
    fn line_re_touched_twice_in_the_window_counts_once() {
        // 1 set, 3 ways. Between the two accesses of 2, the older line 0 is
        // re-touched twice, around a re-touch of 1: two other lines, not three.
        let outcomes = first_level_outcomes(&hierarchy(&[(1, 3)]), &[0, 1, 2, 0, 1, 0, 2]);
        assert_eq!(outcomes, [false, false, false, true, true, true, true]);
    }

    #[test]
    fn hit_above_does_not_refresh_recency_below() {
        // L1 1 set x 2 ways, L2 1 set x 3 ways. The re-touch of 0 at position
        // 2 hits L1, so L2 last saw 0 at position 0; lines 1, 2, 3 then push
        // it out of L2, and the last reference misses both levels.
        let cpu = hierarchy(&[(1, 2), (1, 3)]);
        let r = CacheSimulator::new().walk(&loads(&[0, 1, 0, 2, 3, 0]), &cpu, 1);
        assert_eq!((r.levels[0].load_hits, r.levels[0].load_misses), (1, 5));
        assert_eq!((r.levels[1].load_hits, r.levels[1].load_misses), (0, 5));
        assert_eq!(r.dram_accesses, 5);
    }

    #[test]
    #[should_panic(expected = "position 2 touches line 3 when only 2 lines were seen")]
    fn trace_with_a_gap_in_its_line_ids_is_refused() {
        CacheSimulator::new().walk(&loads(&[0, 1, 3]), &hierarchy(&[(4, 2)]), 1);
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
            assert_eq!((an.sets_touched(), an.first_touches()), (0, 0));
            assert!(tr.sets_touched() > 0);
            assert!((1..=t.dram_accesses).contains(&tr.first_touches()));
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
}
