//! Pooled histogram engine for histogram-based tree construction.
//!
//! The tree grower in [`crate::tree`] needs, per node, one histogram of
//! per-bin statistics for every feature. This module provides the
//! ingredients that make that fast, and the two split criteria
//! (`GradHess`, `Variance`) whose kernels fill and scan them:
//!
//! * **Arena layout** (`HistLayout`) — all features share one contiguous
//!   `Vec<f64>` arena. Feature `f` owns the bin range
//!   `offsets[f]..offsets[f+1]`, and every bin holds
//!   `Criterion::width` interleaved statistics (`[grad, hess]` for GBT
//!   trees, `[sum_0..sum_{k-1}, count]` for variance trees). One node
//!   histogram is therefore a single allocation regardless of feature
//!   count, and `HistPool` recycles those allocations across nodes so
//!   steady-state tree growth does not touch the allocator at all.
//! * **Single-pass accumulation** (`Criterion::accumulate`) — one
//!   row-major sweep over the binned matrix fills the statistics of *all*
//!   features at once. Each training row's bin ids are contiguous in
//!   memory, so the sweep reads every cache line exactly once instead of
//!   once per feature, and the per-feature `resize`/`clear` churn of
//!   per-feature passes disappears. For a fixed feature the per-bin sums
//!   are accumulated in row order, i.e. bit-identical to a per-feature
//!   pass over the same rows.
//! * **Sibling subtraction** (`subtract`) — a split partitions a node's
//!   rows, so `hist(parent) = hist(left) + hist(right)` bin by bin. The
//!   grower accumulates only the smaller child and derives the larger one
//!   as `parent − smaller`, roughly halving histogram work per level.
//!   Subtraction needs full-arena histograms (all features, since the
//!   children's feature samples are not yet drawn), which costs more than
//!   it saves for small nodes under column subsampling.
//!   `subtract_profitable` compares the floating-point op counts of the
//!   two strategies, and when subtraction loses, nodes instead accumulate
//!   only their sampled features (`Criterion::accumulate_sampled`) into
//!   a partially zeroed buffer (`zero_features`) — exactly the work a
//!   per-feature builder does, minus its allocations. Tiny nodes
//!   (≤ `ROWWISE_MAX_ROWS` rows) skip arena histograms entirely: split
//!   search accumulates the node's rows into a zeroed dense strip that
//!   marks the bins it touches (`RowwiseScratch`) and prefix-scans only
//!   those, in bin order (`Criterion::best_split_rowwise`), which stays bit-identical
//!   to the histogram scan because per-bin sums are folded with the same
//!   two-level summation, untouched bins cannot beat an equal earlier
//!   gain under the strictly-greater argmax, and bins past the last
//!   touched one never satisfy the child-weight checks.
//!
//! Split search (`best_split`) picks the split the scalar builders
//! picked. Per feature, `Criterion::best_bin` runs two passes over
//! blocks of `SCAN_BLOCK` bins: a branch-free prefix pass adds every bin
//! and records only the non-empty ones, then a tight loop scores those.
//! Skipping an all-zero bin is exact: a prefix sum that starts at `+0.0`
//! is never `-0.0`, and adding `±0.0` to it changes nothing, so every
//! recorded prefix — and every gain — is the one the scalar scan saw; the
//! bins left out repeat an earlier prefix, and the strictly-greater argmax
//! keeps the first of equal gains. For wide feature spaces (`>=`
//! [`PAR_SPLIT_MIN_FEATURES`] candidate features) the per-feature scans
//! fan out via [`mphpc_par::par_map`]; because `par_map` returns results
//! in input order and the reduction folds them in that same order with a
//! strictly-greater comparison, the chosen split is identical to the
//! sequential scan for every thread count — seeded runs stay
//! bit-reproducible.
//!
//! The kernels are written once per criterion, not once over a generic
//! statistics width: the `[g, h]` pair and the `k + 1` strip compile to
//! different inner loops, and a width-generic body measured slower for
//! both (DESIGN.md §9).

use crate::binning::QuantileBinner;
use crate::matrix::Matrix;
use crate::tree::{Criterion, TrainingView, TreeParams};
use std::ops::Range;

/// Candidate feature count at or above which split search fans out across
/// worker threads. Below this, the per-feature scans are cheaper than the
/// thread handoff.
pub const PAR_SPLIT_MIN_FEATURES: usize = 64;

/// Row count at or below which nodes search splits row-wise
/// ([`Criterion::best_split_rowwise`]) instead of building a histogram:
/// with fewer rows than bins, accumulating into the dense strip and
/// scanning only touched bins costs less than zeroing and scanning
/// every bin of every sampled feature.
pub(crate) const ROWWISE_MAX_ROWS: usize = 32;

/// Cut candidates a split scan handles per block: the scan's first pass
/// records a block's non-empty bins and their prefix sums in fixed-size
/// stack arrays, its second scores only those.
const SCAN_BLOCK: usize = 64;

/// The cut candidates of a feature with `n_bins` bins — every bin but the
/// last — in blocks of at most [`SCAN_BLOCK`].
fn cut_blocks(n_bins: usize) -> impl Iterator<Item = Range<usize>> {
    let cuts = n_bins.saturating_sub(1);
    (0..cuts)
        .step_by(SCAN_BLOCK)
        .map(move |start| start..(start + SCAN_BLOCK).min(cuts))
}

/// Per-feature bin offsets into a pooled, contiguous histogram arena.
///
/// Immutable once built; one layout is shared by every tree of an
/// ensemble (and across threads — it is `Sync`). How many statistics a
/// bin holds is the criterion's business ([`Criterion::width`]).
#[derive(Debug, Clone)]
pub(crate) struct HistLayout {
    /// `offsets[f]..offsets[f+1]` is feature `f`'s bin range; the last
    /// entry is the total bin count.
    offsets: Vec<u32>,
}

impl HistLayout {
    /// Layout over the binner's features.
    pub fn new(binner: &QuantileBinner) -> Self {
        let n_features = binner.cuts.len();
        let mut offsets = Vec::with_capacity(n_features + 1);
        let mut total = 0u32;
        offsets.push(0);
        for f in 0..n_features {
            total += binner.n_bins(f) as u32;
            offsets.push(total);
        }
        Self { offsets }
    }

    /// Number of features covered by the layout.
    pub fn n_features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Length in `f64` statistics of one arena buffer holding `width`
    /// statistics per bin of every feature.
    pub fn stats_len(&self, width: usize) -> usize {
        *self.offsets.last().unwrap() as usize * width
    }

    /// First bin index of feature `f` in the arena.
    #[inline]
    pub fn offset(&self, f: usize) -> usize {
        self.offsets[f] as usize
    }

    /// Bin count of feature `f`.
    #[inline]
    pub fn n_bins(&self, f: usize) -> usize {
        (self.offsets[f + 1] - self.offsets[f]) as usize
    }
}

/// Recycler for histogram arena buffers of one fixed length.
///
/// Tree growth holds at most `O(depth)` histograms alive (the stack of
/// pending sibling nodes), so the pool stays tiny; acquiring zeroes a
/// recycled buffer instead of allocating a fresh one.
#[derive(Debug)]
pub(crate) struct HistPool {
    stats_len: usize,
    free: Vec<Vec<f64>>,
}

impl HistPool {
    /// Pool producing buffers of `stats_len` statistics
    /// ([`HistLayout::stats_len`]).
    pub fn new(stats_len: usize) -> Self {
        Self {
            stats_len,
            free: Vec::new(),
        }
    }

    /// A zeroed arena buffer, recycled when possible.
    pub fn acquire(&mut self) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; self.stats_len],
        }
    }

    /// An arena buffer with unspecified contents — for callers that zero
    /// only the feature ranges they will read ([`zero_features`]).
    pub fn acquire_raw(&mut self) -> Vec<f64> {
        self.free.pop().unwrap_or_else(|| vec![0.0; self.stats_len])
    }

    /// Return a buffer for reuse.
    pub fn release(&mut self, buf: Vec<f64>) {
        debug_assert_eq!(buf.len(), self.stats_len);
        self.free.push(buf);
    }
}

/// Zero the arena ranges of the given features (for buffers from
/// [`HistPool::acquire_raw`] that will only be read over those features).
pub(crate) fn zero_features(
    layout: &HistLayout,
    width: usize,
    features: &[usize],
    out: &mut [f64],
) {
    for &f in features {
        let start = layout.offset(f) * width;
        out[start..start + layout.n_bins(f) * width].fill(0.0);
    }
}

/// Derive the larger sibling in place: `parent -= smaller_child`.
pub(crate) fn subtract(parent: &mut [f64], child: &[f64]) {
    debug_assert_eq!(parent.len(), child.len());
    mphpc_telemetry::counter_add("ml.hist.sibling_subtractions", 1);
    for (p, c) in parent.iter_mut().zip(child) {
        *p -= c;
    }
}

/// Should a split derive the larger child by subtraction, or should the
/// children re-accumulate their own sampled features from scratch?
///
/// Subtraction costs a full-arena zero, a full-feature accumulation of
/// the smaller child, and a full-arena subtraction. Re-accumulation costs
/// each hist-needing child a sampled-range zero plus a sampled-feature
/// accumulation — except children at or below [`ROWWISE_MAX_ROWS`], which
/// skip the arena entirely and pay only the row-wise gather
/// ([`Criterion::best_split_rowwise`]). Under column subsampling
/// (`n_sampled < n_features`) or for tiny children the full-arena work
/// loses — deep trees are dominated by exactly those nodes — so the
/// grower compares estimated `f64` op counts and picks per split. For
/// large nodes at `colsample == 1.0` this reduces to the classic
/// always-subtract policy. The decision uses only row counts, the layout
/// and the statistics width, so it is deterministic.
pub(crate) fn subtract_profitable(
    layout: &HistLayout,
    width: usize,
    n_sampled: usize,
    small_rows: usize,
    large_rows: usize,
    small_needs_hist: bool,
) -> bool {
    let t = layout.stats_len(width) as f64;
    let p = layout.n_features() as f64;
    let w = width as f64;
    let sampled_frac = n_sampled as f64 / p;
    let subtract_cost = 2.0 * t + small_rows as f64 * p * w;
    let child_cost = |m: usize| {
        let scan = m as f64 * n_sampled as f64 * w;
        if m <= ROWWISE_MAX_ROWS {
            scan
        } else {
            sampled_frac * t + scan
        }
    };
    let mut rebuild_cost = child_cost(large_rows);
    if small_needs_hist {
        rebuild_cost += child_cost(small_rows);
    }
    subtract_cost < rebuild_cost
}

/// A chosen split: feature, bin (inclusive left boundary), and gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SplitCandidate {
    /// Feature column index.
    pub feature: usize,
    /// Rows with `bin <= self.bin` go left.
    pub bin: u16,
    /// Criterion gain of the split.
    pub gain: f64,
}

/// Best split over `features` under `crit`, given the node's arena
/// histogram and totals.
///
/// Features are examined in the given order and ties resolve to the first
/// strictly-greater gain, matching a flat sequential scan; the parallel
/// path reduces `par_map`'s in-order results identically.
pub(crate) fn best_split<C: Criterion>(
    crit: &C,
    layout: &HistLayout,
    features: &[usize],
    hist: &[f64],
    totals: &C::Totals,
) -> Option<SplitCandidate> {
    let per_feature = |f: usize| crit.best_bin(layout, f, hist, totals);
    if features.len() >= PAR_SPLIT_MIN_FEATURES {
        let bests = mphpc_par::par_map(features, |_, &f| per_feature(f));
        reduce_in_order(features, bests)
    } else {
        reduce_in_order(features, features.iter().map(|&f| per_feature(f)))
    }
}

/// Fold per-feature candidates in feature order with a strictly-greater
/// comparison — the same argmax a flat sequential scan computes.
fn reduce_in_order(
    features: &[usize],
    bests: impl IntoIterator<Item = Option<(u16, f64)>>,
) -> Option<SplitCandidate> {
    let mut best: Option<SplitCandidate> = None;
    for (&feature, cand) in features.iter().zip(bests) {
        if let Some((bin, gain)) = cand {
            if best.as_ref().map_or(true, |b| gain > b.gain) {
                best = Some(SplitCandidate { feature, bin, gain });
            }
        }
    }
    best
}

/// Reusable buffers for the row-wise split search: a dense per-bin
/// statistics strip sized for the layout's widest feature, all `+0.0`
/// between searches, and one bit per bin marking the bins a search
/// touched. Create once per tree build and reuse across nodes.
pub(crate) struct RowwiseScratch {
    stats: Vec<f64>,
    touched: Vec<u64>,
}

impl RowwiseScratch {
    /// Scratch sized for `layout`'s widest feature at `width` statistics
    /// per bin.
    pub fn new(layout: &HistLayout, width: usize) -> Self {
        let max_bins = (0..layout.n_features())
            .map(|f| layout.n_bins(f))
            .max()
            .unwrap_or(0);
        Self {
            stats: vec![0.0; max_bins * width],
            touched: vec![0; max_bins.div_ceil(64)],
        }
    }

    /// The `width` statistics of bin `b`, marked touched.
    #[inline]
    fn bin(&mut self, b: usize, width: usize) -> &mut [f64] {
        self.touched[b / 64] |= 1 << (b % 64);
        &mut self.stats[b * width..(b + 1) * width]
    }

    /// Visit the touched bins in bin order, then zero them and clear their
    /// marks for the next search.
    fn drain(&mut self, width: usize, mut visit: impl FnMut(usize, &[f64])) {
        for (word, marks) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(marks);
            while bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let stats = &mut self.stats[b * width..(b + 1) * width];
                visit(b, stats);
                stats.fill(0.0);
            }
        }
    }
}

/// XGBoost's second-order criterion over per-row gradients and hessians
/// (indexed by absolute row id): a bin holds `[Σg, Σh]`, the gain of a
/// split into (L, R) is `½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ`
/// and the leaf weight is `−G/(H+λ)`.
pub(crate) struct GradHess<'a> {
    /// Per-row gradients.
    pub grad: &'a [f64],
    /// Per-row hessians.
    pub hess: &'a [f64],
    /// Source of λ, γ and the minimum child hessian sum.
    pub params: &'a TreeParams,
}

impl Criterion for GradHess<'_> {
    /// `(G, H)` of the node.
    type Totals = (f64, f64);

    fn width(&self) -> usize {
        2
    }

    fn totals(&self, rows: &[u32]) -> (f64, f64) {
        // Both sums in one pass, from `-0.0` as `Iterator::sum` folds them.
        rows.iter().fold((-0.0, -0.0), |(g, h), &r| {
            (g + self.grad[r as usize], h + self.hess[r as usize])
        })
    }

    fn leaf(&self, (g_sum, h_sum): (f64, f64)) -> Vec<f64> {
        vec![-g_sum / (h_sum + self.params.lambda)]
    }

    fn can_split(&self, n_rows: usize) -> bool {
        n_rows >= 2
    }

    fn accumulate(&self, view: &TrainingView, rows: &[u32], out: &mut [f64]) {
        let (grad, hess) = (self.grad, self.hess);
        mphpc_telemetry::counter_add("ml.hist.rows_binned", rows.len() as u64);
        for &r in rows {
            let (g, h) = (grad[r as usize], hess[r as usize]);
            for &slot in view.row_slots(r) {
                let bin = &mut out[slot as usize * 2..slot as usize * 2 + 2];
                bin[0] += g;
                bin[1] += h;
            }
        }
    }

    fn accumulate_sampled(
        &self,
        view: &TrainingView,
        rows: &[u32],
        features: &[usize],
        out: &mut [f64],
    ) {
        let (grad, hess) = (self.grad, self.hess);
        mphpc_telemetry::counter_add("ml.hist.rows_binned", rows.len() as u64);
        for &r in rows {
            let (g, h) = (grad[r as usize], hess[r as usize]);
            let slots = view.row_slots(r);
            for &f in features {
                let bin = &mut out[slots[f] as usize * 2..slots[f] as usize * 2 + 2];
                bin[0] += g;
                bin[1] += h;
            }
        }
    }

    fn best_bin(
        &self,
        layout: &HistLayout,
        f: usize,
        hist: &[f64],
        &(g_sum, h_sum): &(f64, f64),
    ) -> Option<(u16, f64)> {
        let params = self.params;
        let base = layout.offset(f) * 2;
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let (mut gl, mut hl) = (0.0, 0.0);
        let mut best: Option<(u16, f64)> = None;
        let mut prefix = [(0.0, 0.0); SCAN_BLOCK];
        let mut at = [0u16; SCAN_BLOCK];
        for block in cut_blocks(layout.n_bins(f)) {
            let mut m = 0;
            let bins = hist[base + 2 * block.start..base + 2 * block.end].chunks_exact(2);
            for (b, bin) in block.zip(bins) {
                let (g, h) = (bin[0], bin[1]);
                gl += g;
                hl += h;
                // `m` < SCAN_BLOCK already; the mask only drops the bounds check.
                prefix[m & (SCAN_BLOCK - 1)] = (gl, hl);
                at[m & (SCAN_BLOCK - 1)] = b as u16;
                m += ((g != 0.0) | (h != 0.0)) as usize;
            }
            for (&b, &(gl, hl)) in at[..m].iter().zip(&prefix[..m]) {
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > 0.0 && best.map_or(true, |(_, g)| gain > g) {
                    best = Some((b, gain));
                }
            }
        }
        best
    }

    fn best_split_rowwise(
        &self,
        view: &TrainingView,
        rows: &[u32],
        features: &[usize],
        &(g_sum, h_sum): &(f64, f64),
        scratch: &mut RowwiseScratch,
    ) -> Option<SplitCandidate> {
        let (layout, grad, hess, params) = (&view.layout, self.grad, self.hess, self.params);
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<SplitCandidate> = None;
        for &f in features {
            let n_bins = layout.n_bins(f);
            if n_bins < 2 {
                continue;
            }
            for &r in rows {
                let ri = r as usize;
                let s = scratch.bin(view.bin(r, f) as usize, 2);
                s[0] += grad[ri];
                s[1] += hess[ri];
            }
            let (mut gl, mut hl) = (0.0, 0.0);
            scratch.drain(2, |b, s| {
                gl += s[0];
                hl += s[1];
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                // The last bin is never a cut.
                if b + 1 >= n_bins || hl < params.min_child_weight || hr < params.min_child_weight {
                    return;
                }
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > 0.0 && best.as_ref().map_or(true, |c| gain > c.gain) {
                    best = Some(SplitCandidate {
                        feature: f,
                        bin: b as u16,
                        gain,
                    });
                }
            });
        }
        best
    }
}

/// CART variance reduction, generalised to vector targets by summing the
/// per-output SSE reduction: a bin holds `[Σt_0..Σt_{k-1}, n]`, the gain
/// of a split is `Σ_j (S_Lj²/n_L + S_Rj²/n_R − S_j²/n)` and a leaf holds
/// the mean target vector.
pub(crate) struct Variance<'a> {
    /// Per-row target vectors.
    targets: &'a Matrix,
    /// Minimum rows per child.
    min_leaf: f64,
}

impl<'a> Variance<'a> {
    /// Criterion over `targets`; `params.min_child_weight` acts as the
    /// minimum rows per leaf (at least one).
    pub fn new(targets: &'a Matrix, params: &TreeParams) -> Self {
        Self {
            targets,
            min_leaf: params.min_child_weight.max(1.0),
        }
    }
}

/// Node totals under [`Variance`].
pub(crate) struct VarianceTotals {
    /// Row count.
    n: f64,
    /// Mean target vector — the leaf value.
    mean: Vec<f64>,
    /// Per-output target sums as the gain sees them: `mean · n`, not the
    /// raw sums `mean` was divided from (kept so: the recorded models
    /// depend on its rounding).
    sums: Vec<f64>,
}

impl Criterion for Variance<'_> {
    type Totals = VarianceTotals;

    fn width(&self) -> usize {
        self.targets.cols() + 1
    }

    fn totals(&self, rows: &[u32]) -> VarianceTotals {
        let n = rows.len() as f64;
        let mut mean = vec![0.0; self.targets.cols()];
        for &r in rows {
            for (m, &t) in mean.iter_mut().zip(self.targets.row(r as usize)) {
                *m += t;
            }
        }
        for m in &mut mean {
            *m /= n.max(1.0);
        }
        let sums = mean.iter().map(|m| m * n).collect();
        VarianceTotals { n, mean, sums }
    }

    fn leaf(&self, totals: VarianceTotals) -> Vec<f64> {
        totals.mean
    }

    fn can_split(&self, n_rows: usize) -> bool {
        n_rows as f64 >= 2.0 * self.min_leaf
    }

    fn accumulate(&self, view: &TrainingView, rows: &[u32], out: &mut [f64]) {
        let targets = self.targets;
        let w = self.width();
        let k = w - 1;
        mphpc_telemetry::counter_add("ml.hist.rows_binned", rows.len() as u64);
        for &r in rows {
            let t = targets.row(r as usize);
            for &slot in view.row_slots(r) {
                let base = slot as usize * w;
                let slot = &mut out[base..base + w];
                for (s, &v) in slot[..k].iter_mut().zip(t) {
                    *s += v;
                }
                slot[k] += 1.0;
            }
        }
    }

    fn accumulate_sampled(
        &self,
        view: &TrainingView,
        rows: &[u32],
        features: &[usize],
        out: &mut [f64],
    ) {
        let targets = self.targets;
        let w = self.width();
        let k = w - 1;
        mphpc_telemetry::counter_add("ml.hist.rows_binned", rows.len() as u64);
        for &r in rows {
            let t = targets.row(r as usize);
            let slots = view.row_slots(r);
            for &f in features {
                let base = slots[f] as usize * w;
                let slot = &mut out[base..base + w];
                for (s, &v) in slot[..k].iter_mut().zip(t) {
                    *s += v;
                }
                slot[k] += 1.0;
            }
        }
    }

    fn best_bin(
        &self,
        layout: &HistLayout,
        f: usize,
        hist: &[f64],
        totals: &VarianceTotals,
    ) -> Option<(u16, f64)> {
        let (sums, n, min_leaf) = (&totals.sums, totals.n, self.min_leaf);
        let w = self.width();
        let k = w - 1;
        let base = layout.offset(f) * w;
        let parent_score: f64 = sums.iter().map(|s| s * s).sum::<f64>() / n;
        let mut nl = 0.0;
        let mut sl = vec![0.0; k];
        let mut best: Option<(u16, f64)> = None;
        let mut prefix = [0.0; SCAN_BLOCK];
        let mut at = [0u16; SCAN_BLOCK];
        for block in cut_blocks(layout.n_bins(f)) {
            let mut m = 0;
            let bins = hist[base + w * block.start..base + w * block.end].chunks_exact(w);
            for (b, bin) in block.zip(bins) {
                nl += bin[k];
                prefix[m & (SCAN_BLOCK - 1)] = nl;
                at[m & (SCAN_BLOCK - 1)] = b as u16;
                m += bin.iter().fold(false, |any, &v| any | (v != 0.0)) as usize;
            }
            // The target sums enter the prefix here, at the recorded bins
            // only: skipped bins hold zeros that would change nothing.
            for (&b, &nl) in at[..m].iter().zip(&prefix[..m]) {
                let start = base + b as usize * w;
                for (s, &v) in sl.iter_mut().zip(&hist[start..start + k]) {
                    *s += v;
                }
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let mut score = 0.0;
                for (j, &s) in sl.iter().enumerate() {
                    let sr = sums[j] - s;
                    score += s * s / nl + sr * sr / nr;
                }
                let gain = score - parent_score;
                if gain > 1e-12 && best.map_or(true, |(_, g)| gain > g) {
                    best = Some((b, gain));
                }
            }
        }
        best
    }

    fn best_split_rowwise(
        &self,
        view: &TrainingView,
        rows: &[u32],
        features: &[usize],
        totals: &VarianceTotals,
        scratch: &mut RowwiseScratch,
    ) -> Option<SplitCandidate> {
        let (layout, targets) = (&view.layout, self.targets);
        let (sums, n, min_leaf) = (&totals.sums, totals.n, self.min_leaf);
        let k = sums.len();
        let w = k + 1;
        let parent_score: f64 = sums.iter().map(|s| s * s).sum::<f64>() / n;
        let mut sl = vec![0.0; k];
        let mut best: Option<SplitCandidate> = None;
        for &f in features {
            let n_bins = layout.n_bins(f);
            if n_bins < 2 {
                continue;
            }
            for &r in rows {
                let s = scratch.bin(view.bin(r, f) as usize, w);
                for (sj, &v) in s.iter_mut().zip(targets.row(r as usize)) {
                    *sj += v;
                }
                s[k] += 1.0;
            }
            sl.fill(0.0);
            let mut nl = 0.0;
            scratch.drain(w, |b, s| {
                for (p, &v) in sl.iter_mut().zip(&s[..k]) {
                    *p += v;
                }
                nl += s[k];
                let nr = n - nl;
                // The last bin is never a cut.
                if b + 1 >= n_bins || nl < min_leaf || nr < min_leaf {
                    return;
                }
                let mut score = 0.0;
                for (j, &p) in sl.iter().enumerate() {
                    let sr = sums[j] - p;
                    score += p * p / nl + sr * sr / nr;
                }
                let gain = score - parent_score;
                if gain > 1e-12 && best.as_ref().map_or(true, |c| gain > c.gain) {
                    best = Some(SplitCandidate {
                        feature: f,
                        bin: b as u16,
                        gain,
                    });
                }
            });
        }
        best
    }
}

/// The scalar split scans the two-pass [`Criterion::best_bin`] replaced,
/// kept verbatim as its oracle: one loop per criterion that skips all-zero
/// bins with a branch and scores every other bin as it goes.
#[cfg(test)]
mod scan_oracle {
    use super::*;

    pub(super) fn grad_hess(
        crit: &GradHess,
        layout: &HistLayout,
        f: usize,
        hist: &[f64],
        &(g_sum, h_sum): &(f64, f64),
    ) -> Option<(u16, f64)> {
        let params = crit.params;
        let n_bins = layout.n_bins(f);
        if n_bins < 2 {
            return None;
        }
        let base = layout.offset(f) * 2;
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut gl = 0.0;
        let mut hl = 0.0;
        let mut best: Option<(u16, f64)> = None;
        for b in 0..n_bins - 1 {
            let g = hist[base + 2 * b];
            let h = hist[base + 2 * b + 1];
            if g == 0.0 && h == 0.0 {
                continue;
            }
            gl += g;
            hl += h;
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score)
                - params.gamma;
            if gain > 0.0 && best.map_or(true, |(_, g)| gain > g) {
                best = Some((b as u16, gain));
            }
        }
        best
    }

    pub(super) fn variance(
        crit: &Variance,
        layout: &HistLayout,
        f: usize,
        hist: &[f64],
        totals: &VarianceTotals,
    ) -> Option<(u16, f64)> {
        let (sums, n, min_leaf) = (&totals.sums, totals.n, crit.min_leaf);
        let n_bins = layout.n_bins(f);
        if n_bins < 2 {
            return None;
        }
        let w = crit.width();
        let k = w - 1;
        let base = layout.offset(f) * w;
        let parent_score: f64 = sums.iter().map(|s| s * s).sum::<f64>() / n;
        let mut nl = 0.0;
        let mut sl = vec![0.0; k];
        let mut best: Option<(u16, f64)> = None;
        for b in 0..n_bins - 1 {
            let bin = &hist[base + b * w..base + (b + 1) * w];
            if bin[k] == 0.0 && bin[..k].iter().all(|&v| v == 0.0) {
                continue;
            }
            nl += bin[k];
            for (s, &v) in sl.iter_mut().zip(&bin[..k]) {
                *s += v;
            }
            let nr = n - nl;
            if nl < min_leaf || nr < min_leaf {
                continue;
            }
            let mut score = 0.0;
            for (j, &s) in sl.iter().enumerate() {
                let sr = sums[j] - s;
                score += s * s / nl + sr * sr / nr;
            }
            let gain = score - parent_score;
            if gain > 1e-12 && best.map_or(true, |(_, g)| gain > g) {
                best = Some((b as u16, gain));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two features with different bin counts to exercise offsets.
    fn fixture() -> (Matrix, TrainingView) {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 40.0, (i % 4) as f64])
            .collect();
        let x = Matrix::from_rows(&rows);
        let view = TrainingView::fit(&x, 8);
        (x, view)
    }

    /// A zeroed arena for `crit`, filled from `rows` over all features.
    fn arena_of<C: Criterion>(view: &TrainingView, crit: &C, rows: &[u32]) -> Vec<f64> {
        let mut arena = vec![0.0; view.layout.stats_len(crit.width())];
        crit.accumulate(view, rows, &mut arena);
        arena
    }

    #[test]
    fn layout_offsets_partition_the_arena() {
        let (_, view) = fixture();
        let layout = &view.layout;
        assert_eq!(layout.n_features(), 2);
        assert_eq!(layout.offset(0), 0);
        assert_eq!(layout.offset(1), layout.n_bins(0));
        assert_eq!(layout.stats_len(1), layout.n_bins(0) + layout.n_bins(1));
        assert_eq!(layout.stats_len(2), layout.stats_len(1) * 2);
    }

    #[test]
    fn single_pass_matches_per_feature_accumulation() {
        let (x, view) = fixture();
        let layout = &view.layout;
        let n = x.rows();
        let grad: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 3.0).collect();
        let hess: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let params = TreeParams::default();
        let crit = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params,
        };
        let arena = arena_of(&view, &crit, &rows);
        for f in 0..2 {
            let mut g_hist = vec![0.0; layout.n_bins(f)];
            let mut h_hist = vec![0.0; layout.n_bins(f)];
            for &r in &rows {
                let b = view.bin(r, f) as usize;
                g_hist[b] += grad[r as usize];
                h_hist[b] += hess[r as usize];
            }
            for b in 0..layout.n_bins(f) {
                let idx = (layout.offset(f) + b) * 2;
                assert_eq!(arena[idx], g_hist[b], "grad f={f} b={b}");
                assert_eq!(arena[idx + 1], h_hist[b], "hess f={f} b={b}");
            }
        }
    }

    #[test]
    fn target_accumulation_counts_and_sums() {
        let (x, view) = fixture();
        let layout = &view.layout;
        let n = x.rows();
        let targets = Matrix::from_rows(
            &(0..n)
                .map(|i| vec![i as f64, -2.0 * i as f64])
                .collect::<Vec<_>>(),
        );
        let rows: Vec<u32> = (0..n as u32).collect();
        let crit = Variance::new(&targets, &TreeParams::default());
        let arena = arena_of(&view, &crit, &rows);
        // Counts per feature must total n; sums must total the column sums.
        for f in 0..2 {
            let mut count = 0.0;
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            for b in 0..layout.n_bins(f) {
                let base = (layout.offset(f) + b) * 3;
                s0 += arena[base];
                s1 += arena[base + 1];
                count += arena[base + 2];
            }
            assert_eq!(count, n as f64);
            assert!((s0 - (0..n).map(|i| i as f64).sum::<f64>()).abs() < 1e-9);
            assert!((s1 + 2.0 * (0..n).map(|i| i as f64).sum::<f64>()).abs() < 1e-9);
        }
    }

    /// `parent − left` must equal a direct accumulation of the right rows.
    fn check_sibling_subtraction<C: Criterion>(view: &TrainingView, crit: &C, n: usize) {
        let all: Vec<u32> = (0..n as u32).collect();
        let (left, right): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&r| r % 3 == 0);
        let mut parent = arena_of(view, crit, &all);
        let small = arena_of(view, crit, &left);
        let direct = arena_of(view, crit, &right);
        subtract(&mut parent, &small);
        for (i, (a, b)) in parent.iter().zip(&direct).enumerate() {
            assert!((a - b).abs() < 1e-9, "stat {i}: {a} vs {b}");
        }
    }

    #[test]
    fn sibling_subtraction_recovers_partition() {
        let (x, view) = fixture();
        let n = x.rows();
        let params = TreeParams::default();
        let grad: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let hess = vec![1.0; n];
        let gh = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params,
        };
        check_sibling_subtraction(&view, &gh, n);
        let targets = Matrix::from_rows(
            &(0..n)
                .map(|i| vec![(i as f64).sin(), (i as f64 * 0.3).cos()])
                .collect::<Vec<_>>(),
        );
        check_sibling_subtraction(&view, &Variance::new(&targets, &params), n);
    }

    /// Sampled accumulation into a poisoned buffer must equal the full
    /// sweep on the sampled feature and leave the rest untouched.
    fn check_sampled_accumulation<C: Criterion>(view: &TrainingView, crit: &C, rows: &[u32]) {
        let layout = &view.layout;
        let w = crit.width();
        let full = arena_of(view, crit, rows);
        // Scratch buffer starts poisoned; only feature 1 is sampled.
        let mut partial = vec![f64::NAN; layout.stats_len(w)];
        let feats = [1usize];
        zero_features(layout, w, &feats, &mut partial);
        crit.accumulate_sampled(view, rows, &feats, &mut partial);
        let start = layout.offset(1) * w;
        assert_eq!(&partial[start..], &full[start..]);
        // Unsampled feature 0's range was left untouched.
        assert!(partial[..start].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn sampled_accumulation_matches_full_on_sampled_features() {
        let (x, view) = fixture();
        let n = x.rows();
        let params = TreeParams::default();
        let rows: Vec<u32> = (0..n as u32).filter(|r| r % 2 == 0).collect();
        let grad: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let hess: Vec<f64> = (0..n).map(|i| 1.0 + (i % 2) as f64).collect();
        let gh = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params,
        };
        check_sampled_accumulation(&view, &gh, &rows);
        let targets = Matrix::from_rows(
            &(0..n)
                .map(|i| vec![i as f64, 1.0 - i as f64])
                .collect::<Vec<_>>(),
        );
        check_sampled_accumulation(&view, &Variance::new(&targets, &params), &rows);
    }

    #[test]
    fn subtraction_always_profitable_without_colsample() {
        let (_, view) = fixture();
        let layout = &view.layout;
        let p = layout.n_features();
        // Full feature sampling: deriving the larger child is cheaper
        // than re-accumulating it whenever the children are too big for
        // the row-wise path.
        assert!(subtract_profitable(
            layout,
            2,
            p,
            ROWWISE_MAX_ROWS + 1,
            40,
            true
        ));
        assert!(subtract_profitable(layout, 2, p, 500, 10_000, false));
        // Tiny children go row-wise instead, which beats even a single
        // full-arena subtraction pass.
        assert!(!subtract_profitable(layout, 2, p, 1, 2, true));
    }

    #[test]
    fn subtraction_declined_for_small_subsampled_nodes() {
        let (_, view) = fixture();
        let layout = &view.layout;
        let p = layout.n_features();
        let half = p.div_ceil(2);
        // A tiny node under heavy column subsampling: full-arena work
        // dwarfs what the children would spend re-accumulating.
        assert!(!subtract_profitable(layout, 2, half, 2, 3, true));
        // With balanced children, accumulating the small child over all
        // features costs what both children would spend on their sampled
        // halves — only child-size asymmetry makes subtraction pay.
        assert!(!subtract_profitable(
            layout, 2, half, 100_000, 100_000, true
        ));
        assert!(subtract_profitable(layout, 2, half, 100, 100_000, true));
    }

    /// The row-wise search must pick the histogram scan's split, bit for
    /// bit, and leave its scratch clean for the next search.
    fn check_rowwise_matches_hist_scan<C: Criterion>(view: &TrainingView, crit: &C, rows: &[u32]) {
        let layout = &view.layout;
        let feats = [0usize, 1];
        let totals = crit.totals(rows);
        let arena = arena_of(view, crit, rows);
        let from_hist = best_split(crit, layout, &feats, &arena, &totals).expect("split");
        let mut scratch = RowwiseScratch::new(layout, crit.width());
        let from_rows = crit
            .best_split_rowwise(view, rows, &feats, &totals, &mut scratch)
            .expect("split");
        assert_eq!(from_hist.feature, from_rows.feature);
        assert_eq!(from_hist.bin, from_rows.bin);
        assert_eq!(from_hist.gain.to_bits(), from_rows.gain.to_bits());
        // A second search on the same reused scratch must see clean state.
        let again = crit
            .best_split_rowwise(view, rows, &feats, &totals, &mut scratch)
            .expect("split");
        assert_eq!(again.gain.to_bits(), from_rows.gain.to_bits());
    }

    #[test]
    fn rowwise_split_is_bit_identical_to_hist_scan() {
        let (_, view) = fixture();
        // A scrambled subset (with a duplicate) so the row-wise sort has
        // real work to do and bin sums depend on accumulation order.
        let rows: Vec<u32> = vec![7, 31, 2, 19, 2, 38, 11, 26, 5, 33, 14, 29, 0, 23];
        let params = TreeParams {
            min_child_weight: 2.0,
            ..TreeParams::default()
        };
        let grad: Vec<f64> = (0..40)
            .map(|i| ((i * 13 % 7) as f64 - 3.0) * 0.37)
            .collect();
        let hess: Vec<f64> = (0..40).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
        let gh = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params,
        };
        check_rowwise_matches_hist_scan(&view, &gh, &rows);
        let t_rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 5) as f64 * 0.3, ((i * 11) % 9) as f64 - 4.0])
            .collect();
        let targets = Matrix::from_rows(&t_rows);
        check_rowwise_matches_hist_scan(&view, &Variance::new(&targets, &params), &rows);
    }

    #[test]
    fn pool_recycles_zeroed_buffers() {
        let (_, view) = fixture();
        let mut pool = HistPool::new(view.layout.stats_len(2));
        let mut a = pool.acquire();
        a.iter_mut().for_each(|v| *v = 7.0);
        let ptr = a.as_ptr();
        pool.release(a);
        let b = pool.acquire();
        assert_eq!(b.as_ptr(), ptr, "buffer must be recycled");
        assert!(
            b.iter().all(|&v| v == 0.0),
            "recycled buffer must be zeroed"
        );
    }

    /// The in-order reduction must pick the same split whether or not the
    /// parallel path is taken (both share `reduce_in_order`).
    fn check_parallel_gate<C: Criterion>(view: &TrainingView, crit: &C, n: usize) {
        let rows: Vec<u32> = (0..n as u32).collect();
        let totals = crit.totals(&rows);
        let arena = arena_of(view, crit, &rows);
        let feats: Vec<usize> = (0..4).collect();
        let seq = best_split(crit, &view.layout, &feats, &arena, &totals);
        // Repeat the features enough times to cross the parallel gate; the
        // winner must be the same split.
        let wide: Vec<usize> = feats
            .iter()
            .cycle()
            .take(PAR_SPLIT_MIN_FEATURES * 2)
            .copied()
            .collect();
        let par = best_split(crit, &view.layout, &wide, &arena, &totals);
        let (s, p) = (seq.expect("some split"), par.expect("some split"));
        assert_eq!(s.feature, p.feature);
        assert_eq!(s.bin, p.bin);
        assert_eq!(s.gain, p.gain);
    }

    #[test]
    fn split_search_parallel_gate_is_order_invariant() {
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| (0..4).map(|f| ((i * (f + 1)) % 7) as f64).collect())
            .collect();
        let x = Matrix::from_rows(&rows);
        let view = TrainingView::fit(&x, 8);
        let n = x.rows();
        let params = TreeParams::default();
        let grad: Vec<f64> = (0..n).map(|i| if i % 7 < 3 { -1.0 } else { 1.0 }).collect();
        let hess = vec![1.0; n];
        let gh = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params,
        };
        check_parallel_gate(&view, &gh, n);
        let targets =
            Matrix::from_rows(&grad.iter().map(|&g| vec![g, -0.5 * g]).collect::<Vec<_>>());
        check_parallel_gate(&view, &Variance::new(&targets, &params), n);
    }

    /// A random histogram statistic: mostly runs of empty bins, the rest
    /// `-0.0`, small integers (so gains tie) or arbitrary values.
    fn stat(rng: &mut StdRng, kind: u32) -> f64 {
        match kind {
            0 => -0.0,
            1 => rng.gen_range(-3..=3) as f64,
            _ => rng.gen_range(-5.0..5.0),
        }
    }

    /// A layout of 1–3 features with 1–150 bins each — past one scan block
    /// — and an arena of `width` statistics per bin, about a quarter of its
    /// bins non-empty, between runs of empty ones.
    fn random_arena(rng: &mut StdRng, width: usize) -> (HistLayout, Vec<f64>) {
        let mut offsets = vec![0u32];
        for _ in 0..rng.gen_range(1..=3) {
            let n_bins = [1, 2, rng.gen_range(3..=150)][rng.gen_range(0..3usize)];
            offsets.push(offsets.last().unwrap() + n_bins);
        }
        let layout = HistLayout { offsets };
        let mut arena = vec![0.0; layout.stats_len(width)];
        let mut bins = arena.chunks_exact_mut(width);
        while let Some(bin) = bins.next() {
            if rng.gen_range(0..3) > 0 {
                // A run of empty bins.
                for _ in 0..rng.gen_range(0..6) {
                    bins.next();
                }
                continue;
            }
            let kind = rng.gen_range(0..3);
            for v in bin.iter_mut() {
                *v = stat(rng, kind);
            }
            // The last statistic is a hessian or a count: never negative.
            let last = &mut bin[width - 1];
            *last = if kind == 0 { -0.0 } else { last.abs().round() };
        }
        // A third of the arenas hold integers mirrored within each feature,
        // so cuts at mirrored bins tie exactly.
        if rng.gen_range(0..3) == 0 {
            arena.iter_mut().for_each(|v| *v = v.round());
            for f in 0..layout.n_features() {
                let feature = &mut arena[layout.offset(f) * width..][..layout.n_bins(f) * width];
                for b in 0..layout.n_bins(f) / 2 {
                    let (low, high) = feature.split_at_mut((layout.n_bins(f) - 1 - b) * width);
                    high[..width].copy_from_slice(&low[b * width..(b + 1) * width]);
                }
            }
        }
        (layout, arena)
    }

    /// Bins and gain bits of two scans, feature by feature.
    fn same_scan(a: Option<(u16, f64)>, b: Option<(u16, f64)>) -> bool {
        a.map(|(bin, gain)| (bin, gain.to_bits())) == b.map(|(bin, gain)| (bin, gain.to_bits()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn two_pass_scan_matches_the_scalar_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);

            let (layout, arena) = random_arena(&mut rng, 2);
            let g_sum: f64 = arena.iter().step_by(2).sum();
            let h_sum: f64 = arena.iter().skip(1).step_by(2).sum();
            let params = TreeParams {
                lambda: [0.0, 1.0, rng.gen_range(0.0..2.0)][rng.gen_range(0..3usize)],
                gamma: [0.0, rng.gen_range(0.0..0.5)][rng.gen_range(0..2usize)],
                min_child_weight: [0.0, 1.0, h_sum + 1.0][rng.gen_range(0..3usize)],
                ..TreeParams::default()
            };
            let gh = GradHess { grad: &[], hess: &[], params: &params };
            for f in 0..layout.n_features() {
                let totals = (g_sum, h_sum);
                proptest::prop_assert!(same_scan(
                    gh.best_bin(&layout, f, &arena, &totals),
                    scan_oracle::grad_hess(&gh, &layout, f, &arena, &totals),
                ), "GradHess seed {seed} feature {f}");
            }

            let k = rng.gen_range(1..=3);
            let (layout, arena) = random_arena(&mut rng, k + 1);
            let sums: Vec<f64> = (0..k).map(|j| arena.iter().skip(j).step_by(k + 1).sum()).collect();
            let n: f64 = arena.iter().skip(k).step_by(k + 1).sum();
            let totals = VarianceTotals {
                n,
                mean: sums.iter().map(|s| s / n.max(1.0)).collect(),
                sums,
            };
            let targets = Matrix::zeros(1, k);
            let variance = Variance {
                targets: &targets,
                min_leaf: [0.0, 1.0, n + 1.0][rng.gen_range(0..3usize)],
            };
            for f in 0..layout.n_features() {
                proptest::prop_assert!(same_scan(
                    variance.best_bin(&layout, f, &arena, &totals),
                    scan_oracle::variance(&variance, &layout, f, &arena, &totals),
                ), "Variance seed {seed} feature {f}");
            }
        }
    }
}
