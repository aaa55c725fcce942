//! Regression trees over quantile-binned features.
//!
//! One tree structure ([`Tree`]) and one grower ([`grow`]) serve both
//! ensemble types; what differs is the [`Criterion`] the grower is handed:
//!
//! * [`hist::GradHess`] — XGBoost's second-order criterion. With gradient
//!   and hessian sums `G`, `H` of a node, the gain of a split into (L, R)
//!   is `½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ` and the leaf
//!   weight is `−G/(H+λ)`.
//! * [`hist::Variance`] — CART variance reduction, generalised to vector
//!   targets by summing the per-output SSE reduction; leaves hold the
//!   mean target vector.
//!
//! The grower runs on the pooled histogram engine in [`crate::hist`]:
//! one row-major pass per node fills per-bin statistics for *all*
//! features into a contiguous arena, each split builds only the smaller
//! child's histogram and derives the larger sibling by subtraction, and a
//! prefix scan (feature-parallel for wide feature spaces) finds the best
//! cut. Split thresholds are stored as real feature values, so prediction
//! does not need the binner.

use crate::binning::QuantileBinner;
use crate::hist::{self, HistLayout, HistPool, RowwiseScratch, SplitCandidate};
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One node of a trained tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Leaf with output values (length 1 for GBT trees, k for forest trees).
    Leaf(Vec<f64>),
    /// Internal split: rows with `feature <= threshold` go left.
    Split {
        /// Feature column index.
        feature: usize,
        /// Real-valued split threshold (inclusive on the left).
        threshold: f64,
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
}

/// A trained regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    /// Nodes in construction order; node 0 is the root.
    pub nodes: Vec<Node>,
}

impl Tree {
    /// Predict the output vector for one feature row.
    pub fn predict_row<'a>(&'a self, row: &[f64]) -> &'a [f64] {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf(values) => return values,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Total node count (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf(_)))
            .count()
    }

    /// Maximum depth (root = 0). Iterative with an explicit stack, so a
    /// pathologically deep (chain-shaped) tree cannot overflow the call
    /// stack.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut max = 0usize;
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((idx, d)) = stack.pop() {
            match &self.nodes[idx] {
                Node::Leaf(_) => max = max.max(d),
                Node::Split { left, right, .. } => {
                    stack.push((*left, d + 1));
                    stack.push((*right, d + 1));
                }
            }
        }
        max
    }
}

/// Per-feature split accounting for gain-based importance (§VI-B).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SplitStats {
    /// Summed gain of all splits on each feature.
    pub gains: Vec<f64>,
    /// Number of splits on each feature.
    pub counts: Vec<u64>,
}

impl SplitStats {
    /// Zeroed stats for `n_features`.
    pub fn new(n_features: usize) -> Self {
        Self {
            gains: vec![0.0; n_features],
            counts: vec![0; n_features],
        }
    }

    /// Fold another tree's stats into this accumulator.
    pub fn merge(&mut self, other: &SplitStats) {
        for (a, b) in self.gains.iter_mut().zip(&other.gains) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Hyper-parameters shared by the tree builders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularisation λ on leaf weights (GBT).
    pub lambda: f64,
    /// Minimum gain γ to accept a split (GBT).
    pub gamma: f64,
    /// Minimum hessian sum per child (GBT) / samples per leaf (forest).
    pub min_child_weight: f64,
    /// Fraction of features considered per split (0..=1).
    pub colsample: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 6,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            colsample: 1.0,
        }
    }
}

/// Binned view of a training feature matrix: the binner, its row-major
/// bin ids and the histogram layout, shared by every tree of an ensemble.
pub(crate) struct TrainingView {
    /// The binner that produced `bins`.
    pub binner: QuantileBinner,
    /// Row-major bin ids, `rows × cols`.
    pub bins: Vec<u16>,
    /// Feature count.
    pub cols: usize,
    /// Arena offsets of each feature's bins.
    pub layout: HistLayout,
}

impl TrainingView {
    /// Fit a quantile binner with at most `max_bins` bins per feature on
    /// `x` and bin every row.
    pub fn fit(x: &Matrix, max_bins: usize) -> Self {
        let _span = mphpc_telemetry::span!("ml.binning", rows = x.rows(), features = x.cols());
        mphpc_telemetry::counter_add("ml.binning.rows", (x.rows() * x.cols()) as u64);
        let binner = QuantileBinner::fit(x, max_bins);
        let bins = binner.transform(x);
        let layout = HistLayout::new(&binner);
        Self {
            binner,
            bins,
            cols: x.cols(),
            layout,
        }
    }

    #[inline]
    fn bin(&self, row: u32, feature: usize) -> u16 {
        self.bins[row as usize * self.cols + feature]
    }
}

/// What distinguishes one tree family from another: the statistics a
/// histogram bin holds, how a bin prefix is scored against the node's
/// totals, when a node is too small to split, and what a leaf stores.
/// Everything else — feature sampling, when to build, subtract or skip a
/// histogram, partitioning, node bookkeeping — is [`grow`]'s.
///
/// The two implementations are [`hist::GradHess`] (gradient boosting) and
/// [`hist::Variance`] (decision forest).
pub(crate) trait Criterion: Sync {
    /// Totals of a node's rows: what a bin prefix is compared against and
    /// what the leaf value is computed from.
    type Totals: Sync;

    /// Statistics interleaved per histogram bin.
    fn width(&self) -> usize;

    /// Totals over `rows` (absolute row ids; duplicates count multiply,
    /// here and in the accumulators — bootstrap samples rely on it).
    fn totals(&self, rows: &[u32]) -> Self::Totals;

    /// Output vector of a leaf with these totals.
    fn leaf(&self, totals: Self::Totals) -> Vec<f64>;

    /// Whether a node of `n_rows` rows is large enough to split at all
    /// (depth is the grower's concern).
    fn can_split(&self, n_rows: usize) -> bool;

    /// Accumulate the statistics of `rows` for all features into `out`, a
    /// zeroed (or partially accumulated) arena buffer, in one row-major
    /// sweep.
    fn accumulate(&self, view: &TrainingView, rows: &[u32], out: &mut [f64]);

    /// [`Criterion::accumulate`] restricted to `features`, for nodes whose
    /// histogram will only ever be read over their sampled feature set.
    /// Per-feature bin sums are accumulated in row order, bit-identical to
    /// the full sweep.
    fn accumulate_sampled(
        &self,
        view: &TrainingView,
        rows: &[u32],
        features: &[usize],
        out: &mut [f64],
    );

    /// Best `(bin, gain)` of feature `f` in the arena histogram `hist`,
    /// by a prefix scan in bin order that keeps the first of equal gains.
    fn best_bin(
        &self,
        layout: &HistLayout,
        f: usize,
        hist: &[f64],
        totals: &Self::Totals,
    ) -> Option<(u16, f64)>;

    /// Split search for a small node straight from its rows, without an
    /// arena histogram: per feature, accumulate the rows into a dense
    /// per-bin strip — epoch stamps avoid zeroing it — then prefix-scan the
    /// touched bins in bin order. Must agree bit for bit with
    /// [`hist::best_split`] over a histogram of the same rows (the
    /// [`crate::hist`] module docs give the argument).
    fn best_split_rowwise(
        &self,
        view: &TrainingView,
        rows: &[u32],
        features: &[usize],
        totals: &Self::Totals,
        scratch: &mut RowwiseScratch,
    ) -> Option<SplitCandidate>;
}

/// Draw `ceil(n·colsample)` distinct feature indices by a partial
/// Fisher–Yates pass over a caller-owned scratch permutation.
///
/// Only `take` RNG draws and swaps are performed. The scratch keeps
/// whatever permutation earlier nodes left behind, which is statistically
/// irrelevant: a partial Fisher–Yates draw from *any* permutation is a
/// uniform sample without replacement. When every feature is taken no RNG
/// is consumed.
pub(crate) fn sample_features<'a>(
    scratch: &'a mut [usize],
    colsample: f64,
    rng: &mut impl Rng,
) -> &'a [usize] {
    let n = scratch.len();
    let take = sampled_count(n, colsample);
    if take < n {
        for i in 0..take {
            let j = rng.gen_range(i..n);
            scratch.swap(i, j);
        }
    }
    &scratch[..take]
}

/// Features drawn per node by [`sample_features`] — fixed for a given
/// feature count, so histogram cost estimates can use it up front.
pub(crate) fn sampled_count(n_features: usize, colsample: f64) -> usize {
    ((n_features as f64 * colsample).ceil() as usize).clamp(1, n_features)
}

/// One pending node during tree growth.
struct WorkItem {
    node: usize,
    rows: Vec<u32>,
    extra: Vec<u32>,
    depth: usize,
    /// Arena histogram of this node, when inherited from the parent via
    /// sibling subtraction; `None` means build on first use.
    hist: Option<Vec<f64>>,
}

/// Decide child histograms after a split. When the parent has a
/// full-arena histogram and subtraction pays for itself (`subtract_pays`
/// of the smaller child's rows, the larger's, and whether the smaller
/// will be split again), accumulate the smaller child in a single pass
/// and derive the larger as `parent − smaller`; otherwise release the
/// parent buffer and let each child re-accumulate its own sampled
/// features when popped. `accumulate` fills a zeroed arena buffer for the
/// given rows over all features.
#[allow(clippy::too_many_arguments)]
fn child_hists(
    pool: &mut HistPool,
    subtract_pays: impl Fn(usize, usize, bool) -> bool,
    parent: Option<Vec<f64>>,
    left_rows: &[u32],
    right_rows: &[u32],
    left_live: bool,
    right_live: bool,
    accumulate: impl FnOnce(&[u32], &mut [f64]),
) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
    let left_smaller = left_rows.len() <= right_rows.len();
    let (small_rows, large_rows, small_live, large_live) = if left_smaller {
        (left_rows, right_rows, left_live, right_live)
    } else {
        (right_rows, left_rows, right_live, left_live)
    };
    let parent = match parent {
        Some(p) if large_live && subtract_pays(small_rows.len(), large_rows.len(), small_live) => p,
        Some(p) => {
            pool.release(p);
            return (None, None);
        }
        None => return (None, None),
    };
    let mut small = pool.acquire();
    accumulate(small_rows, &mut small);
    let mut large = parent;
    hist::subtract(&mut large, &small);
    let small = if small_live {
        Some(small)
    } else {
        pool.release(small);
        None
    };
    if left_smaller {
        (small, Some(large))
    } else {
        (Some(large), small)
    }
}

/// Grow one tree over `rows` under `crit`, depth-first from an explicit
/// stack. Returns the tree and its split stats.
///
/// `rows` are the (possibly subsampled or bootstrapped) training rows
/// that supply split statistics. `extra` rows supply none but are routed
/// down the tree beside them, and `on_leaf(rows, extra, leaf)` is called
/// once per finished leaf with the two row sets that landed in it —
/// gradient boosting passes every out-of-sample row as `extra` and adds
/// `η·leaf` to its running prediction there, which replaces a full
/// re-traversal of the finished tree per row. Routing compares bin ids,
/// which is equivalent to comparing raw values against the recorded
/// thresholds because binning is monotone and thresholds are bin upper
/// edges.
///
/// The histogram policy per node: a node that inherited a histogram from
/// its parent scans it; a tiny node (≤ [`hist::ROWWISE_MAX_ROWS`] rows)
/// searches row-wise; otherwise the node accumulates the full arena when
/// its children could profitably subtract from it
/// ([`hist::subtract_profitable`]) and only its sampled features when
/// not.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow<C: Criterion>(
    view: &TrainingView,
    rows: Vec<u32>,
    extra: Vec<u32>,
    crit: &C,
    params: &TreeParams,
    rng: &mut impl Rng,
    mut on_leaf: impl FnMut(&[u32], &[u32], &[f64]),
) -> (Tree, SplitStats) {
    let layout = &view.layout;
    let width = crit.width();
    // Every placeholder is overwritten when its node is popped.
    let mut tree = Tree {
        nodes: vec![Node::Leaf(Vec::new())],
    };
    let mut n_leaves = 0u64;
    let mut stats = SplitStats::new(view.cols);
    let mut pool = HistPool::new(layout.stats_len(width));
    let mut feat_scratch: Vec<usize> = (0..view.cols).collect();
    let mut row_scratch = RowwiseScratch::new(layout, width);
    let n_sampled = sampled_count(view.cols, params.colsample);
    let subtract_pays = |small_rows: usize, large_rows: usize, small_needs_hist: bool| {
        hist::subtract_profitable(
            layout,
            width,
            n_sampled,
            small_rows,
            large_rows,
            small_needs_hist,
        )
    };
    let mut stack = vec![WorkItem {
        node: 0,
        rows,
        extra,
        depth: 0,
        hist: None,
    }];

    while let Some(WorkItem {
        node,
        rows: node_rows,
        extra,
        depth,
        mut hist,
    }) = stack.pop()
    {
        let totals = crit.totals(&node_rows);
        let mut best = None;
        let mut scratch_hist: Option<Vec<f64>> = None;
        if depth < params.max_depth && crit.can_split(node_rows.len()) {
            let feats = sample_features(&mut feat_scratch, params.colsample, rng);
            if hist.is_none() && node_rows.len() <= hist::ROWWISE_MAX_ROWS {
                // Tiny node without an inherited histogram: search
                // splits row-wise instead of touching the arena.
                best = crit.best_split_rowwise(view, &node_rows, feats, &totals, &mut row_scratch);
            } else {
                let arena: &[f64] = match &hist {
                    Some(h) => h,
                    // Accumulate the full arena only when the children
                    // could profitably subtract from it; otherwise fill
                    // just this node's sampled features in a scratch
                    // buffer.
                    None if depth + 1 < params.max_depth
                        && subtract_pays(node_rows.len() / 2, node_rows.len() / 2, true) =>
                    {
                        let mut buf = pool.acquire();
                        crit.accumulate(view, &node_rows, &mut buf);
                        &*hist.insert(buf)
                    }
                    None => {
                        let mut buf = pool.acquire_raw();
                        hist::zero_features(layout, width, feats, &mut buf);
                        crit.accumulate_sampled(view, &node_rows, feats, &mut buf);
                        &*scratch_hist.insert(buf)
                    }
                };
                best = hist::best_split(crit, layout, feats, arena, &totals);
            }
        }
        if let Some(buf) = scratch_hist {
            pool.release(buf);
        }

        match best {
            None => {
                let leaf = crit.leaf(totals);
                on_leaf(&node_rows, &extra, &leaf);
                tree.nodes[node] = Node::Leaf(leaf);
                n_leaves += 1;
                if let Some(buf) = hist {
                    pool.release(buf);
                }
            }
            Some(SplitCandidate { feature, bin, gain }) => {
                stats.gains[feature] += gain;
                stats.counts[feature] += 1;
                let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = node_rows
                    .into_iter()
                    .partition(|&r| view.bin(r, feature) <= bin);
                let (left_extra, right_extra): (Vec<u32>, Vec<u32>) = extra
                    .into_iter()
                    .partition(|&r| view.bin(r, feature) <= bin);
                let child_live =
                    |rows: &[u32]| depth + 1 < params.max_depth && crit.can_split(rows.len());
                let (left_hist, right_hist) = child_hists(
                    &mut pool,
                    subtract_pays,
                    hist.take(),
                    &left_rows,
                    &right_rows,
                    child_live(&left_rows),
                    child_live(&right_rows),
                    |rows, buf| crit.accumulate(view, rows, buf),
                );
                let left = tree.nodes.len();
                tree.nodes.push(Node::Leaf(Vec::new()));
                let right = tree.nodes.len();
                tree.nodes.push(Node::Leaf(Vec::new()));
                tree.nodes[node] = Node::Split {
                    feature,
                    threshold: view.binner.threshold(feature, bin),
                    left,
                    right,
                };
                stack.push(WorkItem {
                    node: left,
                    rows: left_rows,
                    extra: left_extra,
                    depth: depth + 1,
                    hist: left_hist,
                });
                stack.push(WorkItem {
                    node: right,
                    rows: right_rows,
                    extra: right_extra,
                    depth: depth + 1,
                    hist: right_hist,
                });
            }
        }
    }
    mphpc_telemetry::counter_add("ml.tree.nodes", tree.nodes.len() as u64);
    mphpc_telemetry::counter_add("ml.tree.leaves", n_leaves);
    (tree, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{GradHess, Variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One GBT tree with no routed rows.
    pub(super) fn build_gbt_tree(
        data: &TrainingView,
        rows: Vec<u32>,
        grad: &[f64],
        hess: &[f64],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> (Tree, SplitStats) {
        let crit = GradHess { grad, hess, params };
        grow(data, rows, Vec::new(), &crit, params, rng, |_, _, _| {})
    }

    /// One multi-output variance-reduction tree.
    pub(super) fn build_variance_tree(
        data: &TrainingView,
        rows: Vec<u32>,
        targets: &Matrix,
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> (Tree, SplitStats) {
        let crit = Variance::new(targets, params);
        grow(data, rows, Vec::new(), &crit, params, rng, |_, _, _| {})
    }

    fn step_data(n: usize) -> (Matrix, Vec<f64>) {
        // y = 1 if x > 0.5 else 0: one split suffices.
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn gbt_tree_learns_a_step() {
        let (x, y) = step_data(200);
        let data = TrainingView::fit(&x, 64);
        // Squared loss from prediction 0: grad = -(y - 0) = -y, hess = 1.
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; y.len()];
        let mut rng = StdRng::seed_from_u64(1);
        let (tree, stats) = build_gbt_tree(
            &data,
            (0..200u32).collect(),
            &grad,
            &hess,
            &TreeParams {
                max_depth: 2,
                lambda: 0.0,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(stats.counts[0] >= 1, "must split on the only feature");
        let low = tree.predict_row(&[0.2])[0];
        let high = tree.predict_row(&[0.8])[0];
        assert!(low.abs() < 0.1, "low side ≈ 0, got {low}");
        assert!((high - 1.0).abs() < 0.1, "high side ≈ 1, got {high}");
    }

    #[test]
    fn gbt_leaf_weight_is_regularised_mean() {
        // Single leaf (max_depth 0): weight = -G/(H+λ) = ȳ·n/(n+λ).
        let (x, y) = step_data(10);
        let data = TrainingView::fit(&x, 8);
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; y.len()];
        let mut rng = StdRng::seed_from_u64(2);
        let (tree, _) = build_gbt_tree(
            &data,
            (0..10u32).collect(),
            &grad,
            &hess,
            &TreeParams {
                max_depth: 0,
                lambda: 2.0,
                ..TreeParams::default()
            },
            &mut rng,
        );
        let expected = y.iter().sum::<f64>() / (10.0 + 2.0);
        assert!((tree.predict_row(&[0.0])[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn gamma_suppresses_weak_splits() {
        let (x, y) = step_data(100);
        let data = TrainingView::fit(&x, 32);
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; y.len()];
        let mut rng = StdRng::seed_from_u64(3);
        let (tree, _) = build_gbt_tree(
            &data,
            (0..100u32).collect(),
            &grad,
            &hess,
            &TreeParams {
                max_depth: 4,
                gamma: 1e9,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert_eq!(tree.n_leaves(), 1, "huge gamma must prevent any split");
    }

    #[test]
    fn variance_tree_learns_vector_step() {
        let n = 200usize;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let y_rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                if r[0] > 0.5 {
                    vec![1.0, -1.0]
                } else {
                    vec![0.0, 2.0]
                }
            })
            .collect();
        let y = Matrix::from_rows(&y_rows);
        let data = TrainingView::fit(&x, 64);
        let mut rng = StdRng::seed_from_u64(4);
        let (tree, stats) = build_variance_tree(
            &data,
            (0..n as u32).collect(),
            &y,
            &TreeParams {
                max_depth: 3,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(stats.gains[0] > 0.0);
        let lo = tree.predict_row(&[0.1]);
        let hi = tree.predict_row(&[0.9]);
        assert!((lo[0] - 0.0).abs() < 0.1 && (lo[1] - 2.0).abs() < 0.1);
        assert!((hi[0] - 1.0).abs() < 0.1 && (hi[1] + 1.0).abs() < 0.1);
    }

    #[test]
    fn depth_limit_respected() {
        let (x, y) = step_data(512);
        let data = TrainingView::fit(&x, 128);
        // Noisy targets force many candidate splits.
        let grad: Vec<f64> = y
            .iter()
            .enumerate()
            .map(|(i, &v)| -(v + (i % 7) as f64 * 0.1))
            .collect();
        let hess = vec![1.0; y.len()];
        let mut rng = StdRng::seed_from_u64(5);
        let (tree, _) = build_gbt_tree(
            &data,
            (0..512u32).collect(),
            &grad,
            &hess,
            &TreeParams {
                max_depth: 3,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(tree.depth() <= 3);
        assert!(tree.n_leaves() <= 8);
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let (x, y) = step_data(20);
        let data = TrainingView::fit(&x, 32);
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; y.len()];
        let mut rng = StdRng::seed_from_u64(6);
        let (tree, _) = build_gbt_tree(
            &data,
            (0..20u32).collect(),
            &grad,
            &hess,
            &TreeParams {
                max_depth: 8,
                min_child_weight: 100.0, // more than the node has
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let tree = Tree {
            nodes: vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                Node::Leaf(vec![1.0]),
                Node::Leaf(vec![2.0]),
            ],
        };
        let json = serde_json::to_string(&tree).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
        assert_eq!(back.predict_row(&[0.4])[0], 1.0);
        assert_eq!(back.predict_row(&[0.6])[0], 2.0);
    }
}

/// The pre-histogram-engine builders, kept verbatim as a semantic oracle:
/// the engine must pick the same splits (and the same RNG-driven feature
/// samples) as a per-(node, feature) scan over the same rows.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn build_gbt_tree_naive(
        data: &TrainingView,
        rows: Vec<u32>,
        grad: &[f64],
        hess: &[f64],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> (Tree, SplitStats) {
        let mut tree = Tree { nodes: Vec::new() };
        let mut stats = SplitStats::new(data.cols);
        tree.nodes.push(Node::Leaf(vec![0.0]));
        let mut stack = vec![(0usize, rows, 0usize)];
        let mut feat_scratch: Vec<usize> = (0..data.cols).collect();
        let mut g_hist: Vec<f64> = Vec::new();
        let mut h_hist: Vec<f64> = Vec::new();

        while let Some((node_idx, node_rows, depth)) = stack.pop() {
            let g_sum: f64 = node_rows.iter().map(|&r| grad[r as usize]).sum();
            let h_sum: f64 = node_rows.iter().map(|&r| hess[r as usize]).sum();
            let leaf_weight = -g_sum / (h_sum + params.lambda);

            let make_leaf = depth >= params.max_depth || node_rows.len() < 2;
            let mut best: Option<(usize, u16, f64)> = None;
            if !make_leaf {
                let parent_score = g_sum * g_sum / (h_sum + params.lambda);
                for &f in sample_features(&mut feat_scratch, params.colsample, rng) {
                    let n_bins = data.binner.n_bins(f);
                    if n_bins < 2 {
                        continue;
                    }
                    g_hist.clear();
                    g_hist.resize(n_bins, 0.0);
                    h_hist.clear();
                    h_hist.resize(n_bins, 0.0);
                    for &r in &node_rows {
                        let b = data.bin(r, f) as usize;
                        g_hist[b] += grad[r as usize];
                        h_hist[b] += hess[r as usize];
                    }
                    let mut gl = 0.0;
                    let mut hl = 0.0;
                    for b in 0..n_bins - 1 {
                        gl += g_hist[b];
                        hl += h_hist[b];
                        let gr = g_sum - gl;
                        let hr = h_sum - hl;
                        if hl < params.min_child_weight || hr < params.min_child_weight {
                            continue;
                        }
                        let gain = 0.5
                            * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                                - parent_score)
                            - params.gamma;
                        if gain > 0.0 && best.map_or(true, |(_, _, g)| gain > g) {
                            best = Some((f, b as u16, gain));
                        }
                    }
                }
            }

            match best {
                None => {
                    tree.nodes[node_idx] = Node::Leaf(vec![leaf_weight]);
                }
                Some((feature, bin, gain)) => {
                    stats.gains[feature] += gain;
                    stats.counts[feature] += 1;
                    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = node_rows
                        .into_iter()
                        .partition(|&r| data.bin(r, feature) <= bin);
                    let left = tree.nodes.len();
                    tree.nodes.push(Node::Leaf(vec![0.0]));
                    let right = tree.nodes.len();
                    tree.nodes.push(Node::Leaf(vec![0.0]));
                    tree.nodes[node_idx] = Node::Split {
                        feature,
                        threshold: data.binner.threshold(feature, bin),
                        left,
                        right,
                    };
                    stack.push((left, left_rows, depth + 1));
                    stack.push((right, right_rows, depth + 1));
                }
            }
        }
        (tree, stats)
    }

    pub fn build_variance_tree_naive(
        data: &TrainingView,
        rows: Vec<u32>,
        targets: &Matrix,
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> (Tree, SplitStats) {
        let k = targets.cols();
        let mut tree = Tree { nodes: Vec::new() };
        let mut stats = SplitStats::new(data.cols);
        tree.nodes.push(Node::Leaf(vec![0.0; k]));
        let mut stack = vec![(0usize, rows, 0usize)];
        let mut feat_scratch: Vec<usize> = (0..data.cols).collect();
        let mut sum_hist: Vec<f64> = Vec::new();
        let mut count_hist: Vec<f64> = Vec::new();
        let min_leaf = params.min_child_weight.max(1.0);

        while let Some((node_idx, node_rows, depth)) = stack.pop() {
            let n = node_rows.len() as f64;
            let mut mean = vec![0.0; k];
            for &r in &node_rows {
                for (m, &t) in mean.iter_mut().zip(targets.row(r as usize)) {
                    *m += t;
                }
            }
            for m in &mut mean {
                *m /= n.max(1.0);
            }

            let make_leaf = depth >= params.max_depth || n < 2.0 * min_leaf;
            let mut best: Option<(usize, u16, f64)> = None;
            if !make_leaf {
                let sums: Vec<f64> = mean.iter().map(|m| m * n).collect();
                let parent_score: f64 = sums.iter().map(|s| s * s).sum::<f64>() / n;
                for &f in sample_features(&mut feat_scratch, params.colsample, rng) {
                    let n_bins = data.binner.n_bins(f);
                    if n_bins < 2 {
                        continue;
                    }
                    sum_hist.clear();
                    sum_hist.resize(n_bins * k, 0.0);
                    count_hist.clear();
                    count_hist.resize(n_bins, 0.0);
                    for &r in &node_rows {
                        let b = data.bin(r, f) as usize;
                        count_hist[b] += 1.0;
                        let t = targets.row(r as usize);
                        for (slot, &v) in sum_hist[b * k..(b + 1) * k].iter_mut().zip(t) {
                            *slot += v;
                        }
                    }
                    let mut nl = 0.0;
                    let mut sl = vec![0.0; k];
                    for b in 0..n_bins - 1 {
                        nl += count_hist[b];
                        for (s, &v) in sl.iter_mut().zip(&sum_hist[b * k..(b + 1) * k]) {
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
                        if gain > 1e-12 && best.map_or(true, |(_, _, g)| gain > g) {
                            best = Some((f, b as u16, gain));
                        }
                    }
                }
            }

            match best {
                None => {
                    tree.nodes[node_idx] = Node::Leaf(mean);
                }
                Some((feature, bin, gain)) => {
                    stats.gains[feature] += gain;
                    stats.counts[feature] += 1;
                    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = node_rows
                        .into_iter()
                        .partition(|&r| data.bin(r, feature) <= bin);
                    let left = tree.nodes.len();
                    tree.nodes.push(Node::Leaf(vec![0.0; k]));
                    let right = tree.nodes.len();
                    tree.nodes.push(Node::Leaf(vec![0.0; k]));
                    tree.nodes[node_idx] = Node::Split {
                        feature,
                        threshold: data.binner.threshold(feature, bin),
                        left,
                        right,
                    };
                    stack.push((left, left_rows, depth + 1));
                    stack.push((right, right_rows, depth + 1));
                }
            }
        }
        (tree, stats)
    }
}

#[cfg(test)]
mod equivalence {
    use super::tests::{build_gbt_tree, build_variance_tree};
    use super::*;
    use crate::hist::GradHess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_fixture(n: usize, p: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Matrix::from_rows(&rows)
    }

    /// Trees must agree split-for-split; leaf values may differ only by
    /// floating-point reassociation from sibling subtraction.
    fn assert_trees_equivalent(a: &Tree, b: &Tree) {
        assert_eq!(a.nodes.len(), b.nodes.len(), "node count");
        for (i, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            match (na, nb) {
                (Node::Leaf(va), Node::Leaf(vb)) => {
                    for (x, y) in va.iter().zip(vb) {
                        assert!((x - y).abs() < 1e-9, "leaf {i}: {x} vs {y}");
                    }
                }
                (sa @ Node::Split { .. }, sb @ Node::Split { .. }) => {
                    assert_eq!(sa, sb, "split {i}");
                }
                _ => panic!("node {i} kind mismatch: {na:?} vs {nb:?}"),
            }
        }
    }

    #[test]
    fn gbt_hist_engine_matches_naive_builder() {
        let x = random_fixture(400, 8, 42);
        let data = TrainingView::fit(&x, 32);
        let mut rng = StdRng::seed_from_u64(7);
        let grad: Vec<f64> = (0..400)
            .map(|i| x.get(i, 0) * 2.0 - x.get(i, 3) + rng.gen_range(-0.01..0.01))
            .collect();
        let hess = vec![1.0; 400];
        let params = TreeParams {
            max_depth: 6,
            colsample: 0.75,
            min_child_weight: 2.0,
            ..TreeParams::default()
        };
        let rows: Vec<u32> = (0..400u32).collect();
        let (naive, naive_stats) = reference::build_gbt_tree_naive(
            &data,
            rows.clone(),
            &grad,
            &hess,
            &params,
            &mut StdRng::seed_from_u64(99),
        );
        let (fast, fast_stats) = build_gbt_tree(
            &data,
            rows,
            &grad,
            &hess,
            &params,
            &mut StdRng::seed_from_u64(99),
        );
        assert_trees_equivalent(&naive, &fast);
        assert_eq!(naive_stats.counts, fast_stats.counts);
        assert!(naive.n_leaves() > 4, "fixture must actually grow a tree");
    }

    #[test]
    fn variance_hist_engine_matches_naive_builder() {
        let x = random_fixture(300, 6, 11);
        let data = TrainingView::fit(&x, 24);
        let y_rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![x.get(i, 1) + x.get(i, 2), x.get(i, 0) * x.get(i, 4)])
            .collect();
        let y = Matrix::from_rows(&y_rows);
        let params = TreeParams {
            max_depth: 7,
            colsample: 0.7,
            min_child_weight: 2.0,
            ..TreeParams::default()
        };
        let rows: Vec<u32> = (0..300u32).collect();
        let (naive, naive_stats) = reference::build_variance_tree_naive(
            &data,
            rows.clone(),
            &y,
            &params,
            &mut StdRng::seed_from_u64(123),
        );
        let (fast, fast_stats) =
            build_variance_tree(&data, rows, &y, &params, &mut StdRng::seed_from_u64(123));
        assert_trees_equivalent(&naive, &fast);
        assert_eq!(naive_stats.counts, fast_stats.counts);
        assert!(naive.n_leaves() > 4, "fixture must actually grow a tree");
    }

    #[test]
    fn leaf_routed_updates_match_tree_traversal() {
        // `on_leaf` must leave `pred` exactly where predict_row would.
        let x = random_fixture(250, 5, 5);
        let data = TrainingView::fit(&x, 32);
        let grad: Vec<f64> = (0..250).map(|i| x.get(i, 2) - 0.5 * x.get(i, 0)).collect();
        let hess = vec![1.0; 250];
        let params = TreeParams {
            max_depth: 5,
            ..TreeParams::default()
        };
        // Stats rows: every third row withheld (simulates subsampling).
        let rows: Vec<u32> = (0..250u32).filter(|r| r % 3 != 0).collect();
        let extra: Vec<u32> = (0..250u32).filter(|r| r % 3 == 0).collect();
        let mut pred = vec![0.0; 250];
        let eta = 0.3;
        let crit = GradHess {
            grad: &grad,
            hess: &hess,
            params: &params,
        };
        let (tree, _) = grow(
            &data,
            rows,
            extra,
            &crit,
            &params,
            &mut StdRng::seed_from_u64(31),
            |rows, extra, leaf| {
                for &r in rows.iter().chain(extra) {
                    pred[r as usize] += eta * leaf[0];
                }
            },
        );
        for i in 0..250 {
            let expected = eta * tree.predict_row(x.row(i))[0];
            assert!(
                (pred[i] - expected).abs() < 1e-12,
                "row {i}: routed {} vs traversed {expected}",
                pred[i]
            );
        }
    }
}
