//! The inference engine: trained trees lowered in one checked pass to a
//! flat, bin-indexed layout with integer node compares, a branch-free
//! fixed-depth lockstep walk, and a first-class single-row path.
//!
//! Trained trees ([`Tree`]) are a `Vec` of enum nodes with heap-allocated
//! leaf vectors — convenient during construction, slow for serving: every
//! node visit matches an enum discriminant, compares two `f64`s and every
//! leaf read chases a separate allocation. [`QuantizedEnsemble::from_gbt`]
//! / [`QuantizedEnsemble::from_forest`] lower a whole ensemble into:
//!
//! * **One pack layout.** Trees are grouped into packs of [`LANES`] in
//!   accumulation order, and each pack is laid out breadth-first *across*
//!   its trees: all roots adjacent (tree `t`'s root is slot
//!   `pack_start[t / LANES] + t % LANES`), then every pack tree's level-1
//!   nodes, and so on, so the hot top levels share cache lines. Per slot,
//!   `feature` / `bin` / `step`: a split's `step` is its left child's slot
//!   (siblings are adjacent, so the right child is `step + 1`); a **leaf
//!   steps to itself** and holds the bin `B::MAX`, which no row's bin
//!   exceeds, so once a walk reaches a leaf it stays there. `leaf[slot]`
//!   is a leaf's offset into one shared leaf arena. GBT leaves are
//!   pre-scaled by the learning rate as they enter the arena (`eta · w`
//!   has identical bits multiplied once here or per row at predict time),
//!   so the serving loop is a pure add.
//!
//! * **Quantization.** Every split threshold a trained tree holds is a bin
//!   edge of some training-time [`crate::binning::QuantileBinner`]. The
//!   lowering collects, per feature, the sorted distinct thresholds used
//!   anywhere in the ensemble (its *cuts*) and stores each node's cut
//!   index instead of the `f64` — a `u8` when every feature has ≤ 255
//!   cuts, `u16` otherwise (a model warm-started on fresh data many times
//!   unions the cuts of many binners). The `f64` thresholds live only in
//!   a build-time scratch vector. At predict time each row is **pre-binned
//!   once** (`bin(v) = |{cut < v}|`, NaN ↦ `n_cuts`) and every node visit
//!   is an integer compare: for a node holding cut `j` of feature `f`,
//!
//!   `v <= cuts[f][j]  ⟺  bin(v) <= j`     (and NaN > every `j`)
//!
//!   because `bin(v) <= j` holds iff fewer than `j + 1` cuts are below
//!   `v`, i.e. iff `cuts[f][j] >= v`. Each threshold is literally one of
//!   its feature's cuts, so the engine selects *the same leaf* as the
//!   reference traversal and its output is **bit-identical**. A row bin is
//!   at most `n_cuts` ≤ `B::MAX`, so no row ever steps off a leaf.
//!
//! * **Fixed-depth lockstep walk.** One step of the kernel is
//!   `idx = step[idx] + (binned[base + feature[idx]] > bin[idx])` for
//!   [`LANES`] independent walks at once: no leaf test, no mask, no exit
//!   branch. Each walk runs a trip count fixed at lowering — its tree's
//!   depth in the batch kernel, where the lanes are rows of one tree, and
//!   its pack's largest depth in the single-row path, where the lanes are
//!   the pack's trees. The batch kernel processes rows in blocks of
//!   [`BLOCK_ROWS`] with trees in the outer loop; blocks write disjoint
//!   output slices under `mphpc-par`'s chunked driver.
//!
//! * **Validation.** The kernel indexes without bounds checks, so the
//!   lowering is where trees from outside the process (model JSON) are
//!   checked: every structural fault is an [`MphpcError`] naming the tree
//!   and node, never a panic or an unbounded loop.
//!
//! Accumulation order is the reference per-row loop's (trees in chain
//! order per row, forest `1/n` applied after the sum), so predictions are
//! bit-identical to `predict_reference` at any thread count.

use crate::matrix::Matrix;
use crate::tree::{Node, Tree};
use mphpc_errors::MphpcError;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Rows (batch kernel) or trees (single-row kernel) walked in lockstep.
pub const LANES: usize = 8;

/// Rows per traversal block in the batch kernel. 64 rows × 21 features of
/// bin ids plus per-row cursor/accumulator state sit comfortably inside a
/// 32 KiB L1 data cache with room left for the top levels of the tree
/// being walked.
pub const BLOCK_ROWS: usize = 64;

/// Features binned on the stack in the single-row path; wider rows fall
/// back to one heap allocation.
const STACK_FEATURES: usize = 256;

/// Integer bin-id storage: `u8` while every feature has ≤ 255 cuts, `u16`
/// for ensembles with more distinct thresholds.
trait BinId: Copy + Ord + std::fmt::Debug + Send + Sync + 'static {
    const ZERO: Self;
    /// A leaf's bin: at least every row bin (the NaN sentinel `n_cuts`
    /// included), so a leaf steps to itself.
    const MAX: Self;
    /// Narrow from `usize`; the builder guarantees the value fits.
    fn from_usize(v: usize) -> Self;
}

impl BinId for u8 {
    const ZERO: Self = 0;
    const MAX: Self = u8::MAX;
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u8::MAX as usize);
        v as u8
    }
}

impl BinId for u16 {
    const ZERO: Self = 0;
    const MAX: Self = u16::MAX;
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize);
        v as u16
    }
}

/// Width-specific node arrays, one entry per slot of the pack layout.
#[derive(Debug, Clone)]
struct Engine<B> {
    /// Split feature per slot (0 for leaves).
    feature: Vec<u16>,
    /// Quantized threshold per slot: index of the split's cut within
    /// `cuts[feature]`; `B::MAX` for leaves.
    bin: Vec<B>,
    /// Left-child slot of a split (right sibling at `+1`); a leaf's own
    /// slot.
    step: Vec<u32>,
}

/// Bin-width dispatch: one engine instantiation per id width.
#[derive(Debug, Clone)]
enum Nodes {
    U8(Engine<u8>),
    U16(Engine<u16>),
}

/// How a tree's leaf payload maps onto the output columns.
#[derive(Debug, Clone)]
enum LeafLayout {
    /// Each tree carries scalar leaves feeding one output column
    /// (`col[t]` for tree `t`) — the GBT booster-chain shape.
    ScalarPerTree(Vec<u32>),
    /// Every leaf holds a full `n_outputs`-wide vector — the forest shape.
    Vector,
}

/// A tree ensemble lowered for integer traversal.
///
/// Built by [`QuantizedEnsemble::from_gbt`] /
/// [`QuantizedEnsemble::from_forest`] (usually via the lazy cache inside
/// [`crate::gbt::GbtRegressor`] / [`crate::forest::ForestRegressor`]) and
/// queried with [`QuantizedEnsemble::predict`]. Derived data: never
/// serialised, rebuilt from the trees after deserialisation.
#[derive(Debug, Clone)]
pub struct QuantizedEnsemble {
    n_outputs: usize,
    n_features: usize,
    /// Per-feature ascending distinct split thresholds ("cuts").
    cuts: Vec<Vec<f64>>,
    /// First slot of each pack; pack `p` holding `m` trees has its roots
    /// at slots `pack_start[p] .. pack_start[p] + m`.
    pack_start: Vec<u32>,
    /// Trip count of each tree's walk in the batch kernel: its depth.
    depth: Vec<u32>,
    /// Trip count of each pack's walk in the single-row path: the largest
    /// depth among its trees.
    pack_depth: Vec<u32>,
    /// Leaf-arena offset per slot (read at leaves only).
    leaf: Vec<u32>,
    /// Leaf-value arena shared by all trees (GBT leaves pre-scaled by the
    /// learning rate, forests unscaled).
    leaves: Vec<f64>,
    layout: LeafLayout,
    /// Per-output accumulator seed (GBT base scores; zero for forests).
    base: Vec<f64>,
    /// Final per-element multiplier (1/n_trees for forests, 1 for GBT —
    /// applied *after* summation to preserve the reference fp order).
    scale: f64,
    nodes: Nodes,
}

fn invalid(what: impl std::fmt::Display) -> MphpcError {
    MphpcError::InvalidArgument(format!("invalid tree ensemble: {what}"))
}

/// The pack layout while packs are lowered one by one. `threshold` is the
/// only place the f64 thresholds exist after lowering; it is dropped once
/// [`QuantizedEnsemble::finish`] has turned it into cut indices.
struct Lowerer {
    n_features: usize,
    /// Values every leaf must hold (1 for GBT, `n_outputs` for forests).
    leaf_width: usize,
    feature: Vec<u16>,
    threshold: Vec<f64>,
    step: Vec<u32>,
    leaf: Vec<u32>,
    leaves: Vec<f64>,
    pack_start: Vec<u32>,
    depth: Vec<u32>,
}

impl Lowerer {
    /// Lower `trees` (in accumulation order) pack by pack; leaf values
    /// are multiplied by `leaf_scale` as they enter the arena.
    fn new(
        trees: &[&Tree],
        n_features: usize,
        leaf_width: usize,
        leaf_scale: f64,
    ) -> Result<Self, MphpcError> {
        // Leaf slots read `binned[base + 0]`, so a row must hold one bin.
        if n_features == 0 || n_features > u16::MAX as usize {
            return Err(invalid(format!(
                "{n_features} features (supported: 1..=65535)"
            )));
        }
        let nodes: usize = trees.iter().map(|t| t.n_nodes()).sum();
        let mut l = Self {
            n_features,
            leaf_width,
            feature: Vec::with_capacity(nodes),
            threshold: Vec::with_capacity(nodes),
            step: Vec::with_capacity(nodes),
            leaf: Vec::with_capacity(nodes),
            leaves: Vec::new(),
            pack_start: Vec::with_capacity(trees.len().div_ceil(LANES)),
            depth: Vec::with_capacity(trees.len()),
        };
        for (pi, pack) in trees.chunks(LANES).enumerate() {
            l.lower_pack(pi * LANES, pack, leaf_scale)?;
        }
        Ok(l)
    }

    /// Append a slot that is a leaf until [`Lowerer::lower_pack`] makes it
    /// a split: it steps to itself.
    fn push_slot(&mut self) -> Result<usize, MphpcError> {
        let slot = self.step.len();
        if slot >= u32::MAX as usize {
            return Err(invalid("node count exceeds 2^32 - 1"));
        }
        self.feature.push(0);
        self.threshold.push(0.0);
        self.step.push(slot as u32);
        self.leaf.push(0);
        Ok(slot)
    }

    /// Emit the pack of trees numbered from `t0` breadth-first across the
    /// pack (children adjacent, left first) and record each tree's depth.
    /// Iterative, so a chain-shaped tree cannot overflow the stack; every
    /// source node is emitted at most once, so a cyclic or shared-child
    /// "tree" is an error, not an endless loop.
    fn lower_pack(&mut self, t0: usize, pack: &[&Tree], leaf_scale: f64) -> Result<(), MphpcError> {
        let mut seen = Vec::with_capacity(pack.len());
        let mut queue = VecDeque::new();
        for (l, tree) in pack.iter().enumerate() {
            if tree.nodes.is_empty() {
                return Err(invalid(format!("tree {} has no nodes", t0 + l)));
            }
            let mut s = vec![false; tree.nodes.len()];
            s[0] = true;
            seen.push(s);
            let slot = self.push_slot()?;
            if l == 0 {
                self.pack_start.push(slot as u32);
            }
            queue.push_back((l, 0usize, slot, 0u32));
            self.depth.push(0);
        }
        while let Some((l, src, dst, level)) = queue.pop_front() {
            let (t, n) = (t0 + l, pack[l].nodes.len());
            match &pack[l].nodes[src] {
                Node::Leaf(values) => {
                    if values.len() != self.leaf_width {
                        return Err(invalid(format!(
                            "tree {t} node {src}: leaf holds {} values, expected {}",
                            values.len(),
                            self.leaf_width
                        )));
                    }
                    let off = self.leaves.len();
                    if off + values.len() > u32::MAX as usize {
                        return Err(invalid("leaf arena exceeds 2^32 - 1 values"));
                    }
                    self.leaves.extend(values.iter().map(|v| v * leaf_scale));
                    self.leaf[dst] = off as u32;
                    self.depth[t] = self.depth[t].max(level);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature >= self.n_features {
                        return Err(invalid(format!(
                            "tree {t} node {src}: split feature {feature} out of range \
                             (model has {} features)",
                            self.n_features
                        )));
                    }
                    if !threshold.is_finite() {
                        return Err(invalid(format!(
                            "tree {t} node {src}: split threshold {threshold} is not finite"
                        )));
                    }
                    for (side, &c) in [("left", left), ("right", right)] {
                        if c >= n {
                            return Err(invalid(format!(
                                "tree {t} node {src}: {side} child {c} out of range \
                                 (tree has {n} nodes)"
                            )));
                        }
                        if std::mem::replace(&mut seen[l][c], true) {
                            return Err(invalid(format!(
                                "tree {t} node {src}: {side} child {c} is reached twice \
                                 (cycle or shared subtree)"
                            )));
                        }
                    }
                    let left_slot = self.push_slot()?;
                    self.push_slot()?;
                    self.feature[dst] = *feature as u16;
                    self.threshold[dst] = *threshold;
                    self.step[dst] = left_slot as u32;
                    queue.push_back((l, *left, left_slot, level + 1));
                    queue.push_back((l, *right, left_slot + 1, level + 1));
                }
            }
        }
        Ok(())
    }
}

impl QuantizedEnsemble {
    /// Lower a GBT model (`boosters[j]` is the tree chain of output `j`)
    /// predicting on `n_features`-wide rows. Leaves are pre-scaled by
    /// `learning_rate`, so prediction is `base[j] + Σ leaf` —
    /// bit-identical to the reference `base[j] + Σ learning_rate · leaf`
    /// chain-order accumulation.
    ///
    /// Errors on any structurally invalid tree (see the module docs) and
    /// when `boosters` and `base_scores` disagree on the output count.
    pub fn from_gbt(
        boosters: &[Vec<Tree>],
        base_scores: &[f64],
        learning_rate: f64,
        n_features: usize,
    ) -> Result<Self, MphpcError> {
        let _span = mphpc_telemetry::span!("quantized.build");
        if boosters.len() != base_scores.len() {
            return Err(invalid(format!(
                "{} booster chains but {} base scores",
                boosters.len(),
                base_scores.len()
            )));
        }
        let trees: Vec<&Tree> = boosters.iter().flatten().collect();
        let cols = boosters
            .iter()
            .enumerate()
            .flat_map(|(j, chain)| std::iter::repeat(j as u32).take(chain.len()))
            .collect();
        Self::finish(
            Lowerer::new(&trees, n_features, 1, learning_rate)?,
            LeafLayout::ScalarPerTree(cols),
            base_scores.to_vec(),
            1.0,
        )
    }

    /// Lower a forest (every leaf an `n_outputs`-wide mean vector)
    /// predicting on `n_features`-wide rows. Leaves are *not* pre-scaled:
    /// the reference sums tree vectors and multiplies by `1/n_trees` at
    /// the end, and the engine keeps that exact fp order.
    ///
    /// Errors on an empty forest and on any structurally invalid tree (see
    /// the module docs).
    pub fn from_forest(
        trees: &[Tree],
        n_outputs: usize,
        n_features: usize,
    ) -> Result<Self, MphpcError> {
        let _span = mphpc_telemetry::span!("quantized.build");
        // Only a lowered leaf vouches for `n_outputs`, which sizes every
        // output buffer from here on.
        if trees.is_empty() {
            return Err(invalid("forest has no trees"));
        }
        let trees: Vec<&Tree> = trees.iter().collect();
        Self::finish(
            Lowerer::new(&trees, n_features, n_outputs, 1.0)?,
            LeafLayout::Vector,
            vec![0.0; n_outputs],
            1.0 / trees.len() as f64,
        )
    }

    /// Derive the per-feature cuts from the lowered thresholds and
    /// quantize the nodes at the narrowest id width that fits.
    fn finish(
        l: Lowerer,
        layout: LeafLayout,
        base: Vec<f64>,
        scale: f64,
    ) -> Result<Self, MphpcError> {
        // A leaf steps to itself, a split to a later slot.
        let is_split = |i: usize| l.step[i] as usize != i;
        let mut cuts: Vec<Vec<f64>> = vec![Vec::new(); l.n_features];
        for i in (0..l.step.len()).filter(|&i| is_split(i)) {
            cuts[l.feature[i] as usize].push(l.threshold[i]);
        }
        for fc in &mut cuts {
            fc.sort_by(|a, b| a.partial_cmp(b).expect("cuts are finite"));
            fc.dedup();
        }
        let max_cuts = cuts.iter().map(Vec::len).max().unwrap_or(0);
        // The row-binning sentinel for NaN is `cuts.len()`, so the id
        // type must hold `max_cuts`, not just `max_cuts - 1`.
        if max_cuts >= u16::MAX as usize {
            return Err(invalid(format!(
                "{max_cuts} distinct thresholds on one feature (supported: 65534)"
            )));
        }
        let nodes = if max_cuts <= u8::MAX as usize {
            Nodes::U8(Engine::build(l.feature, &l.threshold, l.step, &cuts))
        } else {
            Nodes::U16(Engine::build(l.feature, &l.threshold, l.step, &cuts))
        };
        let pack_depth = l
            .depth
            .chunks(LANES)
            .map(|d| d.iter().copied().max().unwrap_or(0))
            .collect();
        let engine = Self {
            n_outputs: base.len(),
            n_features: l.n_features,
            cuts,
            pack_start: l.pack_start,
            depth: l.depth,
            pack_depth,
            leaf: l.leaf,
            leaves: l.leaves,
            layout,
            base,
            scale,
            nodes,
        };
        mphpc_telemetry::counter_add("ml.quantized.builds", 1);
        mphpc_telemetry::gauge_set("ml.quantized.node_bytes", engine.node_bytes() as f64);
        mphpc_telemetry::gauge_set("ml.quantized.leaf_bytes", engine.leaf_bytes() as f64);
        Ok(engine)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.depth.len()
    }

    /// Per-feature ascending distinct split thresholds the ensemble uses.
    pub fn cuts(&self) -> &[Vec<f64>] {
        &self.cuts
    }

    /// Bits per stored bin id (8 or 16).
    pub fn bin_bits(&self) -> u32 {
        match &self.nodes {
            Nodes::U8(_) => 8,
            Nodes::U16(_) => 16,
        }
    }

    /// Bytes held by the node layout: per slot its feature, bin, step and
    /// leaf offset; per pack its first slot and trip count; per tree its
    /// trip count.
    pub fn node_bytes(&self) -> usize {
        let per_slot = 2 + 4 + 4 + self.bin_bits() as usize / 8;
        let words = self.pack_start.len() + self.pack_depth.len() + self.depth.len();
        self.leaf.len() * per_slot + words * std::mem::size_of::<u32>()
    }

    /// Bytes held by the leaf arena.
    pub fn leaf_bytes(&self) -> usize {
        self.leaves.len() * std::mem::size_of::<f64>()
    }

    /// Predict the `n × n_outputs` target matrix for `n` feature rows.
    ///
    /// Rows below [`LANES`] take the single-row path (no parallel
    /// dispatch, each pack's trees walked in lockstep); larger batches
    /// run the blocked lane kernel, parallelised over [`BLOCK_ROWS`]-row
    /// blocks. Output is bit-identical to the reference traversal at any
    /// thread count.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let k = self.n_outputs;
        let mut out = Matrix::zeros(x.rows(), k);
        if k == 0 || x.rows() == 0 {
            return out;
        }
        assert_eq!(x.cols(), self.n_features, "feature count mismatch");
        let _span =
            mphpc_telemetry::span!("quantized.predict", rows = x.rows(), trees = self.n_trees());
        mphpc_telemetry::counter_add("ml.quantized.rows_predicted", x.rows() as u64);
        if x.rows() < LANES {
            mphpc_telemetry::counter_add("ml.quantized.path.single", x.rows() as u64);
            for i in 0..x.rows() {
                self.predict_one(x.row(i), out.row_mut(i));
            }
        } else {
            mphpc_telemetry::counter_add("ml.quantized.path.batch", 1);
            if x.rows() <= BLOCK_ROWS {
                self.predict_block(x, 0, out.as_mut_slice());
            } else {
                mphpc_par::par_chunks_mut(out.as_mut_slice(), BLOCK_ROWS * k, |block, chunk| {
                    self.predict_block(x, block * BLOCK_ROWS, chunk);
                });
            }
        }
        out
    }

    /// Bin one row: `out[f] = |{cut < v}|`, NaN ↦ `n_cuts` (a sentinel
    /// above every split bin, reproducing the reference "NaN goes right").
    fn bin_row<B: BinId>(cuts: &[Vec<f64>], row: &[f64], out: &mut [B]) {
        for ((v, fc), o) in row.iter().zip(cuts).zip(out.iter_mut()) {
            *o = if v.is_nan() {
                B::from_usize(fc.len())
            } else {
                B::from_usize(fc.partition_point(|c| c < v))
            };
        }
    }

    /// Predict one block of rows starting at `row0` into `out`
    /// (row-major, `n_outputs` wide, length determines the block size).
    fn predict_block(&self, x: &Matrix, row0: usize, out: &mut [f64]) {
        match &self.nodes {
            Nodes::U8(e) => self.predict_block_scalar(e, x, row0, out),
            Nodes::U16(e) => self.predict_block_scalar(e, x, row0, out),
        }
    }

    fn predict_block_scalar<B: BinId>(
        &self,
        e: &Engine<B>,
        x: &Matrix,
        row0: usize,
        out: &mut [f64],
    ) {
        let k = self.n_outputs;
        let p = self.n_features;
        let n = out.len() / k;
        debug_assert!(n <= BLOCK_ROWS);
        for row_out in out.chunks_exact_mut(k) {
            row_out.copy_from_slice(&self.base);
        }
        // Pre-bin the block once; every node compare below is integer.
        let mut binned = vec![B::ZERO; n * p];
        for (r, chunk) in binned.chunks_exact_mut(p).enumerate() {
            Self::bin_row(&self.cuts, x.row(row0 + r), chunk);
        }
        let mut ends = [0u32; BLOCK_ROWS];
        for (t, &trips) in self.depth.iter().enumerate() {
            let root = self.pack_start[t / LANES] + (t % LANES) as u32;
            let mut r = 0;
            while r < n {
                let lanes = (n - r).min(LANES);
                // Tail lanes re-walk the last valid row: harmless, and it
                // keeps the kernel a single branchless shape.
                let mut bases = [0usize; LANES];
                for (l, b) in bases.iter_mut().enumerate() {
                    *b = (r + l.min(lanes - 1)) * p;
                }
                let slots = e.walk(&binned, &bases, [root; LANES], trips);
                ends[r..r + lanes].copy_from_slice(&slots[..lanes]);
                r += lanes;
            }
            self.accumulate_tree(t, &ends[..n], out);
        }
        if self.scale != 1.0 {
            for o in out.iter_mut() {
                *o *= self.scale;
            }
        }
    }

    /// Single-row prediction: each pack's trees walked in lockstep.
    fn predict_one(&self, row: &[f64], out: &mut [f64]) {
        match &self.nodes {
            Nodes::U8(e) => self.predict_one_scalar(e, row, out),
            Nodes::U16(e) => self.predict_one_scalar(e, row, out),
        }
    }

    fn predict_one_scalar<B: BinId>(&self, e: &Engine<B>, row: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.base);
        let p = self.n_features;
        let mut stack = [B::ZERO; STACK_FEATURES];
        let mut heap = Vec::new();
        let binned: &mut [B] = if p <= STACK_FEATURES {
            &mut stack[..p]
        } else {
            heap.resize(p, B::ZERO);
            &mut heap
        };
        Self::bin_row(&self.cuts, row, binned);
        for (pi, (&start, &trips)) in self.pack_start.iter().zip(&self.pack_depth).enumerate() {
            let lanes = (self.n_trees() - pi * LANES).min(LANES);
            // Tail lanes re-walk the pack's last tree; their result is
            // ignored below.
            let mut roots = [start; LANES];
            for (l, r) in roots.iter_mut().enumerate() {
                *r = start + l.min(lanes - 1) as u32;
            }
            let slots = e.walk(binned, &[0; LANES], roots, trips);
            for (l, slot) in slots[..lanes].iter().enumerate() {
                self.accumulate_tree(pi * LANES + l, std::slice::from_ref(slot), out);
            }
        }
        if self.scale != 1.0 {
            for o in out.iter_mut() {
                *o *= self.scale;
            }
        }
    }

    /// Add tree `t`'s leaf contributions (`slots[r]`, the leaf reached by
    /// output row `r`) to `out`, preserving the reference accumulation
    /// order.
    fn accumulate_tree(&self, t: usize, slots: &[u32], out: &mut [f64]) {
        let k = self.n_outputs;
        let offsets = slots.iter().map(|&s| self.leaf[s as usize] as usize);
        match &self.layout {
            LeafLayout::ScalarPerTree(cols) => {
                let j = cols[t] as usize;
                for (row_out, off) in out.chunks_exact_mut(k).zip(offsets) {
                    row_out[j] += self.leaves[off];
                }
            }
            LeafLayout::Vector => {
                for (row_out, off) in out.chunks_exact_mut(k).zip(offsets) {
                    for (o, &v) in row_out.iter_mut().zip(&self.leaves[off..off + k]) {
                        *o += v;
                    }
                }
            }
        }
    }
}

impl<B: BinId> Engine<B> {
    /// Quantize the lowered splits' thresholds against `cuts`; leaves
    /// (slots that step to themselves) get `B::MAX`.
    fn build(feature: Vec<u16>, threshold: &[f64], step: Vec<u32>, cuts: &[Vec<f64>]) -> Self {
        let bin = step
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if s as usize == i {
                    return B::MAX;
                }
                let j = cuts[feature[i] as usize]
                    .binary_search_by(|probe| {
                        probe.partial_cmp(&threshold[i]).expect("cuts are finite")
                    })
                    .expect("every split threshold is one of its feature's cuts");
                B::from_usize(j)
            })
            .collect();
        Self { feature, bin, step }
    }

    /// The lockstep kernel: [`LANES`] walks from `idx`, lane `l` reading
    /// its row's bins at `binned[bases[l]..]`, each taking exactly `trips`
    /// steps. A split steps to `step + go_right`; a leaf steps to itself
    /// (its bin is `B::MAX`), so a walk that reaches its leaf early stays
    /// there. Returns the slot each lane ends on.
    #[inline]
    fn walk(
        &self,
        binned: &[B],
        bases: &[usize; LANES],
        mut idx: [u32; LANES],
        trips: u32,
    ) -> [u32; LANES] {
        for _ in 0..trips {
            for (i, &base) in idx.iter_mut().zip(bases) {
                let cur = *i as usize;
                // SAFETY: builder invariants, checked by `Lowerer` for
                // every tree — slots (roots and steps) are < the arrays'
                // common length, `feature[cur] < n_features` with
                // `n_features >= 1` (leaves hold 0), and
                // `base + n_features <= binned.len()`.
                let f = unsafe { *self.feature.get_unchecked(cur) } as usize;
                let rb = unsafe { *binned.get_unchecked(base + f) };
                let nb = unsafe { *self.bin.get_unchecked(cur) };
                *i = unsafe { *self.step.get_unchecked(cur) } + u32::from(rb > nb);
            }
        }
        idx
    }
}
/// The engine cache attached to a tree regressor, filled on first use.
///
/// Derived data, so it is excluded from serialisation, equality and
/// cloning (a clone starts empty): a deserialised or cloned model lowers
/// its trees again on its first prediction. A failed lowering is cached
/// too, so an invalid model answers every call with the same error
/// without walking its trees again.
#[derive(Default)]
pub struct LazyQuantized(OnceLock<Result<QuantizedEnsemble, MphpcError>>);

impl LazyQuantized {
    /// The lowered ensemble, building it with `build` on first access.
    pub(crate) fn get_or_build(
        &self,
        build: impl FnOnce() -> Result<QuantizedEnsemble, MphpcError>,
    ) -> Result<&QuantizedEnsemble, MphpcError> {
        self.0.get_or_init(build).as_ref().map_err(Clone::clone)
    }
}

impl Clone for LazyQuantized {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for LazyQuantized {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for LazyQuantized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(Ok(q)) => write!(f, "LazyQuantized({} trees, u{})", q.n_trees(), q.bin_bits()),
            Some(Err(e)) => write!(f, "LazyQuantized(invalid: {e})"),
            None => write!(f, "LazyQuantized(empty)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(feature: usize, threshold: f64, left: usize, right: usize) -> Node {
        Node::Split {
            feature,
            threshold,
            left,
            right,
        }
    }

    /// Lower `tree` as a one-tree forest and check every row against the
    /// reference `predict_row`, through the single-row path and (tiled
    /// past `LANES`) through the batch kernel.
    fn probe(tree: &Tree, n_outputs: usize, rows: &[Vec<f64>]) -> QuantizedEnsemble {
        let q =
            QuantizedEnsemble::from_forest(std::slice::from_ref(tree), n_outputs, rows[0].len())
                .unwrap();
        assert_eq!(q.n_trees(), 1);
        let tiled: Vec<Vec<f64>> = rows.iter().cycle().take(rows.len() + 70).cloned().collect();
        let batch = q.predict(&Matrix::from_rows(&tiled));
        for (i, row) in tiled.iter().enumerate() {
            let want = tree.predict_row(row);
            let one = q.predict(&Matrix::from_rows(std::slice::from_ref(row)));
            assert_eq!(one.row(0), want, "single row {row:?}");
            assert_eq!(batch.row(i), want, "batch row {i} {row:?}");
        }
        q
    }

    #[test]
    fn handmade_tree_boundary_and_nan_routing() {
        let tree = Tree {
            nodes: vec![
                split(0, 0.0, 1, 2),
                split(1, -0.5, 3, 4),
                Node::Leaf(vec![3.0, -3.0]),
                Node::Leaf(vec![1.0, 10.0]),
                Node::Leaf(vec![2.0, 20.0]),
            ],
        };
        let q = probe(
            &tree,
            2,
            &[
                vec![-1.0, -1.0],
                vec![-1.0, -0.5], // boundary on the inner split: goes left
                vec![-1.0, 0.0],
                vec![0.0, -0.7], // boundary on the root: goes left
                vec![0.5, 9.0],
                vec![f64::NAN, 0.0],      // NaN at the root: right
                vec![-1.0, f64::NAN],     // NaN below: right
                vec![f64::INFINITY, 0.0], // +inf: right
                vec![f64::NEG_INFINITY, f64::NEG_INFINITY], // -inf: left twice
            ],
        );
        assert_eq!(q.bin_bits(), 8);
        assert_eq!(q.cuts(), [vec![0.0], vec![-0.5]]);
    }

    #[test]
    fn single_leaf_tree_and_unused_features() {
        // No splits at all: every feature has zero cuts, every row lands
        // on the root leaf.
        let tree = Tree {
            nodes: vec![Node::Leaf(vec![7.5])],
        };
        probe(&tree, 1, &[vec![0.0, 1.0, 2.0], vec![f64::NAN, -1.0, 9.9]]);
    }

    #[test]
    fn many_thresholds_fall_back_to_u16() {
        // 300 distinct thresholds on one feature exceed u8 bins: the
        // engine must select u16 and stay exact.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 8.3 - 10.0]).collect();
        assert_eq!(probe(&chain(300), 1, &rows).bin_bits(), 16);
    }

    #[test]
    fn deep_chain_tree_lowers_without_recursion() {
        // A 200k-deep left chain: recursive depth()/lowering would
        // overflow the stack; the iterative versions must not.
        let depth = 200_000usize;
        let mut nodes = Vec::with_capacity(2 * depth + 1);
        for i in 0..depth {
            let left = if i + 1 < depth { i + 1 } else { depth };
            nodes.push(split(0, 0.5, left, depth + 1 + i));
        }
        nodes.push(Node::Leaf(vec![7.0])); // index `depth`: end of the chain
        for i in 0..depth {
            nodes.push(Node::Leaf(vec![i as f64]));
        }
        let tree = Tree { nodes };
        assert_eq!(tree.depth(), depth);
        assert_eq!(tree.n_nodes(), 2 * depth + 1);
        assert_eq!(tree.n_leaves(), depth + 1);
        let q = QuantizedEnsemble::from_forest(std::slice::from_ref(&tree), 1, 1).unwrap();
        let out = q.predict(&Matrix::from_rows(&[vec![0.0], vec![1.0]]));
        assert_eq!(out.get(0, 0), 7.0, "left chain reaches the terminal leaf");
        assert_eq!(out.get(1, 0), 0.0, "first right leaf");
    }

    #[test]
    fn pack_layout_interleaves_roots() {
        // Three identical stumps lower into one pack whose three roots
        // occupy the first three packed slots.
        let tree = Tree {
            nodes: vec![
                split(0, 0.5, 1, 2),
                Node::Leaf(vec![1.0]),
                Node::Leaf(vec![2.0]),
            ],
        };
        let trees = vec![tree.clone(), tree.clone(), tree];
        let q = QuantizedEnsemble::from_forest(&trees, 1, 1).unwrap();
        assert_eq!(q.pack_start, vec![0]);
        assert_eq!(q.depth, vec![1; 3]);
        assert_eq!(q.pack_depth, vec![1]);
        match &q.nodes {
            Nodes::U8(e) => {
                // Roots first (slots 0..3, all splits), then the six
                // leaves level-interleaved behind them, each stepping to
                // itself under the bin no row exceeds.
                for slot in 0..3 {
                    assert_eq!(e.step[slot] as usize, 3 + 2 * slot, "root {slot}");
                }
                for slot in 3..9 {
                    assert_eq!(e.step[slot] as usize, slot, "slot {slot} is a leaf");
                    assert_eq!(e.bin[slot], u8::MAX, "slot {slot} is a leaf");
                }
            }
            Nodes::U16(_) => panic!("stumps must quantize to u8"),
        }
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let out = q.predict(&x);
        assert_eq!(out.get(0, 0), 1.0);
        assert_eq!(out.get(1, 0), 2.0);
        assert!(q.node_bytes() > 0);
        assert_eq!(q.leaf_bytes(), 6 * 8);
    }

    /// A right-leaning chain of `depth` splits on feature 0 at thresholds
    /// 0, 1, ...; the leaf after split `i` holds `i`, the chain's end -1.
    fn chain(depth: usize) -> Tree {
        let mut nodes = Vec::with_capacity(2 * depth + 1);
        for i in 0..depth {
            let right = if i + 1 < depth { i + 1 } else { depth };
            nodes.push(split(0, i as f64, depth + 1 + i, right));
        }
        nodes.push(Node::Leaf(vec![-1.0]));
        nodes.extend((0..depth).map(|i| Node::Leaf(vec![i as f64])));
        Tree { nodes }
    }

    #[test]
    fn pack_trips_are_each_packs_deepest_tree() {
        // Pack 0: eight stumps. Pack 1, partial: a stump, then a 20-deep
        // chain. Its trip count is the chain's depth, not the first tree's
        // and not the whole ensemble's.
        let mut trees = vec![chain(1); 9];
        trees.push(chain(20));
        let q = QuantizedEnsemble::from_forest(&trees, 1, 1).unwrap();
        assert_eq!(q.depth, [vec![1; 9], vec![20]].concat());
        assert_eq!(q.pack_depth, vec![1, 20]);
        let rows: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64 - 2.5]).collect();
        let want: Vec<f64> = rows
            .iter()
            .map(|row| trees.iter().map(|t| t.predict_row(row)[0]).sum::<f64>() * (1.0 / 10.0))
            .collect();
        let batch = q.predict(&Matrix::from_rows(&rows));
        for (i, row) in rows.iter().enumerate() {
            let one = q.predict(&Matrix::from_rows(std::slice::from_ref(row)));
            assert_eq!(one.get(0, 0), want[i], "single row {row:?}");
            assert_eq!(batch.get(i, 0), want[i], "batch row {row:?}");
        }
    }

    #[test]
    fn malformed_trees_are_errors_naming_tree_and_node() {
        // The shapes model JSON can carry are driven through `from_json`
        // in `model::tests`; these are the ones it cannot (JSON has no NaN
        // or infinity) or that need more than a stump.
        let leaf = || Node::Leaf(vec![1.0]);
        let stump = |threshold: f64| Tree {
            nodes: vec![split(0, threshold, 1, 2), leaf(), leaf()],
        };
        let looped = Tree {
            nodes: vec![split(0, 0.5, 1, 2), split(0, 0.1, 3, 0), leaf(), leaf()],
        };
        for (bad, want) in [
            (
                stump(f64::NAN),
                "tree 1 node 0: split threshold NaN is not finite",
            ),
            (
                stump(f64::INFINITY),
                "tree 1 node 0: split threshold inf is not finite",
            ),
            (looped, "tree 1 node 1: right child 0 is reached twice"),
        ] {
            let msg = QuantizedEnsemble::from_forest(&[stump(0.5), bad], 1, 1)
                .unwrap_err()
                .to_string();
            assert!(msg.contains(want), "{msg}");
        }
        assert!(QuantizedEnsemble::from_forest(&[stump(0.5)], 1, 0).is_err());
        assert!(QuantizedEnsemble::from_forest(&[], usize::MAX, 1).is_err());
    }
}
