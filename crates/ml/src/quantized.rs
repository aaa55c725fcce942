//! The inference engine: trained trees lowered in one checked pass to a
//! flat, bin-indexed layout with integer node compares, branchless
//! multi-lane traversal, and a first-class single-row path.
//!
//! Trained trees ([`Tree`]) are a `Vec` of enum nodes with heap-allocated
//! leaf vectors — convenient during construction, slow for serving: every
//! node visit matches an enum discriminant, compares two `f64`s and every
//! leaf read chases a separate allocation. [`QuantizedEnsemble::from_gbt`]
//! / [`QuantizedEnsemble::from_forest`] lower a whole ensemble into:
//!
//! * **Flat arrays.** `feature[i]` / `bin[i]` / `child[i]`, one entry per
//!   node, all trees concatenated, each tree laid out breadth-first so its
//!   hot top levels share cache lines. `child[i]` packs the topology: an
//!   internal node stores its left child's index (siblings are emitted
//!   adjacently, so the right child is `left + 1`); a leaf sets
//!   [`LEAF_BIT`] and stores an offset into one shared leaf arena. GBT
//!   leaves are pre-scaled by the learning rate as they enter the arena
//!   (`eta · w` has identical bits multiplied once here or per row at
//!   predict time), so the serving loop is a pure add.
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
//!   reference traversal and its output is **bit-identical**.
//!
//! * **Branchless 8-row lanes.** The batch kernel processes rows in
//!   blocks of [`BLOCK_ROWS`] with trees in the outer loop (a tree's node
//!   arrays stay cache-resident while the block streams through) and
//!   walks [`LANES`] rows per tree in lockstep: each step is
//!   mask-arithmetic (`next = internal ? child + go_right : stay`), eight
//!   independent dependency chains that hide node-load latency, the only
//!   branch being the shared "all lanes done" exit. Blocks write disjoint
//!   output slices under `mphpc-par`'s chunked driver.
//!
//! * **Interleaved single-row packing.** A second copy of the node arrays
//!   groups trees into packs of [`LANES`] and lays each pack out
//!   breadth-first *across* its trees (all roots adjacent, then every
//!   pack tree's level-1 nodes, ...). Single-row prediction walks the
//!   pack's trees in lockstep, so one cache line feeds up to eight trees
//!   at the hot top levels.
//!
//! * **Validation.** The kernels index without bounds checks, so the
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

/// Tag bit marking a packed `child` entry as a leaf-arena reference.
const LEAF_BIT: u32 = 1 << 31;

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
    /// The zero bin (padding for leaf slots).
    const ZERO: Self;
    /// Narrow from `usize`; the builder guarantees the value fits.
    fn from_usize(v: usize) -> Self;
}

impl BinId for u8 {
    const ZERO: Self = 0;
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u8::MAX as usize);
        v as u8
    }
}

impl BinId for u16 {
    const ZERO: Self = 0;
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize);
        v as u16
    }
}

/// Width-specific node arrays: the sequential layout (batch kernel) and
/// the interleaved pack layout (single-row kernel).
#[derive(Debug, Clone)]
struct Engine<B> {
    /// Split feature per node (0 for leaves).
    feature: Vec<u16>,
    /// Quantized threshold per node: index of the node's cut within
    /// `cuts[feature]` (0 for leaves).
    bin: Vec<B>,
    /// Packed topology per node: left-child index (right sibling at
    /// `+1`), or `LEAF_BIT | leaf-arena offset`.
    child: Vec<u32>,
    /// Interleaved re-layout of `feature` for tree packs.
    pk_feature: Vec<u16>,
    /// Interleaved re-layout of `bin`.
    pk_bin: Vec<B>,
    /// Interleaved re-layout of `child` (indices into the pk arrays).
    pk_child: Vec<u32>,
    /// First slot of each pack; pack `p` holding `m` trees has its roots
    /// at slots `pack_start[p] .. pack_start[p] + m`.
    pack_start: Vec<u32>,
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
    /// Root node index of each tree in the sequential layout, in
    /// reference accumulation order.
    roots: Vec<u32>,
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

/// The flat arrays while trees are lowered one by one. `threshold` is the
/// only place the f64 thresholds exist after lowering; it is dropped once
/// [`QuantizedEnsemble::finish`] has turned it into cut indices.
struct Lowerer {
    n_features: usize,
    /// Values every leaf must hold (1 for GBT, `n_outputs` for forests).
    leaf_width: usize,
    feature: Vec<u16>,
    threshold: Vec<f64>,
    child: Vec<u32>,
    roots: Vec<u32>,
    leaves: Vec<f64>,
}

impl Lowerer {
    fn new<'a>(
        trees: impl Iterator<Item = &'a Tree>,
        n_features: usize,
        leaf_width: usize,
    ) -> Result<Self, MphpcError> {
        // Leaf slots read `binned[base + 0]`, so a row must hold one bin.
        if n_features == 0 || n_features > u16::MAX as usize {
            return Err(invalid(format!(
                "{n_features} features (supported: 1..=65535)"
            )));
        }
        let nodes: usize = trees.map(Tree::n_nodes).sum();
        Ok(Self {
            n_features,
            leaf_width,
            feature: Vec::with_capacity(nodes),
            threshold: Vec::with_capacity(nodes),
            child: Vec::with_capacity(nodes),
            roots: Vec::new(),
            leaves: Vec::new(),
        })
    }

    fn push_placeholder(&mut self) {
        self.feature.push(0);
        self.threshold.push(0.0);
        self.child.push(LEAF_BIT);
    }

    /// Emit tree number `t` breadth-first (children adjacent, left first)
    /// and record its root. Leaf values are multiplied by `leaf_scale` as
    /// they enter the arena. Iterative, so a chain-shaped tree cannot
    /// overflow the stack; every source node is emitted at most once, so
    /// a cyclic or shared-child "tree" is an error, not an endless loop.
    fn lower(&mut self, t: usize, tree: &Tree, leaf_scale: f64) -> Result<(), MphpcError> {
        let n = tree.nodes.len();
        if n == 0 {
            return Err(invalid(format!("tree {t} has no nodes")));
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let root = self.child.len();
        self.push_placeholder();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::from([(0, root)]);
        while let Some((src, dst)) = queue.pop_front() {
            match &tree.nodes[src] {
                Node::Leaf(values) => {
                    if values.len() != self.leaf_width {
                        return Err(invalid(format!(
                            "tree {t} node {src}: leaf holds {} values, expected {}",
                            values.len(),
                            self.leaf_width
                        )));
                    }
                    let off = self.leaves.len();
                    if off + values.len() > LEAF_BIT as usize {
                        return Err(invalid("leaf arena exceeds 2^31 values"));
                    }
                    self.leaves.extend(values.iter().map(|v| v * leaf_scale));
                    self.child[dst] = LEAF_BIT | off as u32;
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
                        if std::mem::replace(&mut seen[c], true) {
                            return Err(invalid(format!(
                                "tree {t} node {src}: {side} child {c} is reached twice \
                                 (cycle or shared subtree)"
                            )));
                        }
                    }
                    let l = self.child.len();
                    if l + 2 > LEAF_BIT as usize {
                        return Err(invalid("node count exceeds 2^31"));
                    }
                    self.push_placeholder();
                    self.push_placeholder();
                    self.feature[dst] = *feature as u16;
                    self.threshold[dst] = *threshold;
                    self.child[dst] = l as u32;
                    queue.push_back((*left, l));
                    queue.push_back((*right, l + 1));
                }
            }
        }
        self.roots.push(root as u32);
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
        let mut lowerer = Lowerer::new(boosters.iter().flatten(), n_features, 1)?;
        let mut cols = Vec::new();
        for (j, chain) in boosters.iter().enumerate() {
            for tree in chain {
                lowerer.lower(cols.len(), tree, learning_rate)?;
                cols.push(j as u32);
            }
        }
        Self::finish(
            lowerer,
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
        let mut lowerer = Lowerer::new(trees.iter(), n_features, n_outputs)?;
        for (t, tree) in trees.iter().enumerate() {
            lowerer.lower(t, tree, 1.0)?;
        }
        Self::finish(
            lowerer,
            LeafLayout::Vector,
            vec![0.0; n_outputs],
            1.0 / trees.len() as f64,
        )
    }

    /// Derive the per-feature cuts from the lowered thresholds, quantize
    /// the nodes at the narrowest id width that fits and build the pack
    /// layout.
    fn finish(
        l: Lowerer,
        layout: LeafLayout,
        base: Vec<f64>,
        scale: f64,
    ) -> Result<Self, MphpcError> {
        let mut cuts: Vec<Vec<f64>> = vec![Vec::new(); l.n_features];
        for (i, &c) in l.child.iter().enumerate() {
            if c & LEAF_BIT == 0 {
                cuts[l.feature[i] as usize].push(l.threshold[i]);
            }
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
            Nodes::U8(Engine::build(
                l.feature,
                &l.threshold,
                l.child,
                &l.roots,
                &cuts,
            ))
        } else {
            Nodes::U16(Engine::build(
                l.feature,
                &l.threshold,
                l.child,
                &l.roots,
                &cuts,
            ))
        };
        let engine = Self {
            n_outputs: base.len(),
            n_features: l.n_features,
            cuts,
            roots: l.roots,
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
        self.roots.len()
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

    /// Bytes held by node arrays (sequential + interleaved layouts).
    pub fn node_bytes(&self) -> usize {
        match &self.nodes {
            Nodes::U8(e) => e.node_bytes(),
            Nodes::U16(e) => e.node_bytes(),
        }
    }

    /// Bytes held by the leaf arena.
    pub fn leaf_bytes(&self) -> usize {
        self.leaves.len() * std::mem::size_of::<f64>()
    }

    /// Predict the `n × n_outputs` target matrix for `n` feature rows.
    ///
    /// Rows below [`LANES`] take the interleaved single-row path (no
    /// parallel dispatch, packs of trees walked in lockstep); larger
    /// batches run the blocked lane kernel, parallelised over
    /// [`BLOCK_ROWS`]-row blocks. Output is bit-identical to the
    /// reference traversal at any thread count.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let k = self.n_outputs;
        let mut out = Matrix::zeros(x.rows(), k);
        if k == 0 || x.rows() == 0 {
            return out;
        }
        assert_eq!(x.cols(), self.n_features, "feature count mismatch");
        let _span = mphpc_telemetry::span!(
            "quantized.predict",
            rows = x.rows(),
            trees = self.roots.len()
        );
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
    /// above every node bin, reproducing the reference "NaN goes right").
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
        let mut leaf_off = [0u32; BLOCK_ROWS];
        for (t, &root) in self.roots.iter().enumerate() {
            let mut r = 0;
            while r < n {
                let lanes = (n - r).min(LANES);
                // Tail lanes re-walk the last valid row: harmless, and it
                // keeps the kernel a single branchless shape.
                let mut bases = [0usize; LANES];
                for (l, b) in bases.iter_mut().enumerate() {
                    *b = (r + l.min(lanes - 1)) * p;
                }
                let offs = e.walk_seq(&binned, &bases, root);
                leaf_off[r..r + lanes].copy_from_slice(&offs[..lanes]);
                r += lanes;
            }
            self.accumulate_tree(t, &leaf_off[..n], out);
        }
        if self.scale != 1.0 {
            for o in out.iter_mut() {
                *o *= self.scale;
            }
        }
    }

    /// Single-row prediction over the interleaved pack layout.
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
        for (pi, pack) in self.roots.chunks(LANES).enumerate() {
            let offs = e.walk_pack(binned, pi, pack.len());
            for (l, &off) in offs[..pack.len()].iter().enumerate() {
                self.accumulate_tree(pi * LANES + l, std::slice::from_ref(&off), out);
            }
        }
        if self.scale != 1.0 {
            for o in out.iter_mut() {
                *o *= self.scale;
            }
        }
    }

    /// Add tree `t`'s leaf contributions (`offs[r]` per output row) to
    /// `out`, preserving the reference accumulation order.
    fn accumulate_tree(&self, t: usize, offs: &[u32], out: &mut [f64]) {
        let k = self.n_outputs;
        match &self.layout {
            LeafLayout::ScalarPerTree(cols) => {
                let j = cols[t] as usize;
                for (row_out, &off) in out.chunks_exact_mut(k).zip(offs) {
                    row_out[j] += self.leaves[off as usize];
                }
            }
            LeafLayout::Vector => {
                for (row_out, &off) in out.chunks_exact_mut(k).zip(offs) {
                    let leaf = &self.leaves[off as usize..off as usize + k];
                    for (o, &v) in row_out.iter_mut().zip(leaf) {
                        *o += v;
                    }
                }
            }
        }
    }
}

impl<B: BinId> Engine<B> {
    /// Quantize the lowered nodes' thresholds against `cuts` and build
    /// the interleaved pack layout.
    fn build(
        feature: Vec<u16>,
        threshold: &[f64],
        child: Vec<u32>,
        roots: &[u32],
        cuts: &[Vec<f64>],
    ) -> Self {
        let n = child.len();
        let mut bin = vec![B::ZERO; n];
        for i in 0..n {
            if child[i] & LEAF_BIT == 0 {
                let j = cuts[feature[i] as usize]
                    .binary_search_by(|probe| {
                        probe.partial_cmp(&threshold[i]).expect("cuts are finite")
                    })
                    .expect("every split threshold is one of its feature's cuts");
                bin[i] = B::from_usize(j);
            }
        }
        // Interleaved packing: one BFS per pack, seeded with all of the
        // pack's roots, so slot order is "level 0 of every pack tree,
        // then level 1 of every pack tree, ...". `src[slot]` remembers
        // which sequential node each packed slot mirrors.
        let mut src: Vec<u32> = Vec::with_capacity(n);
        let mut pk_child: Vec<u32> = Vec::with_capacity(n);
        let mut pack_start = Vec::with_capacity(roots.len().div_ceil(LANES));
        for pack in roots.chunks(LANES) {
            pack_start.push(src.len() as u32);
            let mut head = src.len();
            src.extend_from_slice(pack);
            pk_child.resize(src.len(), 0);
            while head < src.len() {
                let cc = child[src[head] as usize];
                if cc & LEAF_BIT != 0 {
                    pk_child[head] = cc;
                } else {
                    let slot = src.len() as u32;
                    pk_child[head] = slot;
                    src.push(cc);
                    src.push(cc + 1);
                    pk_child.resize(src.len(), 0);
                }
                head += 1;
            }
        }
        debug_assert_eq!(src.len(), n);
        let mut pk_feature = vec![0u16; n];
        let mut pk_bin = vec![B::ZERO; n];
        for (slot, &s) in src.iter().enumerate() {
            pk_feature[slot] = feature[s as usize];
            pk_bin[slot] = bin[s as usize];
        }
        Self {
            feature,
            bin,
            child,
            pk_feature,
            pk_bin,
            pk_child,
            pack_start,
        }
    }

    fn node_bytes(&self) -> usize {
        let per_node =
            std::mem::size_of::<u16>() + std::mem::size_of::<B>() + std::mem::size_of::<u32>();
        2 * self.child.len() * per_node + self.pack_start.len() * std::mem::size_of::<u32>()
    }

    /// Walk up to [`LANES`] rows through one sequential-layout tree in
    /// lockstep. `bases[l]` is lane `l`'s offset into `binned`.
    #[inline]
    fn walk_seq(&self, binned: &[B], bases: &[usize; LANES], root: u32) -> [u32; LANES] {
        walk(
            &self.feature,
            &self.bin,
            &self.child,
            binned,
            bases,
            [root; LANES],
        )
    }

    /// Walk one row through pack `pi` (holding `lanes` trees) of the
    /// interleaved layout, all trees in lockstep.
    #[inline]
    fn walk_pack(&self, binned: &[B], pi: usize, lanes: usize) -> [u32; LANES] {
        let start = self.pack_start[pi];
        let mut roots = [start; LANES];
        for (l, r) in roots.iter_mut().enumerate() {
            // Tail lanes re-walk the pack's last tree; their result is
            // ignored by the caller.
            *r = start + l.min(lanes - 1) as u32;
        }
        walk(
            &self.pk_feature,
            &self.pk_bin,
            &self.pk_child,
            binned,
            &[0usize; LANES],
            roots,
        )
    }
}

/// The branchless lockstep kernel shared by both layouts: every lane
/// either steps to `child + go_right` (internal node) or stays put
/// (leaf), selected by mask arithmetic; the loop exits once every lane
/// sits on a leaf. Returns each lane's leaf-arena offset.
#[inline]
fn walk<B: BinId>(
    feature: &[u16],
    bin: &[B],
    child: &[u32],
    binned: &[B],
    bases: &[usize; LANES],
    mut idx: [u32; LANES],
) -> [u32; LANES] {
    loop {
        let mut active = 0u32;
        for (i, &base) in idx.iter_mut().zip(bases) {
            let cur = *i as usize;
            // SAFETY: builder invariants, checked by `Lowerer::lower` for
            // every tree — node indices (roots and child links) are < the
            // array length, `feature[cur] < n_features` with
            // `n_features >= 1`, and `base + n_features <= binned.len()`;
            // all arrays are the same length by construction.
            let c = unsafe { *child.get_unchecked(cur) };
            let internal = u32::from(c & LEAF_BIT == 0);
            let f = unsafe { *feature.get_unchecked(cur) } as usize;
            let rb = unsafe { *binned.get_unchecked(base + f) };
            let nb = unsafe { *bin.get_unchecked(cur) };
            let go_right = u32::from(rb > nb);
            let step_mask = internal.wrapping_neg();
            *i = ((c.wrapping_add(go_right)) & step_mask) | (*i & !step_mask);
            active |= internal;
        }
        if active == 0 {
            break;
        }
    }
    let mut offs = [0u32; LANES];
    for (o, &i) in offs.iter_mut().zip(&idx) {
        *o = child[i as usize] & !LEAF_BIT;
    }
    offs
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
        // A right-leaning chain with 300 distinct thresholds on one
        // feature: exceeds u8 bins, must select the u16 engine and stay
        // exact.
        let depth = 300usize;
        let mut nodes = Vec::with_capacity(2 * depth + 1);
        for i in 0..depth {
            let right = if i + 1 < depth { i + 1 } else { depth };
            nodes.push(split(0, i as f64, depth + 1 + i, right));
        }
        nodes.push(Node::Leaf(vec![-1.0]));
        for i in 0..depth {
            nodes.push(Node::Leaf(vec![i as f64]));
        }
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 8.3 - 10.0]).collect();
        assert_eq!(probe(&Tree { nodes }, 1, &rows).bin_bits(), 16);
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
        match &q.nodes {
            Nodes::U8(e) => {
                assert_eq!(e.pack_start, vec![0]);
                // Roots first (slots 0..3, all splits), then the six
                // leaves level-interleaved behind them.
                for slot in 0..3 {
                    assert_eq!(
                        e.pk_child[slot] & LEAF_BIT,
                        0,
                        "slot {slot} is a root split"
                    );
                }
                for slot in 3..9 {
                    assert_ne!(e.pk_child[slot] & LEAF_BIT, 0, "slot {slot} is a leaf");
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
