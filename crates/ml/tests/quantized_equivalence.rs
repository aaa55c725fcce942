//! Quantized-engine equivalence: the bin-indexed integer engine behind
//! `predict` must be **bit-identical** to the reference per-row enum-tree
//! traversal — for GBT and forest, at 1/2/8 worker threads, across single
//! rows, lane-partial batches, multi-block batches, NaN/±inf probes,
//! degenerate constant-feature training sets, hand-made packs of trees of
//! very unequal depth and features at the u8/u16 bin limits — and
//! structurally invalid model JSON must be refused at load.

use mphpc_ml::tree::{Node, Tree};
use mphpc_ml::{
    ForestParams, ForestRegressor, GbtParams, GbtRegressor, Matrix, MlDataset, ModelKind,
    Regressor, TrainedModel, TreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic(n: usize, p: usize, k: usize, seed: u64) -> MlDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, p);
    let mut y = Matrix::zeros(n, k);
    for i in 0..n {
        for j in 0..p {
            x.set(i, j, rng.gen_range(-1.0..1.0));
        }
        for j in 0..k {
            let v =
                x.get(i, j % p) * 2.0 + x.get(i, (j + 1) % p).powi(2) + rng.gen_range(-0.01..0.01);
            y.set(i, j, v);
        }
    }
    MlDataset::new(x, y, (0..p).map(|j| format!("f{j}")).collect()).unwrap()
}

fn small_gbt() -> GbtParams {
    GbtParams {
        n_rounds: 10,
        tree: TreeParams {
            max_depth: 4,
            ..TreeParams::default()
        },
        ..GbtParams::default()
    }
}

fn small_forest() -> ForestParams {
    ForestParams {
        n_trees: 24,
        ..ForestParams::default()
    }
}

/// Probe batch: ordinary rows plus non-finite edge cases. NaN must route
/// right at every split it reaches (the reference's `!(v <= t)`), and
/// ±inf must pin to the extreme bins.
fn probe_rows(p: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..p).map(|_| rng.gen_range(-1.5..1.5)).collect())
        .collect();
    if !rows.is_empty() {
        rows[0][0] = f64::NAN;
    }
    if rows.len() > 1 {
        rows[1] = vec![f64::NAN; p];
    }
    if rows.len() > 2 {
        rows[2][p - 1] = f64::INFINITY;
        rows[2][0] = f64::NEG_INFINITY;
    }
    rows
}

/// The whole thread sweep lives in one `#[test]` so the global override
/// never races a sibling test (same pattern as `determinism.rs`).
#[test]
fn quantized_is_bit_identical_to_reference_at_all_thread_counts() {
    let train = synthetic(700, 6, 2, 11);
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let forest = ForestRegressor::fit(&train, small_forest()).unwrap();

    // 1 row (interleaved single-row path), lane-partial (< 8), exactly
    // one lane group, one block (64), block+tail, and a multi-block
    // batch that spans the parallel chunking.
    for rows in [1usize, 3, 8, 64, 77, 517] {
        let x = Matrix::from_rows(&probe_rows(6, rows, 200 + rows as u64));
        let gbt_ref = gbt.predict_reference(&x).unwrap();
        let forest_ref = forest.predict_reference(&x).unwrap();
        for threads in [1usize, 2, 8] {
            mphpc_par::set_thread_override(Some(threads));
            assert_eq!(
                gbt.predict(&x).unwrap(),
                gbt_ref,
                "quantized gbt rows={rows} threads={threads}"
            );
            assert_eq!(
                forest.predict(&x).unwrap(),
                forest_ref,
                "quantized forest rows={rows} threads={threads}"
            );
        }
        mphpc_par::set_thread_override(None);
    }
}

#[test]
fn single_row_path_agrees_with_batch_path() {
    let train = synthetic(500, 5, 2, 13);
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let forest = ForestRegressor::fit(&train, small_forest()).unwrap();
    let rows = probe_rows(5, 96, 17);
    let batch = Matrix::from_rows(&rows);
    let gbt_batch = gbt.predict(&batch).unwrap();
    let forest_batch = forest.predict(&batch).unwrap();
    for (i, row) in rows.iter().enumerate() {
        let one = Matrix::from_rows(std::slice::from_ref(row));
        let g = gbt.predict(&one).unwrap();
        let f = forest.predict(&one).unwrap();
        for j in 0..g.cols() {
            assert_eq!(g.get(0, j), gbt_batch.get(i, j), "gbt row {i} out {j}");
            assert_eq!(
                f.get(0, j),
                forest_batch.get(i, j),
                "forest row {i} out {j}"
            );
        }
    }
}

#[test]
fn degenerate_constant_features_still_exact() {
    // Every feature constant: no split can separate anything, so trees
    // collapse to leaves and the quantized engine has zero cuts on every
    // feature. Predictions (the target mean / boosted base) must still be
    // bit-identical, including on NaN probes.
    let n = 80;
    let x = Matrix::from_rows(&vec![vec![2.5, -1.0, 0.0]; n]);
    let mut y = Matrix::zeros(n, 2);
    for i in 0..n {
        y.set(i, 0, 3.0);
        y.set(i, 1, -1.5);
    }
    let names = vec!["a".into(), "b".into(), "c".into()];
    let train = MlDataset::new(x, y, names).unwrap();
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let forest = ForestRegressor::fit(&train, small_forest()).unwrap();

    let probes = vec![
        vec![2.5, -1.0, 0.0],
        vec![9.0, 9.0, 9.0],
        vec![f64::NAN, f64::NAN, f64::NAN],
    ];
    let px = Matrix::from_rows(&probes);
    assert_eq!(
        gbt.predict(&px).unwrap(),
        gbt.predict_reference(&px).unwrap()
    );
    assert_eq!(
        forest.predict(&px).unwrap(),
        forest.predict_reference(&px).unwrap()
    );

    // Mixed case: one informative feature among constants (single cut).
    let mut x = Matrix::zeros(n, 3);
    let mut y = Matrix::zeros(n, 1);
    for i in 0..n {
        x.set(i, 0, 1.0);
        x.set(i, 1, if i % 2 == 0 { -1.0 } else { 1.0 });
        x.set(i, 2, 42.0);
        y.set(i, 0, if i % 2 == 0 { 0.0 } else { 10.0 });
    }
    let names = vec!["a".into(), "b".into(), "c".into()];
    let train = MlDataset::new(x, y, names).unwrap();
    let gbt = GbtRegressor::fit(&train, small_gbt()).unwrap();
    let px = Matrix::from_rows(&probe_rows(3, 33, 23));
    assert_eq!(
        gbt.predict(&px).unwrap(),
        gbt.predict_reference(&px).unwrap()
    );
}

/// JSON round-trip: a deserialized model has an empty engine cache, so
/// loading lowers the stored trees again — and must reproduce the
/// original bit-for-bit, both through `TrainedModel::from_json` (lowers
/// at load) and through plain serde (lowers on first `predict`).
#[test]
fn json_round_trip_rebuilds_identical_quantized_engine() {
    let train = synthetic(400, 5, 2, 29);
    let probe = Matrix::from_rows(&probe_rows(5, 40, 31));
    for kind in [
        ModelKind::Gbt(small_gbt()),
        ModelKind::Forest(small_forest()),
    ] {
        let model = kind.fit(&train).unwrap();
        let expected = model.predict_reference(&probe).unwrap();
        assert_eq!(model.predict(&probe).unwrap(), expected);
        let json = model.to_json().unwrap();
        let revived = TrainedModel::from_json(&json).unwrap();
        let lazy: TrainedModel = serde_json::from_str(&json).unwrap();
        for (how, back) in [("from_json", revived), ("serde", lazy)] {
            assert_eq!(
                back.predict(&probe).unwrap(),
                expected,
                "{} after JSON round-trip via {how}",
                kind.name()
            );
        }
    }
}

/// A forest of hand-made trees over `p` features and one output, loaded
/// the way model JSON from outside the process is: a fitted forest's
/// export with its `trees` array replaced.
fn forest_of(trees: &[Tree], p: usize) -> TrainedModel {
    let fitted = ModelKind::Forest(ForestParams {
        n_trees: 1,
        ..ForestParams::default()
    })
    .fit(&synthetic(60, p, 1, 5))
    .unwrap();
    let json = fitted.to_json().unwrap();
    let start = json.find("\"trees\":").expect("forest export has trees") + "\"trees\":".len();
    let mut depth = 0;
    let end = start
        + json[start..]
            .char_indices()
            .find_map(|(i, c)| {
                depth += i32::from(c == '[') - i32::from(c == ']');
                (depth == 0).then_some(i + 1)
            })
            .expect("balanced trees array");
    let trees = serde_json::to_string(trees).unwrap();
    TrainedModel::from_json(&format!("{}{trees}{}", &json[..start], &json[end..])).unwrap()
}

fn leaf(v: f64) -> Node {
    Node::Leaf(vec![v])
}

/// A chain of `depth` splits on feature 0 over the thresholds
/// `0, 1, ..., depth - 1`. Leaning right, larger values go deeper (split
/// `i` at threshold `i`); leaning left, smaller ones do (split `i` at
/// `depth - 1 - i`), so NaN and +inf leave at the first split.
fn chain(depth: usize, lean_right: bool) -> Tree {
    let mut nodes = Vec::with_capacity(2 * depth + 1);
    for i in 0..depth {
        let (next, off) = (i + 1, depth + 1 + i);
        let (left, right, threshold) = if lean_right {
            (off, next, i)
        } else {
            (next, off, depth - 1 - i)
        };
        nodes.push(Node::Split {
            feature: 0,
            threshold: threshold as f64,
            left,
            right,
        });
    }
    nodes.push(leaf(-1.0));
    nodes.extend((0..depth).map(|i| leaf(i as f64 + 0.25)));
    Tree { nodes }
}

/// A complete tree of `depth` levels in heap order, splitting on random
/// features at thresholds on a 1/8 grid in [-1, 1], distinct leaves.
fn full(depth: u32, p: usize, rng: &mut StdRng) -> Tree {
    let internal = (1usize << depth) - 1;
    let nodes = (0..2 * internal + 1)
        .map(|i| {
            if i < internal {
                Node::Split {
                    feature: rng.gen_range(0..p),
                    threshold: f64::from(rng.gen_range(-8i32..=8)) / 8.0,
                    left: 2 * i + 1,
                    right: 2 * i + 2,
                }
            } else {
                leaf(rng.gen_range(-100.0..100.0))
            }
        })
        .collect();
    Tree { nodes }
}

/// Batch (tiled to at least one full lane group) and single-row
/// predictions equal `predict_reference` bit for bit.
fn assert_exact(model: &TrainedModel, rows: &[Vec<f64>], what: &str) {
    let tiled: Vec<Vec<f64>> = rows
        .iter()
        .cycle()
        .take(rows.len().max(8) + 67)
        .cloned()
        .collect();
    let x = Matrix::from_rows(&tiled);
    let want = model.predict_reference(&x).unwrap();
    assert_eq!(model.predict(&x).unwrap(), want, "{what}: batch");
    for (i, row) in rows.iter().enumerate() {
        let one = model
            .predict(&Matrix::from_rows(std::slice::from_ref(row)))
            .unwrap();
        assert_eq!(one.row(0), want.row(i), "{what}: single row {row:?}");
    }
}

fn bin_bits(model: &TrainedModel) -> u32 {
    match model {
        TrainedModel::Forest(m) => m.quantized().unwrap().bin_bits(),
        _ => unreachable!("forest_of builds forests"),
    }
}

/// Every walk runs its tree's depth (batch) or its pack's largest depth
/// (single row): rows that reach a shallow leaf early must stay on it, and
/// a 300-deep chain must be walked to its end.
#[test]
fn a_pack_mixing_a_leaf_a_deep_chain_and_full_trees_is_exact() {
    let p = 3;
    let mut rng = StdRng::seed_from_u64(41);
    // Pack 0: a one-leaf tree, a 300-deep chain and six full depth-9
    // trees. Pack 1 (partial): a one-leaf tree, a 40-deep left chain and
    // a full depth-5 tree.
    let mut trees = vec![
        Tree {
            nodes: vec![leaf(3.5)],
        },
        chain(300, true),
    ];
    trees.extend((0..6).map(|_| full(9, p, &mut rng)));
    trees.extend([
        Tree {
            nodes: vec![leaf(-2.0)],
        },
        chain(40, false),
        full(5, p, &mut rng),
    ]);
    let model = forest_of(&trees, p);
    let mut rows: Vec<Vec<f64>> = (0..120)
        .map(|_| {
            vec![
                rng.gen_range(-5.0..310.0),
                rng.gen_range(-1.2..1.2),
                rng.gen_range(-1.2..1.2),
            ]
        })
        .collect();
    rows.extend([
        vec![299.5, 0.0, 0.0],
        vec![1e9, 1.0, -1.0],
        vec![f64::NAN, 0.5, 0.5],
        vec![f64::INFINITY, f64::NAN, f64::NEG_INFINITY],
        vec![f64::NEG_INFINITY, 0.125, -0.125],
    ]);
    assert_exact(&model, &rows, "mixed pack");
}

/// At 255 cuts the u8 engine's NaN sentinel equals the leaf bin
/// (`u8::MAX`); at 256 the u16 engine takes over. NaN and +inf leave the
/// left-leaning chain at its first split and must stay on that leaf for
/// the rest of the walk.
#[test]
fn nan_and_infinities_at_the_u8_and_u16_bin_limits() {
    for (cuts, bits) in [(255, 8), (256, 16)] {
        let trees = [
            chain(cuts, true),
            chain(cuts, false),
            Tree {
                nodes: vec![leaf(1.0)],
            },
        ];
        let model = forest_of(&trees, 2);
        assert_eq!(bin_bits(&model), bits, "{cuts} cuts");
        let top = cuts as f64;
        let rows: Vec<Vec<f64>> = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            top,
            top - 1.0,
            top - 1.5,
            0.0,
            -0.5,
            127.0,
            f64::MAX,
        ]
        .iter()
        .flat_map(|&v| [vec![v, 0.0], vec![v, f64::NAN]])
        .collect();
        assert_exact(&model, &rows, &format!("{cuts} cuts"));
    }
}
