//! Pinned bytes of trained tree ensembles.
//!
//! `tests/determinism.rs` and `tests/warm_start.rs` prove a fit equals
//! *itself* across thread counts and continuations; nothing there notices
//! when every fit moves together. This hashes the serialized models of the
//! configurations that reach every policy branch of the tree grower —
//! row/column subsampling with an early-stopping holdout, the parallel
//! split search, bootstrap forests with a leaf-size floor, and a
//! `warm_start` continuation of each family — so a change to the grower
//! that alters one split, one leaf bit or one importance gain is loud.
//!
//! The constants were recorded from the two-loop grower this one replaced
//! (DESIGN.md §9) and, like `tests/golden`, are tied to `StdRng`'s stream.
//! Numbers are hashed by value (`f64::to_bits`), not by their text, so the
//! constants hold under any correct shortest-round-trip float rendering.

use mphpc_ml::hist::PAR_SPLIT_MIN_FEATURES;
use mphpc_ml::{
    ForestParams, ForestRegressor, GbtParams, GbtRegressor, Matrix, MlDataset, TreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PINNED_FNV1A: [(&str, u64); 5] = [
    ("gbt_narrow", 0xa238_1b69_f76b_f769),
    ("gbt_narrow_warm", 0x6321_3279_89c8_eea5),
    ("gbt_wide", 0x4daf_817e_0c24_b93d),
    ("forest", 0x6280_64f0_371b_c232),
    ("forest_warm", 0x9be0_e97d_6920_d979),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over a model's JSON text with every number token replaced by the
/// bits of the `f64` it parses to.
fn model_hash(model: &impl serde::Serialize) -> u64 {
    let json = serde_json::to_string(model).unwrap();
    let bytes = json.as_bytes();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        let b = bytes[i];
        let starts_number = !in_string && (b == b'-' || b.is_ascii_digit());
        if starts_number {
            let end = i + bytes[i..]
                .iter()
                .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                .unwrap_or(bytes.len() - i);
            let value: f64 = json[i..end].parse().expect("JSON number");
            fnv1a(&mut hash, &value.to_bits().to_le_bytes());
            i = end;
            continue;
        }
        if b == b'"' && (i == 0 || bytes[i - 1] != b'\\') {
            in_string = !in_string;
        }
        fnv1a(&mut hash, &[b]);
        i += 1;
    }
    hash
}

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
    // A few far-out rows, so some split peels off a child too small to
    // split again while its large sibling still inherits a histogram.
    for (i, sign) in [(0, 1.0), (1, 1.0), (2, 1.0), (3, -1.0)] {
        x.set(i, 0, 5.0 * sign);
        for j in 0..k {
            y.set(i, j, y.get(i, j) + 40.0 * sign);
        }
    }
    MlDataset::new(x, y, (0..p).map(|j| format!("f{j}")).collect()).unwrap()
}

#[test]
fn model_bytes_hash_is_pinned() {
    let narrow = synthetic(600, 6, 2, 41);
    let wide = synthetic(400, PAR_SPLIT_MIN_FEATURES + 16, 1, 43);
    let gbt_params = GbtParams {
        n_rounds: 12,
        subsample: 0.8,
        tree: TreeParams {
            max_depth: 4,
            colsample: 0.8,
            ..TreeParams::default()
        },
        ..GbtParams::default()
    };
    let forest_params = ForestParams {
        n_trees: 16,
        tree: TreeParams {
            colsample: 0.6,
            min_child_weight: 2.0,
            ..ForestParams::default().tree
        },
        ..ForestParams::default()
    };

    let gbt = GbtRegressor::fit(
        &narrow,
        GbtParams {
            n_rounds: 60,
            learning_rate: 0.5,
            early_stopping_rounds: Some(2),
            ..gbt_params
        },
    )
    .unwrap();
    let gbt_warm = gbt.warm_start(&narrow, 5).unwrap();
    let gbt_wide = GbtRegressor::fit(&wide, gbt_params).unwrap();
    let forest = ForestRegressor::fit(&narrow, forest_params).unwrap();
    let forest_warm = forest.warm_start(&narrow, 4).unwrap();

    let found = [
        ("gbt_narrow", model_hash(&gbt)),
        ("gbt_narrow_warm", model_hash(&gbt_warm)),
        ("gbt_wide", model_hash(&gbt_wide)),
        ("forest", model_hash(&forest)),
        ("forest_warm", model_hash(&forest_warm)),
    ];
    for (name, hash) in found {
        println!("pinned {name}: {hash:#018x}");
    }
    assert!(
        gbt.n_trees() < 2 * 60,
        "fixture must actually stop early ({} trees)",
        gbt.n_trees()
    );
    assert_eq!(found, PINNED_FNV1A, "trained model bytes changed");
}
