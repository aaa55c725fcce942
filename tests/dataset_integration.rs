//! Dataset-level integration: the MP-HPC table's invariants across the
//! profiler, feature-derivation, and split layers.

use mphpc_core::prelude::*;
use mphpc_dataset::split::{app_split, arch_split, random_split, scale_split};
use mphpc_dataset::{FEATURE_NAMES, TARGET_NAMES};

/// FNV-1a of the CSV of a three-app trace-driven campaign, recorded from the
/// reference-by-reference cache walk that `archsim::cache`'s stack-distance
/// walk replaced (DESIGN.md §18) and never edited since. Like `tests/golden`,
/// it is tied to `StdRng`'s stream.
const CAMPAIGN_CSV_FNV1A: u64 = 0xf6fb_eaf4_7aa6_f8c2;

#[test]
fn campaign_csv_bytes_are_pinned() {
    let all = AppKind::ALL;
    let config = CollectionConfig {
        apps: Some((0..3).map(|i| all[i * all.len() / 3]).collect()),
        inputs_per_app: Some(1),
        reps: 1,
        seed: 2024,
    };
    let csv = mphpc_frame::write_csv_string(&collect(&config).expect("collection").frame);
    let hash = csv.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(hash, CAMPAIGN_CSV_FNV1A, "found {hash:#018x}");
}

fn dataset() -> MpHpcDataset {
    collect(&CollectionConfig::small(5, 2, 2, 808)).expect("collection")
}

#[test]
fn feature_columns_match_table3_contract() {
    let d = dataset();
    assert_eq!(FEATURE_NAMES.len(), 21, "paper: 21 columns");
    for name in FEATURE_NAMES {
        assert!(d.frame.has_column(name), "missing feature {name}");
    }
    for name in TARGET_NAMES {
        assert!(d.frame.has_column(name), "missing target {name}");
    }
    // Intensity features are ratios; one-hot columns are 0/1 and exactly
    // one is hot per row.
    for i in 0..d.n_rows() {
        for name in FEATURE_NAMES.iter().take(6) {
            let v = d.frame.f64_at(name, i).unwrap();
            assert!((0.0..=1.0).contains(&v), "{name}={v} at row {i}");
        }
        let hot: f64 = FEATURE_NAMES[17..21]
            .iter()
            .map(|n| d.frame.f64_at(n, i).unwrap())
            .sum();
        assert_eq!(hot, 1.0, "one-hot arch must have exactly one 1");
    }
}

#[test]
fn rpv_targets_are_consistent_with_paired_runtimes() {
    let d = dataset();
    for i in 0..d.n_rows() {
        let own = d.frame.f64_at("runtime", i).unwrap();
        assert!(own > 0.0);
        let arch = d.frame.str_at("arch", i).unwrap().to_string();
        let self_col = format!("rpv_{}", arch.to_lowercase());
        assert!((d.frame.f64_at(&self_col, i).unwrap() - 1.0).abs() < 1e-12);
        for sys in SystemId::TABLE1 {
            let rpv = d
                .frame
                .f64_at(&format!("rpv_{}", sys.name().to_lowercase()), i)
                .unwrap();
            let t = d.runtime_on(i, sys).unwrap();
            assert!((rpv - t / own).abs() < 1e-9);
        }
    }
}

#[test]
fn corona_gpu_rows_have_imputed_intensities() {
    // GPU-capable apps profiled on Corona lose their instruction-class
    // counters (Table III "–" cells) — the features must be exactly zero.
    let d = dataset();
    let mut checked = 0;
    for i in 0..d.n_rows() {
        let is_corona = d.frame.str_at("arch", i).unwrap() == "Corona";
        let uses_gpu = d.frame.f64_at("uses_gpu", i).unwrap() == 1.0;
        if is_corona && uses_gpu {
            assert_eq!(d.frame.f64_at("branch_intensity", i).unwrap(), 0.0);
            assert_eq!(d.frame.f64_at("fp64_intensity", i).unwrap(), 0.0);
            // But L2 misses exist (TCC counters).
            assert!(d.frame.f64_at("l2_load_misses", i).unwrap() > 0.0);
            checked += 1;
        }
    }
    assert!(checked > 0, "need Corona GPU rows in the sample");
}

#[test]
fn splits_cover_and_partition() {
    let d = dataset();
    let n = d.n_rows();

    let (tr, te) = random_split(&d, 0.1, 3).unwrap();
    assert_eq!(tr.len() + te.len(), n);

    for sys in SystemId::TABLE1 {
        let (tr, te) = arch_split(&d, sys, 0.2, 3).unwrap();
        assert_eq!(tr.len() + te.len(), d.rows_for_arch(sys).unwrap().len());
    }

    let mut total = 0;
    for scale in Scale::ALL {
        let (_, te) = scale_split(&d, scale).unwrap();
        total += te.len();
    }
    assert_eq!(total, n, "scales partition the dataset");

    let (_, amg) = app_split(&d, "AMG").unwrap();
    assert_eq!(amg.len(), 2 * 3 * 4 * 2);
}

#[test]
fn normalizer_fit_on_train_only_is_applied_consistently() {
    let d = dataset();
    let (train_rows, test_rows) = random_split(&d, 0.2, 9).unwrap();
    let norm = d.fit_normalizer(&train_rows).unwrap();
    let train = d.to_ml(&train_rows, &norm).unwrap();
    let test = d.to_ml(&test_rows, &norm).unwrap();
    assert_eq!(train.n_features(), 21);
    assert_eq!(test.n_outputs(), 4);
    // Train-side z-scored feature has ~zero mean; test side need not.
    let idx = FEATURE_NAMES
        .iter()
        .position(|&n| n == "l2_load_misses")
        .unwrap();
    let col = train.x.col(idx);
    let mean = col.iter().sum::<f64>() / col.len() as f64;
    assert!(mean.abs() < 1e-6);
}

#[test]
fn csv_round_trip_preserves_ml_view() {
    let d = dataset();
    let path = std::env::temp_dir().join("mphpc_integration_roundtrip.csv");
    d.write_csv(&path).unwrap();
    let back = MpHpcDataset::read_csv(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let rows = d.all_rows();
    let norm = d.fit_normalizer(&rows).unwrap();
    let a = d.to_ml(&rows, &norm).unwrap();
    let b = back
        .to_ml(&rows, &back.fit_normalizer(&rows).unwrap())
        .unwrap();
    assert_eq!(a.x.rows(), b.x.rows());
    for i in (0..a.n_samples()).step_by(11) {
        for j in 0..a.n_features() {
            let (x, y) = (a.x.get(i, j), b.x.get(i, j));
            assert!(
                (x - y).abs() <= 1e-12 * (1.0 + x.abs()),
                "row {i} feature {j}: {x} vs {y}"
            );
        }
    }
}
