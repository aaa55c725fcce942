//! Both tree ensembles report their fits through the same telemetry names.
//!
//! The binned view and the tree grower are shared, so `ml.binning.rows`,
//! `ml.tree.nodes` and `ml.tree.leaves` come from one place; each family
//! adds only its own fit span. Telemetry mode is process-global, hence one
//! `#[test]` in a file of its own.

use mphpc_ml::{ForestParams, ForestRegressor, GbtParams, GbtRegressor, Matrix, MlDataset};
use mphpc_telemetry::TelemetryMode;

fn counter(name: &str) -> u64 {
    mphpc_telemetry::capture().counter(name).unwrap_or(0)
}

#[test]
fn forest_and_gbt_fits_emit_the_shared_counters() {
    let (n, p) = (200usize, 3usize);
    let mut x = Matrix::zeros(n, p);
    let mut y = Matrix::zeros(n, 1);
    for i in 0..n {
        for j in 0..p {
            x.set(i, j, ((i * (j + 3)) % 17) as f64);
        }
        y.set(i, 0, x.get(i, 0) - 0.5 * x.get(i, 2));
    }
    let data = MlDataset::new(x, y, (0..p).map(|j| format!("f{j}")).collect()).unwrap();
    let forest_params = ForestParams {
        n_trees: 4,
        ..ForestParams::default()
    };
    let gbt_params = GbtParams {
        n_rounds: 4,
        ..GbtParams::default()
    };

    let fit_forest = || drop(ForestRegressor::fit(&data, forest_params).unwrap());
    let fit_gbt = || drop(GbtRegressor::fit(&data, gbt_params).unwrap());
    let families: [(&str, &dyn Fn()); 2] = [("forest.fit", &fit_forest), ("gbt.fit", &fit_gbt)];

    mphpc_telemetry::set_mode(TelemetryMode::Trace);
    for (family, fit) in families {
        mphpc_telemetry::reset();
        fit();
        let report = mphpc_telemetry::capture();
        assert!(
            report.spans().iter().any(|s| s.name == family),
            "{family} span missing"
        );
        assert_eq!(counter("ml.binning.rows"), (n * p) as u64, "{family}");
        let (nodes, leaves) = (counter("ml.tree.nodes"), counter("ml.tree.leaves"));
        // Four binary trees: every split adds two nodes and one leaf.
        assert!(leaves > 4, "{family} grew no splits");
        assert_eq!(nodes, 2 * leaves - 4, "{family}");
    }
    mphpc_telemetry::set_mode(TelemetryMode::Off);
    mphpc_telemetry::reset();
}
