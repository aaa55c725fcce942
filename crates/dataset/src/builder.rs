//! Assembly of the final MP-HPC dataset table.

use crate::features::{derive_features, FEATURE_NAMES, TARGET_NAMES};
use crate::normalize::Normalizer;
use crate::rpv::relative_performance_vector;
use mphpc_archsim::SystemId;
use mphpc_errors::{MphpcError, ResultExt};
use mphpc_frame::{Column, Frame};
use mphpc_ml::{Matrix, MlDataset};
use mphpc_profiler::{profile_matrix, RawProfile};
use mphpc_workloads::{Application, RunSpec, Scale};
use std::collections::HashMap;

/// Which system an RPV is expressed relative to (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpvReference {
    /// Relative to the run's own (counter-source) system — the paper's
    /// modelling target.
    SelfSystem,
    /// Relative to the fastest system (`rpv(·,·,min)`), all elements ≥ 1.
    Min,
    /// Relative to the slowest system (`rpv(·,·,max)`), all elements ≤ 1.
    Max,
}

/// The assembled MP-HPC dataset: one row per profiled run, holding run
/// metadata, the 21 features, the 4-element RPV target, and the paired
/// runtimes on every system (kept for the scheduling simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct MpHpcDataset {
    /// Backing table. Columns: `app`, `input`, `scale`, `arch`, `rep`,
    /// `gpu_capable`, the 21 [`FEATURE_NAMES`], the 4 [`TARGET_NAMES`],
    /// `runtime`, and `runtime_<system>` for each Table-I system.
    pub frame: Frame,
    /// Number of run groups dropped because a system's profile was missing.
    pub incomplete_groups: usize,
}

impl MpHpcDataset {
    /// Number of rows (runs).
    pub fn n_rows(&self) -> usize {
        self.frame.n_rows()
    }

    /// All row indices.
    pub fn all_rows(&self) -> Vec<usize> {
        (0..self.n_rows()).collect()
    }

    /// Rows whose counters were collected on `system` (Fig. 3's
    /// per-source-architecture ablation).
    pub fn rows_for_arch(&self, system: SystemId) -> Result<Vec<usize>, MphpcError> {
        let col = self.str_column("arch")?;
        Ok((0..self.n_rows())
            .filter(|&i| col[i] == system.name())
            .collect())
    }

    /// Rows of one application (Fig. 5's leave-one-application-out).
    pub fn rows_for_app(&self, app_name: &str) -> Result<Vec<usize>, MphpcError> {
        let col = self.str_column("app")?;
        Ok((0..self.n_rows()).filter(|&i| col[i] == app_name).collect())
    }

    /// Rows at one run scale (Fig. 4's leave-one-scale-out).
    pub fn rows_for_scale(&self, scale: Scale) -> Result<Vec<usize>, MphpcError> {
        let col = self.str_column("scale")?;
        Ok((0..self.n_rows())
            .filter(|&i| col[i] == scale.label())
            .collect())
    }

    /// A string column of the backing frame, as a slice.
    pub(crate) fn str_column(&self, name: &'static str) -> Result<&[String], MphpcError> {
        let col = self.frame.column(name)?;
        Ok(col.as_str()?)
    }

    /// Fit a normaliser on the given (training) rows.
    pub fn fit_normalizer(&self, rows: &[usize]) -> Result<Normalizer, MphpcError> {
        Normalizer::fit(&self.frame, rows)
            .context("fitting the z-score normaliser on the training rows")
    }

    /// Materialise an [`MlDataset`] for the given rows, normalising the
    /// magnitude features with `normalizer`.
    pub fn to_ml(&self, rows: &[usize], normalizer: &Normalizer) -> Result<MlDataset, MphpcError> {
        let normalised = normalizer
            .apply(&self.frame)
            .context("normalising dataset features")?;
        let feature_refs: Vec<&str> = FEATURE_NAMES.to_vec();
        let (x_data, _, _) = normalised
            .take(rows)
            .context("selecting feature rows")?
            .to_matrix(&feature_refs)
            .context("materialising the feature matrix")?;
        let target_refs: Vec<&str> = TARGET_NAMES.to_vec();
        let (y_data, _, _) = self
            .frame
            .take(rows)
            .context("selecting target rows")?
            .to_matrix(&target_refs)
            .context("materialising the target matrix")?;
        MlDataset::new(
            Matrix::from_vec(x_data, rows.len(), FEATURE_NAMES.len()),
            Matrix::from_vec(y_data, rows.len(), TARGET_NAMES.len()),
            FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        )
        .context("assembling the ML dataset")
    }

    /// Materialise an [`MlDataset`] with targets re-normalised to a
    /// different RPV reference (§IV also defines `rpv(·,·,min)` and
    /// `rpv(·,·,max)`; the default targets are self-relative).
    pub fn to_ml_with_reference(
        &self,
        rows: &[usize],
        normalizer: &Normalizer,
        reference: RpvReference,
    ) -> Result<MlDataset, MphpcError> {
        let mut ml = self.to_ml(rows, normalizer)?;
        if reference == RpvReference::SelfSystem {
            return Ok(ml);
        }
        // Rebuild targets from the paired runtimes.
        let mut y = Matrix::zeros(rows.len(), 4);
        for (oi, &row) in rows.iter().enumerate() {
            let times: Vec<f64> = SystemId::TABLE1
                .iter()
                .map(|&s| self.runtime_on(row, s))
                .collect::<Result<_, _>>()?;
            let rpv = match reference {
                RpvReference::SelfSystem => unreachable!("handled above"),
                RpvReference::Min => crate::rpv::rpv_relative_to_min(&times),
                RpvReference::Max => crate::rpv::rpv_relative_to_max(&times),
            }
            .map_err(MphpcError::InvalidDataset)
            .context(format!("re-referencing the RPV of dataset row {row}"))?;
            for (j, v) in rpv.into_iter().enumerate() {
                y.set(oi, j, v);
            }
        }
        ml.y = y;
        Ok(ml)
    }

    /// Runtime of row `i` on a given system (from the paired runs).
    pub fn runtime_on(&self, row: usize, system: SystemId) -> Result<f64, MphpcError> {
        Ok(self
            .frame
            .f64_at(&format!("runtime_{}", system.name().to_lowercase()), row)?)
    }

    /// Reconstruct a dataset from a frame (e.g. read back from CSV),
    /// validating that every required column is present. Numeric columns
    /// that CSV type-inference narrowed to integers (e.g. `nodes`) are
    /// widened back to `f64`.
    pub fn from_frame(mut frame: Frame) -> Result<Self, MphpcError> {
        let required = [
            "app",
            "input",
            "scale",
            "arch",
            "rep",
            "gpu_capable",
            "runtime",
        ];
        let runtime_cols: Vec<String> = SystemId::TABLE1
            .iter()
            .map(|sys| format!("runtime_{}", sys.name().to_lowercase()))
            .collect();
        for name in required
            .iter()
            .copied()
            .chain(FEATURE_NAMES)
            .chain(TARGET_NAMES)
            .chain(runtime_cols.iter().map(String::as_str))
        {
            if !frame.has_column(name) {
                return Err(MphpcError::InvalidDataset(format!(
                    "missing column '{name}'"
                )));
            }
        }
        let float_cols: Vec<&str> = FEATURE_NAMES
            .iter()
            .copied()
            .chain(TARGET_NAMES)
            .chain(std::iter::once("runtime"))
            .chain(runtime_cols.iter().map(String::as_str))
            .collect();
        for name in float_cols {
            let widened = frame
                .column(name)
                .and_then(|c| c.to_f64_vec())
                .context(format!("widening column '{name}' to f64"))?;
            frame.replace_column(name, Column::F64(widened))?;
        }
        Ok(Self {
            frame,
            incomplete_groups: 0,
        })
    }

    /// Persist the dataset as CSV.
    pub fn write_csv<P: AsRef<std::path::Path>>(&self, path: P) -> Result<(), MphpcError> {
        let path = path.as_ref();
        self.frame
            .write_csv(path)
            .map_err(|e| MphpcError::io(path.display().to_string(), e))
    }

    /// Load a dataset previously written with [`MpHpcDataset::write_csv`].
    pub fn read_csv<P: AsRef<std::path::Path>>(path: P) -> Result<Self, MphpcError> {
        let path = path.as_ref();
        let frame =
            Frame::read_csv(path).context(format!("reading dataset CSV '{}'", path.display()))?;
        Self::from_frame(frame).context(format!("validating dataset CSV '{}'", path.display()))
    }

    /// Check the dataset's structural invariants: every feature, target,
    /// and runtime value is finite, paired runtimes are strictly positive,
    /// and each row's self-relative RPV element is ≈ 1. Returns
    /// [`MphpcError::InvariantViolation`] naming the first offending cell.
    ///
    /// Builders run this automatically under `debug_assertions` or when
    /// the `MPHPC_AUDIT` environment variable is set; it is cheap enough
    /// to call explicitly after deserialising an untrusted table.
    pub fn audit(&self) -> Result<(), MphpcError> {
        let violation = |msg: String| Err(MphpcError::InvariantViolation(msg));
        for name in FEATURE_NAMES.iter().chain(TARGET_NAMES.iter()) {
            let col = self.frame.column(name)?.to_f64_vec()?;
            if let Some(i) = col.iter().position(|v| !v.is_finite()) {
                return violation(format!("dataset audit: non-finite {name}[{i}]"));
            }
        }
        let runtime_cols: Vec<String> = std::iter::once("runtime".to_string())
            .chain(
                SystemId::TABLE1
                    .iter()
                    .map(|sys| format!("runtime_{}", sys.name().to_lowercase())),
            )
            .collect();
        for name in &runtime_cols {
            let col = self.frame.column(name)?.to_f64_vec()?;
            if let Some(i) = col.iter().position(|v| !v.is_finite() || *v <= 0.0) {
                return violation(format!(
                    "dataset audit: non-positive runtime {name}[{i}] = {}",
                    col[i]
                ));
            }
        }
        let arch = self.str_column("arch")?;
        for (i, a) in arch.iter().enumerate() {
            let target = format!("rpv_{}", a.to_lowercase());
            let v = self.frame.f64_at(&target, i)?;
            if (v - 1.0).abs() > 1e-9 {
                return violation(format!(
                    "dataset audit: self-relative RPV {target}[{i}] = {v}, expected 1"
                ));
            }
        }
        Ok(())
    }
}

/// True when dataset builders should run [`MpHpcDataset::audit`]: always
/// in debug builds, and in release builds when `MPHPC_AUDIT` is set.
pub(crate) fn audit_enabled() -> bool {
    cfg!(debug_assertions) || std::env::var_os("MPHPC_AUDIT").is_some()
}

fn group_key(spec: &RunSpec) -> (u64, String, u64, u32) {
    (
        spec.app as u64,
        spec.input.name.clone(),
        spec.scale as u64,
        spec.rep,
    )
}

/// Assemble a dataset from already-collected profiles.
///
/// Runs are paired across the four Table-I systems by (app, input, scale,
/// rep); groups missing any system are dropped (counted in
/// [`MpHpcDataset::incomplete_groups`]).
pub fn build_dataset_from_profiles(profiles: &[RawProfile]) -> Result<MpHpcDataset, MphpcError> {
    // Group profile indices by run identity.
    let mut groups: HashMap<(u64, String, u64, u32), Vec<usize>> = HashMap::new();
    for (i, p) in profiles.iter().enumerate() {
        if p.machine.table1_index().is_none() {
            return Err(MphpcError::Profile(format!(
                "profile {} on non-Table-1 system {:?}",
                i, p.machine
            )));
        }
        groups.entry(group_key(&p.spec)).or_default().push(i);
    }

    // Column accumulators.
    let n = profiles.len();
    let mut app_col = Vec::with_capacity(n);
    let mut input_col = Vec::with_capacity(n);
    let mut scale_col = Vec::with_capacity(n);
    let mut arch_col = Vec::with_capacity(n);
    let mut rep_col: Vec<i64> = Vec::with_capacity(n);
    let mut gpu_capable_col: Vec<bool> = Vec::with_capacity(n);
    let mut feature_cols: Vec<Vec<f64>> = (0..FEATURE_NAMES.len())
        .map(|_| Vec::with_capacity(n))
        .collect();
    let mut target_cols: Vec<Vec<f64>> = (0..TARGET_NAMES.len())
        .map(|_| Vec::with_capacity(n))
        .collect();
    let mut runtime_col = Vec::with_capacity(n);
    let mut runtime_sys_cols: Vec<Vec<f64>> = (0..4).map(|_| Vec::with_capacity(n)).collect();

    let mut incomplete: std::collections::HashSet<(u64, String, u64, u32)> =
        std::collections::HashSet::new();

    for profile in profiles {
        let key = group_key(&profile.spec);
        let members = &groups[&key];
        // Resolve the four paired runtimes.
        let mut times = [0.0f64; 4];
        let mut found = 0;
        for &mi in members {
            let m = &profiles[mi];
            if let Some(idx) = m.machine.table1_index() {
                if times[idx] == 0.0 {
                    times[idx] = m.wall_seconds;
                    found += 1;
                }
            }
        }
        if found < 4 {
            incomplete.insert(key);
            continue;
        }
        let self_idx = profile.machine.table1_index().expect("validated above");
        let rpv = relative_performance_vector(&times, self_idx)
            .map_err(MphpcError::InvalidDataset)
            .context(format!(
                "building the RPV for run ({}, '{}', {}, rep {})",
                Application::new(profile.spec.app).name(),
                profile.spec.input.name,
                profile.spec.scale.label(),
                profile.spec.rep
            ))?;

        let app = Application::new(profile.spec.app);
        app_col.push(app.name().to_string());
        input_col.push(profile.spec.input.name.clone());
        scale_col.push(profile.spec.scale.label().to_string());
        arch_col.push(profile.machine.name());
        rep_col.push(profile.spec.rep as i64);
        gpu_capable_col.push(app.spec.gpu);
        for (slot, v) in feature_cols.iter_mut().zip(derive_features(profile)) {
            slot.push(v);
        }
        for (slot, v) in target_cols.iter_mut().zip(&rpv) {
            slot.push(*v);
        }
        runtime_col.push(profile.wall_seconds);
        for (slot, v) in runtime_sys_cols.iter_mut().zip(times) {
            slot.push(v);
        }
    }

    let mut frame = Frame::new();
    frame
        .push_column("app", Column::Str(app_col))
        .and_then(|_| frame.push_column("input", Column::Str(input_col)))
        .and_then(|_| frame.push_column("scale", Column::Str(scale_col)))
        .and_then(|_| frame.push_column("arch", Column::Str(arch_col)))
        .and_then(|_| frame.push_column("rep", Column::I64(rep_col)))
        .and_then(|_| frame.push_column("gpu_capable", Column::Bool(gpu_capable_col)))?;
    for (name, col) in FEATURE_NAMES.iter().zip(feature_cols) {
        frame.push_column(*name, Column::F64(col))?;
    }
    for (name, col) in TARGET_NAMES.iter().zip(target_cols) {
        frame.push_column(*name, Column::F64(col))?;
    }
    frame.push_column("runtime", Column::F64(runtime_col))?;
    for (sys, col) in SystemId::TABLE1.iter().zip(runtime_sys_cols) {
        frame.push_column(
            format!("runtime_{}", sys.name().to_lowercase()),
            Column::F64(col),
        )?;
    }

    let dataset = MpHpcDataset {
        frame,
        incomplete_groups: incomplete.len(),
    };
    if audit_enabled() {
        dataset.audit().context("auditing the assembled dataset")?;
    }
    Ok(dataset)
}

/// Collect profiles for `specs` (in parallel) and assemble the dataset.
pub fn build_dataset(specs: &[RunSpec], base_seed: u64) -> Result<MpHpcDataset, MphpcError> {
    let profiles: Result<Vec<RawProfile>, String> =
        profile_matrix(specs, base_seed).into_iter().collect();
    build_dataset_from_profiles(&profiles.map_err(MphpcError::Profile)?)
}

/// [`build_dataset`] with an explicit cache-model backend.
pub fn build_dataset_with_model(
    specs: &[RunSpec],
    base_seed: u64,
    model: mphpc_archsim::cache::CacheModel,
) -> Result<MpHpcDataset, MphpcError> {
    let profiles: Result<Vec<RawProfile>, String> =
        mphpc_profiler::collect::profile_matrix_with_model(specs, base_seed, model)
            .into_iter()
            .collect();
    build_dataset_from_profiles(&profiles.map_err(MphpcError::Profile)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mphpc_workloads::{small_matrix, AppKind};

    fn tiny_dataset() -> MpHpcDataset {
        let specs = small_matrix(
            &SystemId::TABLE1,
            &[AppKind::Amg, AppKind::MiniVite, AppKind::Sw4Lite],
            2,
            2,
        );
        build_dataset(&specs, 99).unwrap()
    }

    #[test]
    fn row_count_and_columns() {
        let d = tiny_dataset();
        // 3 apps × 2 inputs × 3 scales × 4 machines × 2 reps.
        assert_eq!(d.n_rows(), 3 * 2 * 3 * 4 * 2);
        assert_eq!(d.incomplete_groups, 0);
        for name in FEATURE_NAMES.iter().chain(TARGET_NAMES.iter()) {
            assert!(d.frame.has_column(name), "missing {name}");
        }
        assert!(d.frame.has_column("runtime_quartz"));
    }

    #[test]
    fn rpv_self_component_is_one() {
        let d = tiny_dataset();
        let arch = d.frame.column("arch").unwrap().as_str().unwrap().to_vec();
        for (i, arch_name) in arch.iter().enumerate() {
            let target = format!("rpv_{}", arch_name.to_lowercase());
            let v = d.frame.f64_at(&target, i).unwrap();
            assert!(
                (v - 1.0).abs() < 1e-12,
                "row {i}: rpv relative to own system must be 1, got {v}"
            );
        }
    }

    #[test]
    fn rpv_matches_paired_runtimes() {
        let d = tiny_dataset();
        for i in 0..d.n_rows().min(50) {
            let own = d.frame.f64_at("runtime", i).unwrap();
            for sys in SystemId::TABLE1 {
                let t = d.runtime_on(i, sys).unwrap();
                let rpv = d
                    .frame
                    .f64_at(&format!("rpv_{}", sys.name().to_lowercase()), i)
                    .unwrap();
                assert!((rpv - t / own).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn row_filters_partition() {
        let d = tiny_dataset();
        let by_arch: usize = SystemId::TABLE1
            .iter()
            .map(|&s| d.rows_for_arch(s).unwrap().len())
            .sum();
        assert_eq!(by_arch, d.n_rows());
        let amg = d.rows_for_app("AMG").unwrap();
        assert_eq!(amg.len(), 2 * 3 * 4 * 2);
        let one_core = d.rows_for_scale(Scale::OneCore).unwrap();
        assert_eq!(one_core.len(), d.n_rows() / 3);
    }

    #[test]
    fn to_ml_shapes_and_normalisation() {
        let d = tiny_dataset();
        let rows = d.all_rows();
        let norm = d.fit_normalizer(&rows).unwrap();
        let ml = d.to_ml(&rows, &norm).unwrap();
        assert_eq!(ml.n_samples(), d.n_rows());
        assert_eq!(ml.n_features(), 21);
        assert_eq!(ml.n_outputs(), 4);
        // z-scored column ~ mean 0 when fit on the same rows.
        let idx = FEATURE_NAMES
            .iter()
            .position(|&n| n == "mem_stall_cycles")
            .unwrap();
        let col = ml.x.col(idx);
        let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
        assert!(mean.abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn incomplete_groups_are_dropped() {
        let specs = small_matrix(&SystemId::TABLE1, &[AppKind::Amg], 1, 1);
        let profiles: Vec<RawProfile> = profile_matrix(&specs, 5)
            .into_iter()
            .map(Result::unwrap)
            // Drop every Quartz profile: no group is complete.
            .filter(|p| p.machine != SystemId::Quartz)
            .collect();
        let d = build_dataset_from_profiles(&profiles).unwrap();
        assert_eq!(d.n_rows(), 0);
        assert_eq!(d.incomplete_groups, 3, "one per scale");
    }

    #[test]
    fn gpu_capability_tracks_app() {
        let d = tiny_dataset();
        for i in 0..d.n_rows() {
            let app = d.frame.str_at("app", i).unwrap();
            let cap = d.frame.bool_at("gpu_capable", i).unwrap();
            assert_eq!(cap, app == "AMG" || app == "SW4lite", "{app}");
        }
    }

    #[test]
    fn csv_round_trip() {
        let d = tiny_dataset();
        let path = std::env::temp_dir().join("mphpc_dataset_roundtrip.csv");
        d.write_csv(&path).unwrap();
        let back = MpHpcDataset::read_csv(&path).unwrap();
        assert_eq!(d.frame.shape(), back.frame.shape());
        assert_eq!(d.frame.column_names(), back.frame.column_names());
        for i in (0..d.n_rows()).step_by(7) {
            assert_eq!(
                d.frame.f64_at("rpv_ruby", i).unwrap(),
                back.frame.f64_at("rpv_ruby", i).unwrap()
            );
            assert_eq!(
                d.frame.str_at("app", i).unwrap(),
                back.frame.str_at("app", i).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn audit_passes_on_clean_build_and_names_poisoned_cells() {
        let d = tiny_dataset();
        d.audit().unwrap();

        let mut poisoned = d.clone();
        let mut col = poisoned
            .frame
            .column("runtime_ruby")
            .unwrap()
            .to_f64_vec()
            .unwrap();
        col[3] = -1.0;
        poisoned
            .frame
            .replace_column("runtime_ruby", Column::F64(col))
            .unwrap();
        let err = poisoned.audit().unwrap_err();
        assert!(matches!(err, MphpcError::InvariantViolation(_)), "{err}");
        assert!(err.to_string().contains("runtime_ruby"), "{err}");

        let mut nan_feature = d;
        let name = FEATURE_NAMES[0];
        let mut col = nan_feature
            .frame
            .column(name)
            .unwrap()
            .to_f64_vec()
            .unwrap();
        col[0] = f64::NAN;
        nan_feature
            .frame
            .replace_column(name, Column::F64(col))
            .unwrap();
        assert!(nan_feature.audit().is_err());
    }

    #[test]
    fn from_frame_rejects_missing_columns() {
        let mut f = tiny_dataset().frame;
        f.drop_column("rpv_corona").unwrap();
        assert!(MpHpcDataset::from_frame(f).is_err());
    }

    #[test]
    fn deterministic_build() {
        let specs = small_matrix(&SystemId::TABLE1, &[AppKind::MiniFe], 1, 1);
        let a = build_dataset(&specs, 7).unwrap();
        let b = build_dataset(&specs, 7).unwrap();
        assert_eq!(a.frame, b.frame);
    }
}
