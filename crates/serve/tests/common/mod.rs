//! Shared fixtures for the server integration tests: deterministic mock
//! models and a registry/server bootstrap.

#![allow(dead_code)] // each test binary uses a subset

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use mphpc_errors::MphpcError;
use mphpc_serve::{ModelLoader, ModelRegistry, PredictModel};

/// `out[i] = row[i] * factor`, 3 features → 3 outputs. The hot-swap
/// test installs versions whose factor equals the registry version, so
/// a torn read (outputs from one version, tag from another) is
/// arithmetically visible in the response.
pub struct ScaleModel {
    pub factor: f64,
}

impl PredictModel for ScaleModel {
    fn n_features(&self) -> usize {
        3
    }
    fn n_outputs(&self) -> usize {
        3
    }
    fn predict_batch(&self, rows: &[f64], _n_rows: usize) -> Result<Vec<f64>, MphpcError> {
        Ok(rows.iter().map(|x| x * self.factor).collect())
    }
    fn kind(&self) -> String {
        "scale".to_string()
    }
}

/// Loader for [`ScaleModel`]: the upload body is the factor as text.
pub fn scale_loader() -> ModelLoader {
    Arc::new(|body: &str| {
        let factor: f64 = body.trim().parse().map_err(|_| {
            MphpcError::Serde(format!("scale model body must be a number, got {body:?}"))
        })?;
        Ok(Arc::new(ScaleModel { factor }) as Arc<dyn PredictModel>)
    })
}

/// Sums each row after sleeping `delay` — 2 features → 1 output. The
/// backpressure tests use the delay to keep the batcher busy while the
/// queue fills.
pub struct SlowModel {
    pub delay: Duration,
}

impl PredictModel for SlowModel {
    fn n_features(&self) -> usize {
        2
    }
    fn n_outputs(&self) -> usize {
        1
    }
    fn predict_batch(&self, rows: &[f64], n_rows: usize) -> Result<Vec<f64>, MphpcError> {
        thread::sleep(self.delay);
        Ok(rows
            .chunks(2)
            .take(n_rows)
            .map(|row| row.iter().sum())
            .collect())
    }
    fn kind(&self) -> String {
        "slow".to_string()
    }
}

/// [`SlowModel`]'s sums, where every batch first says on `entered` that
/// it got here and then waits for the gate (a dropped sender opens it
/// for good): a test parks the batcher thread inside the model and fills
/// the queue behind it without racing a timer.
pub struct GatedModel {
    pub entered: Sender<()>,
    pub gate: Mutex<Receiver<()>>,
}

impl PredictModel for GatedModel {
    fn n_features(&self) -> usize {
        2
    }
    fn n_outputs(&self) -> usize {
        1
    }
    fn predict_batch(&self, rows: &[f64], n_rows: usize) -> Result<Vec<f64>, MphpcError> {
        let _ = self.entered.send(());
        let _ = self.gate.lock().unwrap().recv();
        let delay = Duration::ZERO;
        SlowModel { delay }.predict_batch(rows, n_rows)
    }
}

/// A registry with `model` installed as `default` (version 1).
pub fn registry_with(model: impl PredictModel, loader: ModelLoader) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new(loader));
    registry.install("default", Arc::new(model));
    registry
}
