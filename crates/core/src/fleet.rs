//! Storage-coordinated profiling/training fleet (DESIGN.md §15).
//!
//! A fleet job splits a collection campaign's run matrix into contiguous,
//! group-aligned shards described by an immutable
//! [`Manifest`]. Any number of *independent
//! worker processes* then race over the shards: each worker claims a shard
//! through the store's lease protocol, profiles its spec range with the
//! ordinary pipeline, and publishes the shard's partial dataset as an
//! atomic object. A resumable [`fleet_merge`] concatenates the completed
//! shards into the final dataset (and optionally trains the production
//! model on it).
//!
//! # Crash safety and bit-identity
//!
//! The design goal is that `kill -9` of any worker at any instant is
//! recoverable *and leaves no trace in the output*: a restarted fleet
//! converges to the byte-identical result of a single-process
//! `collect()` + `train_predictor()` run. Three properties make this hold:
//!
//! * **Content-derived seeds.** Every profiled run's RNG seed is derived
//!   from the run's own labels and the manifest's base seed — never from
//!   worker identity or shard numbering — so any sharding of the spec list
//!   reproduces identical profiles.
//! * **Group-aligned shards.** Runs are paired across the four Table-I
//!   systems per (app, input, scale, rep); the spec matrix keeps each
//!   pairing group inside a `machines × reps` block, and
//!   [`plan_shards`] only cuts on block
//!   boundaries. Every shard therefore builds complete rows, and the
//!   concatenation of shard CSVs in shard order *is* the single-process
//!   CSV, byte for byte.
//! * **Atomic publication.** Shard results, the merged dataset, and the
//!   model are all published with temp-file + fsync + rename, so a crashed
//!   writer leaves either nothing or a complete object.
//!
//! Claims are only a compute-dedup optimisation: if a stale claim is
//! reclaimed while the original worker is merely slow (not dead), both
//! workers eventually publish the *same bytes* and the race is harmless.

use crate::pipeline::{train_predictor, CollectionConfig};
use mphpc_dataset::{build_dataset, MpHpcDataset};
use mphpc_errors::{MphpcError, ResultExt};
use mphpc_frame::read_csv_str;
use mphpc_ml::ModelKind;
use mphpc_storage::{plan_shards, ClaimOutcome, Manifest, Storage};
use mphpc_workloads::AppKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Parse a model-family word (`gbt`, `forest`, `linear`, `mean`) as used
/// by both the CLI and fleet manifests.
pub fn model_kind_from_name(word: &str) -> Result<ModelKind, MphpcError> {
    match word {
        "gbt" | "xgboost" => Ok(ModelKind::Gbt(Default::default())),
        "forest" => Ok(ModelKind::Forest(Default::default())),
        "linear" => Ok(ModelKind::Linear(Default::default())),
        "mean" => Ok(ModelKind::Mean),
        other => Err(MphpcError::InvalidArgument(format!(
            "unknown model '{other}'"
        ))),
    }
}

/// Build the generation manifest for a collection campaign.
///
/// `model` is the model-family word to train at merge time, or `None` for
/// a dataset-only fleet. Shards are aligned to the campaign's pairing
/// block (`machines × reps`) so every shard yields complete dataset rows.
pub fn manifest_for(
    cfg: &CollectionConfig,
    n_shards: usize,
    claim_ttl: Duration,
    model: Option<&str>,
    generation: u64,
) -> Result<Manifest, MphpcError> {
    if let Some(word) = model {
        model_kind_from_name(word)?; // validate before anything is published
    }
    let n_specs = cfg.specs().len();
    let align = mphpc_archsim::SystemId::TABLE1.len() * cfg.reps as usize;
    let mut params = BTreeMap::new();
    params.insert(
        "apps".to_string(),
        cfg.apps
            .as_ref()
            .map_or("all".to_string(), |v| v.len().to_string()),
    );
    params.insert(
        "inputs".to_string(),
        cfg.inputs_per_app
            .map_or("all".to_string(), |n| n.to_string()),
    );
    params.insert("reps".to_string(), cfg.reps.to_string());
    params.insert("model".to_string(), model.unwrap_or("none").to_string());
    Ok(Manifest {
        generation,
        seed: cfg.seed,
        claim_ttl,
        shards: plan_shards(n_specs, align, n_shards),
        params,
    })
}

/// Reconstruct the collection campaign a manifest describes.
///
/// Application selection is prefix-based (the first N of
/// [`AppKind::ALL`]), exactly like `mphpc collect --apps N`, so the
/// manifest only needs a count.
pub fn collection_from_manifest(m: &Manifest) -> Result<CollectionConfig, MphpcError> {
    let count = |key: &str| -> Result<Option<usize>, MphpcError> {
        match m.param(key)? {
            "all" => Ok(None),
            n => n.parse().map(Some).map_err(|_| {
                MphpcError::Storage(format!("manifest param '{key}' is not a count or 'all'"))
            }),
        }
    };
    let apps = count("apps")?.map(|n| AppKind::ALL.into_iter().take(n).collect::<Vec<_>>());
    if let Some(v) = &apps {
        if v.is_empty() || v.len() > AppKind::ALL.len() {
            return Err(MphpcError::Storage(format!(
                "manifest names {} apps, expected 1..={}",
                v.len(),
                AppKind::ALL.len()
            )));
        }
    }
    let reps: u32 = m
        .param("reps")?
        .parse()
        .map_err(|_| MphpcError::Storage("manifest param 'reps' is not a number".to_string()))?;
    Ok(CollectionConfig {
        apps,
        inputs_per_app: count("inputs")?,
        reps,
        seed: m.seed,
    })
}

/// Publish the manifest for a new fleet generation. Idempotent: re-running
/// with the same configuration is a no-op, a conflicting configuration is
/// an error.
pub fn fleet_init(
    store: &dyn Storage,
    cfg: &CollectionConfig,
    n_shards: usize,
    claim_ttl: Duration,
    model: Option<&str>,
    generation: u64,
) -> Result<Manifest, MphpcError> {
    let manifest = manifest_for(cfg, n_shards, claim_ttl, model, generation)?;
    manifest.publish(store)?;
    Ok(manifest)
}

/// What one [`fleet_work`] invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerOutcome {
    /// Shards this worker executed to completion.
    pub completed: usize,
    /// Of those, shards whose stale claim was taken over from another
    /// worker.
    pub reclaimed: usize,
    /// Passes over the shard list (≥ 2 means the worker waited on peers).
    pub passes: usize,
}

/// Run one worker until every shard of the generation has a published
/// result (whether produced by this worker or a peer).
///
/// The worker repeatedly scans the shard list: shards with a result are
/// skipped, claimable shards are executed, and shards held by live peers
/// are left alone. When nothing was claimable but work remains, the
/// worker sleeps briefly and rescans — a peer will either finish the
/// shard or let its claim expire, at which point this worker takes over.
/// Safe to invoke from any number of processes or threads concurrently.
pub fn fleet_work(store: &dyn Storage, worker: &str) -> Result<WorkerOutcome, MphpcError> {
    if worker.is_empty() || worker.contains(|c: char| c.is_whitespace() || c == '/') {
        return Err(MphpcError::InvalidArgument(format!(
            "invalid worker id '{worker}'"
        )));
    }
    let manifest = Manifest::load(store)?;
    let specs = collection_from_manifest(&manifest)?.specs();
    let covered = manifest.shards.first().map(|s| s.start) == Some(0)
        && manifest.shards.last().map(|s| s.end) == Some(specs.len());
    if !covered {
        return Err(MphpcError::Storage(format!(
            "manifest shards do not tile the {}-spec campaign",
            specs.len()
        )));
    }
    let poll =
        (manifest.claim_ttl / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
    let mut outcome = WorkerOutcome::default();
    loop {
        outcome.passes += 1;
        let mut remaining = false;
        let mut progressed = false;
        for (id, range) in manifest.shards.iter().enumerate() {
            if store.exists(&manifest.result_key(id))? {
                continue;
            }
            remaining = true;
            match store.claim(&manifest.claim_key(id), worker, manifest.claim_ttl)? {
                ClaimOutcome::Acquired { reclaimed } => {
                    mphpc_telemetry::counter_add("fleet.shard.claimed", 1);
                    if reclaimed {
                        mphpc_telemetry::counter_add("fleet.shard.reclaimed", 1);
                        outcome.reclaimed += 1;
                    }
                    execute_shard(store, &manifest, id, &specs[range.start..range.end], worker)
                        .context(format!("executing fleet shard {id}"))?;
                    mphpc_telemetry::counter_add("fleet.shard.completed", 1);
                    outcome.completed += 1;
                    progressed = true;
                }
                ClaimOutcome::Held { .. } => {}
            }
        }
        if !remaining {
            return Ok(outcome);
        }
        if !progressed {
            std::thread::sleep(poll);
        }
    }
}

/// Crash-test hook: when `MPHPC_FLEET_STALL_SHARD` names this shard, hang
/// (once per process) for `MPHPC_FLEET_STALL_MS` right after the claim is
/// won and *before* heartbeats start — exactly the window where a wedged
/// or killed worker leaves a stale claim behind.
fn maybe_stall(id: usize) {
    static STALLED: AtomicBool = AtomicBool::new(false);
    let Ok(target) = std::env::var("MPHPC_FLEET_STALL_SHARD") else {
        return;
    };
    if target.parse() != Ok(id) || STALLED.swap(true, Ordering::Relaxed) {
        return;
    }
    let ms = std::env::var("MPHPC_FLEET_STALL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600_000);
    std::thread::sleep(Duration::from_millis(ms));
}

/// Profile one claimed shard and publish its partial dataset.
///
/// A background thread heartbeats the claim while the profiling runs, so
/// the lease stays live for as long as the worker is; the heartbeats stop
/// the moment the process dies. The result object is the shard's dataset
/// as CSV — rendered rows depend only on the specs and the manifest seed,
/// so duplicated executions publish identical bytes.
fn execute_shard(
    store: &dyn Storage,
    manifest: &Manifest,
    id: usize,
    specs: &[mphpc_workloads::RunSpec],
    worker: &str,
) -> Result<(), MphpcError> {
    let _span = mphpc_telemetry::span!("fleet.shard", runs = specs.len());
    maybe_stall(id);
    let claim_key = manifest.claim_key(id);
    let interval =
        (manifest.claim_ttl / 3).clamp(Duration::from_millis(5), Duration::from_millis(200));
    let done = AtomicBool::new(false);
    let dataset = std::thread::scope(|scope| {
        scope.spawn(|| {
            let step = Duration::from_millis(2).min(interval);
            loop {
                let mut slept = Duration::ZERO;
                while slept < interval && !done.load(Ordering::Relaxed) {
                    std::thread::sleep(step);
                    slept += step;
                }
                if done.load(Ordering::Relaxed) {
                    return;
                }
                // A false/failed heartbeat means the claim moved on; keep
                // computing anyway — the result is deterministic and the
                // publish below is atomic, so finishing is always safe.
                let _ = store.heartbeat(&claim_key, worker);
            }
        });
        let result = build_dataset(specs, manifest.seed);
        done.store(true, Ordering::Relaxed);
        result
    })?;
    let csv = mphpc_frame::write_csv_string(&dataset.frame);
    store.put_atomic(&manifest.result_key(id), csv.as_bytes())?;
    store.put_atomic(
        &manifest.meta_key(id),
        format!(
            "worker = {worker}\nrows = {}\nincomplete_groups = {}\n",
            dataset.n_rows(),
            dataset.incomplete_groups
        )
        .as_bytes(),
    )?;
    store.delete(&claim_key)
}

/// What [`fleet_merge`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// Rows in the merged dataset.
    pub rows: usize,
    /// Shards folded in.
    pub shards: usize,
    /// True when a previous merge's dataset object was reused as-is.
    pub dataset_reused: bool,
    /// Model family trained (merge-time `model` manifest param), if any.
    pub model: Option<String>,
    /// True when a previous merge's model object was reused as-is.
    pub model_reused: bool,
}

/// Fold the completed shards into the final dataset (and optionally train
/// the production model), publishing both into the store and, when given,
/// to local output paths — every write atomic.
///
/// Resumable: the merged dataset and model are themselves store objects,
/// so a merge killed halfway restarts cleanly and a finished merge is
/// reused rather than recomputed. Errors if any shard result is missing.
pub fn fleet_merge(
    store: &dyn Storage,
    out: Option<&Path>,
    model_out: Option<&Path>,
) -> Result<MergeOutcome, MphpcError> {
    let manifest = Manifest::load(store)?;
    let missing: Vec<usize> = (0..manifest.shards.len())
        .filter(|&id| !store.exists(&manifest.result_key(id)).unwrap_or(false))
        .collect();
    if !missing.is_empty() {
        return Err(MphpcError::Storage(format!(
            "cannot merge: shards {missing:?} have no result yet (run `fleet work`)"
        )));
    }
    let _span = mphpc_telemetry::span!("fleet.merge", shards = manifest.shards.len());

    let dataset_key = format!("{}/dataset.csv", manifest.gen_prefix());
    let (bytes, dataset_reused) = match store.get(&dataset_key)? {
        Some(bytes) => (bytes, true),
        None => {
            // Shard CSVs share one header and hold this shard's rows in
            // spec order; concatenating bodies in shard order reproduces
            // the single-process CSV byte-for-byte (no re-rendering, so
            // no float round-trip anywhere).
            let mut merged = String::new();
            let mut header: Option<&str> = None;
            let chunks: Vec<String> = (0..manifest.shards.len())
                .map(|id| {
                    let raw = store.get(&manifest.result_key(id))?.expect("checked above");
                    String::from_utf8(raw)
                        .map_err(|_| MphpcError::Storage(format!("shard {id} result is not UTF-8")))
                })
                .collect::<Result<_, _>>()?;
            for (id, chunk) in chunks.iter().enumerate() {
                let (head, body) = chunk.split_once('\n').ok_or_else(|| {
                    MphpcError::Storage(format!("shard {id} result has no header line"))
                })?;
                match header {
                    None => {
                        merged.push_str(head);
                        merged.push('\n');
                        header = Some(head);
                    }
                    Some(h) if h != head => {
                        return Err(MphpcError::Storage(format!(
                            "shard {id} header disagrees with shard 0 \
                             (mixed generations in one store?)"
                        )))
                    }
                    Some(_) => {}
                }
                merged.push_str(body);
            }
            let bytes = merged.into_bytes();
            store.put_atomic(&dataset_key, &bytes)?;
            (bytes, false)
        }
    };

    let text = std::str::from_utf8(&bytes)
        .map_err(|_| MphpcError::Storage("merged dataset is not UTF-8".to_string()))?;
    let dataset =
        MpHpcDataset::from_frame(read_csv_str(text).context("parsing the merged fleet dataset")?)
            .context("validating the merged fleet dataset")?;
    if let Some(path) = out {
        mphpc_storage::atomic_write_file(path, &bytes)
            .map_err(|e| MphpcError::io(path.display().to_string(), e))?;
    }

    let model_word = manifest.param("model").unwrap_or("none").to_string();
    let mut model_reused = false;
    let model = if model_word == "none" {
        None
    } else {
        let model_key = format!("{}/model.json", manifest.gen_prefix());
        let json = match store.get(&model_key)? {
            Some(raw) => {
                model_reused = true;
                String::from_utf8(raw)
                    .map_err(|_| MphpcError::Storage("stored model is not UTF-8".to_string()))?
            }
            None => {
                let kind = model_kind_from_name(&model_word)?;
                let predictor = train_predictor(&dataset, kind, manifest.seed)
                    .context("training the fleet model on the merged dataset")?;
                let json = predictor.to_json()?;
                store.put_atomic(&model_key, json.as_bytes())?;
                json
            }
        };
        if let Some(path) = model_out {
            mphpc_storage::atomic_write_file(path, json.as_bytes())
                .map_err(|e| MphpcError::io(path.display().to_string(), e))?;
        }
        Some(model_word)
    };

    Ok(MergeOutcome {
        rows: dataset.n_rows(),
        shards: manifest.shards.len(),
        dataset_reused,
        model,
        model_reused,
    })
}

/// Render a human-readable per-shard progress report.
pub fn fleet_status(store: &dyn Storage) -> Result<String, MphpcError> {
    let manifest = Manifest::load(store)?;
    let mut out = format!(
        "generation {} — seed {}, {} shards, claim ttl {} ms, model {}\n",
        manifest.generation,
        manifest.seed,
        manifest.shards.len(),
        manifest.claim_ttl.as_millis(),
        manifest.param("model").unwrap_or("none"),
    );
    let mut done = 0usize;
    for (id, range) in manifest.shards.iter().enumerate() {
        let state = if store.exists(&manifest.result_key(id))? {
            done += 1;
            let by = store
                .get(&manifest.meta_key(id))
                .ok()
                .flatten()
                .and_then(|raw| {
                    String::from_utf8(raw).ok().and_then(|meta| {
                        meta.lines()
                            .find_map(|l| l.strip_prefix("worker = ").map(str::to_string))
                    })
                });
            match by {
                Some(w) => format!("done (by {w})"),
                None => "done".to_string(),
            }
        } else {
            match store.get(&manifest.claim_key(id))? {
                Some(owner) => format!("claimed by {}", String::from_utf8_lossy(&owner).trim_end()),
                None => "pending".to_string(),
            }
        };
        out.push_str(&format!(
            "  shard {id:>3}  specs {:>5}..{:<5}  {state}\n",
            range.start, range.end
        ));
    }
    let dataset_key = format!("{}/dataset.csv", manifest.gen_prefix());
    out.push_str(&format!(
        "{done}/{} shards complete; merged dataset {}\n",
        manifest.shards.len(),
        if store.exists(&dataset_key)? {
            "published"
        } else {
            "not yet merged"
        }
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::collect;
    use mphpc_storage::LocalDirStorage;

    fn temp_store(tag: &str) -> LocalDirStorage {
        let dir = std::env::temp_dir().join(format!(
            "mphpc_fleet_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        LocalDirStorage::open(dir).unwrap()
    }

    fn small_cfg() -> CollectionConfig {
        CollectionConfig::small(3, 2, 2, 77)
    }

    #[test]
    fn manifest_round_trips_the_collection_config() {
        let cfg = small_cfg();
        let m = manifest_for(&cfg, 4, Duration::from_secs(30), Some("gbt"), 0).unwrap();
        assert_eq!(collection_from_manifest(&m).unwrap(), cfg);
        // Shards tile the matrix on 4·reps boundaries.
        assert_eq!(m.shards.last().unwrap().end, cfg.specs().len());
        for s in &m.shards {
            assert_eq!(s.start % 8, 0, "pairing blocks must not be split");
        }
        // Full campaign maps through "all" params.
        let full = CollectionConfig::full(5);
        let mf = manifest_for(&full, 8, Duration::from_secs(30), None, 1).unwrap();
        assert_eq!(mf.param("apps").unwrap(), "all");
        assert_eq!(collection_from_manifest(&mf).unwrap(), full);
        // Bad model words are rejected before anything is published.
        assert!(manifest_for(&cfg, 4, Duration::from_secs(30), Some("svm"), 0).is_err());
    }

    #[test]
    fn fleet_of_threads_matches_single_process_bytes() {
        let store = temp_store("threads");
        let cfg = small_cfg();
        fleet_init(&store, &cfg, 3, Duration::from_secs(30), None, 0).unwrap();

        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let store = &store;
                    s.spawn(move || fleet_work(store, &format!("t{i}")).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            outcomes.iter().map(|o| o.completed).sum::<usize>(),
            3,
            "{outcomes:?}"
        );

        let merged = fleet_merge(&store, None, None).unwrap();
        assert_eq!(merged.shards, 3);
        assert!(!merged.dataset_reused);
        assert_eq!(merged.model, None);

        // Byte-identical to the single-process pipeline.
        let reference = mphpc_frame::write_csv_string(&collect(&cfg).unwrap().frame);
        let fleet_bytes = store.get("gen-0/dataset.csv").unwrap().unwrap();
        assert_eq!(merged.rows, reference.lines().count() - 1);
        assert_eq!(
            fleet_bytes,
            reference.as_bytes(),
            "merged fleet CSV must equal the single-process CSV"
        );

        // Merging again reuses the published dataset.
        let again = fleet_merge(&store, None, None).unwrap();
        assert!(again.dataset_reused);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn merge_refuses_incomplete_generations() {
        let store = temp_store("incomplete");
        fleet_init(&store, &small_cfg(), 2, Duration::from_secs(30), None, 0).unwrap();
        let err = fleet_merge(&store, None, None).unwrap_err();
        assert!(err.to_string().contains("no result"), "{err}");
        let status = fleet_status(&store).unwrap();
        assert!(status.contains("pending"), "{status}");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn worker_ids_are_validated() {
        let store = temp_store("badid");
        fleet_init(&store, &small_cfg(), 2, Duration::from_secs(30), None, 0).unwrap();
        for bad in ["", "a b", "a/b"] {
            assert!(fleet_work(&store, bad).is_err(), "{bad:?}");
        }
        std::fs::remove_dir_all(store.root()).ok();
    }
}
