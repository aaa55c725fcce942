//! Streaming-ingest primitives for the online-learning watch loop
//! (DESIGN.md §16): shard-watermark tracking and an append-only
//! versioned dataset with a crash-safe current pointer.
//!
//! The watch daemon tails the store for newly published shard results.
//! Its progress is a *watermark* — the set of shard-result keys already
//! folded into the training dataset — committed by [`commit_ingest`]
//! as a sidecar of the dataset version it produced, so a restarted
//! daemon resumes exactly where it left off, never ingesting a shard
//! twice and never skipping one.
//!
//! Each ingest publishes the watermark sidecar `watch/watermark-v{n}`
//! and the grown dataset `watch/dataset-v{n}` as immutable objects and
//! only then flips the one-line pointer `watch/dataset.current`
//! (atomically, via [`Storage::put_atomic`]). A crash between the
//! writes leaves the pointer at the previous complete version — with
//! its own watermark — so readers never observe a torn dataset and the
//! watermark can never disagree with the dataset it describes.

use crate::Storage;
use mphpc_errors::MphpcError;
use std::collections::BTreeSet;

/// Key prefix for every watch-loop object.
pub const WATCH_PREFIX: &str = "watch";

/// Key of the ingest watermark committed alongside dataset version `n`.
pub fn watermark_key(version: u64) -> String {
    format!("{WATCH_PREFIX}/watermark-v{version}")
}

/// Key of the dataset-version pointer.
pub fn dataset_pointer_key() -> String {
    format!("{WATCH_PREFIX}/dataset.current")
}

/// Key of dataset version `n`.
pub fn dataset_version_key(version: u64) -> String {
    format!("{WATCH_PREFIX}/dataset-v{version}")
}

/// Load the ingest watermark committed with the *current* dataset
/// version: the sorted set of shard-result keys already folded in.
/// Before the first commit (or for versions published without
/// [`commit_ingest`]) the watermark is empty.
pub fn load_watermark(store: &dyn Storage) -> Result<BTreeSet<String>, MphpcError> {
    let Some(version) = current_dataset_version(store)? else {
        return Ok(BTreeSet::new());
    };
    let Some(bytes) = store.get(&watermark_key(version))? else {
        return Ok(BTreeSet::new());
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| MphpcError::Storage("watch watermark is not utf-8".to_string()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

/// Commit one ingest step: the grown dataset *and* the watermark that
/// produced it become version `current + 1` together.
///
/// Write order is watermark sidecar → dataset object → pointer flip, so
/// a crash at any instant leaves the previous version current *with its
/// own watermark* — a restarted watch can neither skip a shard (the
/// watermark only advances with the dataset that contains it) nor
/// ingest one twice (the dataset only advances with the watermark that
/// excludes it). Orphan objects from a crash are overwritten by the
/// next commit at the same version number.
pub fn commit_ingest(
    store: &dyn Storage,
    dataset: &[u8],
    watermark: &BTreeSet<String>,
) -> Result<u64, MphpcError> {
    let version = current_dataset_version(store)?.unwrap_or(0) + 1;
    let mut text = String::new();
    for key in watermark {
        text.push_str(key);
        text.push('\n');
    }
    store.put_atomic(&watermark_key(version), text.as_bytes())?;
    store.put_atomic(&dataset_version_key(version), dataset)?;
    store.put_atomic(&dataset_pointer_key(), version.to_string().as_bytes())?;
    Ok(version)
}

/// Shard-result keys published to the store but not yet in `watermark`,
/// sorted. Matches exactly the fleet's result objects
/// (`gen-N/shards/shard-XXXX`), skipping `.meta` sidecars and claims.
pub fn unseen_shards(
    store: &dyn Storage,
    watermark: &BTreeSet<String>,
) -> Result<Vec<String>, MphpcError> {
    let mut fresh = Vec::new();
    for key in store.list("gen-")? {
        if is_shard_result_key(&key) && !watermark.contains(&key) {
            fresh.push(key);
        }
    }
    Ok(fresh)
}

/// True for fleet shard-result keys (`gen-N/shards/shard-XXXX` with no
/// extension).
pub fn is_shard_result_key(key: &str) -> bool {
    let Some(rest) = key.strip_prefix("gen-") else {
        return false;
    };
    let Some((generation, tail)) = rest.split_once('/') else {
        return false;
    };
    if generation.is_empty() || !generation.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let Some(shard) = tail.strip_prefix("shards/shard-") else {
        return false;
    };
    !shard.is_empty() && shard.bytes().all(|b| b.is_ascii_digit())
}

/// The current dataset version number, or `None` before the first
/// publish.
pub fn current_dataset_version(store: &dyn Storage) -> Result<Option<u64>, MphpcError> {
    let Some(bytes) = store.get(&dataset_pointer_key())? else {
        return Ok(None);
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| MphpcError::Storage("dataset pointer is not utf-8".to_string()))?;
    let version = text
        .trim()
        .parse::<u64>()
        .map_err(|_| MphpcError::Storage(format!("dataset pointer is not a version: {text:?}")))?;
    Ok(Some(version))
}

/// Read the current dataset (version number and bytes), or `None`
/// before the first publish. A pointer that names a missing object is a
/// hard error — the publish protocol makes that state unreachable.
pub fn load_current_dataset(store: &dyn Storage) -> Result<Option<(u64, Vec<u8>)>, MphpcError> {
    let Some(version) = current_dataset_version(store)? else {
        return Ok(None);
    };
    let bytes = store.get(&dataset_version_key(version))?.ok_or_else(|| {
        MphpcError::Storage(format!(
            "dataset pointer names v{version} but the object is missing"
        ))
    })?;
    Ok(Some((version, bytes)))
}

/// Publish `bytes` as the next dataset version: write the immutable
/// version object first, then flip the pointer. Returns the new version
/// number. A crash between the writes leaves the previous version
/// current and the orphan object harmless (the next publish overwrites
/// the same version number).
pub fn publish_dataset(store: &dyn Storage, bytes: &[u8]) -> Result<u64, MphpcError> {
    let version = current_dataset_version(store)?.unwrap_or(0) + 1;
    store.put_atomic(&dataset_version_key(version), bytes)?;
    store.put_atomic(&dataset_pointer_key(), version.to_string().as_bytes())?;
    Ok(version)
}

/// Delete dataset versions (and their watermark sidecars) older than
/// `keep` behind the current one (bounded storage for a long-running
/// watch). The current version is never deleted.
pub fn prune_dataset_versions(store: &dyn Storage, keep: u64) -> Result<u64, MphpcError> {
    let Some(current) = current_dataset_version(store)? else {
        return Ok(0);
    };
    let mut pruned = 0;
    for version in 1..current.saturating_sub(keep) {
        let key = dataset_version_key(version);
        if store.exists(&key)? {
            store.delete(&key)?;
            pruned += 1;
        }
        store.delete(&watermark_key(version))?;
    }
    Ok(pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalDirStorage;

    fn store(name: &str) -> LocalDirStorage {
        let dir = std::env::temp_dir().join(format!("mphpc_stream_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        LocalDirStorage::open(dir).unwrap()
    }

    #[test]
    fn watermark_commits_with_its_dataset_version() {
        let s = store("wm");
        assert!(load_watermark(&s).unwrap().is_empty());
        let mut wm = BTreeSet::new();
        wm.insert("gen-1/shards/shard-0000".to_string());
        assert_eq!(commit_ingest(&s, b"rows-a", &wm).unwrap(), 1);
        assert_eq!(load_watermark(&s).unwrap(), wm);

        wm.insert("gen-1/shards/shard-0001".to_string());
        assert_eq!(commit_ingest(&s, b"rows-ab", &wm).unwrap(), 2);
        assert_eq!(load_watermark(&s).unwrap(), wm);
        assert_eq!(
            load_current_dataset(&s).unwrap(),
            Some((2, b"rows-ab".to_vec()))
        );
    }

    #[test]
    fn crashed_commit_rewinds_watermark_and_dataset_together() {
        let s = store("wm_crash");
        let mut wm = BTreeSet::new();
        wm.insert("gen-1/shards/shard-0000".to_string());
        commit_ingest(&s, b"v1", &wm).unwrap();

        // Crash after the v2 sidecar + object landed, before the flip.
        let mut wm2 = wm.clone();
        wm2.insert("gen-1/shards/shard-0001".to_string());
        s.put_atomic(&watermark_key(2), b"orphan").unwrap();
        s.put_atomic(&dataset_version_key(2), b"v2-orphan").unwrap();

        // A restarted watch sees v1 and v1's watermark: shard-0001 is
        // still unseen, so it is re-ingested, never skipped.
        assert_eq!(load_watermark(&s).unwrap(), wm);
        assert_eq!(load_current_dataset(&s).unwrap(), Some((1, b"v1".to_vec())));
        assert_eq!(commit_ingest(&s, b"v2-real", &wm2).unwrap(), 2);
        assert_eq!(load_watermark(&s).unwrap(), wm2);
        assert_eq!(
            load_current_dataset(&s).unwrap(),
            Some((2, b"v2-real".to_vec()))
        );
    }

    #[test]
    fn unseen_shards_skips_meta_claims_and_seen() {
        let s = store("unseen");
        for key in [
            "gen-1/shards/shard-0000",
            "gen-1/shards/shard-0000.meta",
            "gen-1/shards/shard-0001",
            "gen-1/claims/shard-0001",
            "gen-1/manifest.txt",
            "gen-2/shards/shard-0000",
        ] {
            s.put_atomic(key, b"x").unwrap();
        }
        let mut wm = BTreeSet::new();
        assert_eq!(
            unseen_shards(&s, &wm).unwrap(),
            [
                "gen-1/shards/shard-0000",
                "gen-1/shards/shard-0001",
                "gen-2/shards/shard-0000"
            ]
        );
        wm.insert("gen-1/shards/shard-0001".to_string());
        assert_eq!(
            unseen_shards(&s, &wm).unwrap(),
            ["gen-1/shards/shard-0000", "gen-2/shards/shard-0000"]
        );
    }

    #[test]
    fn shard_key_filter_is_exact() {
        assert!(is_shard_result_key("gen-0/shards/shard-0000"));
        assert!(is_shard_result_key("gen-12/shards/shard-9999"));
        assert!(!is_shard_result_key("gen-1/shards/shard-0000.meta"));
        assert!(!is_shard_result_key("gen-1/claims/shard-0000"));
        assert!(!is_shard_result_key("gen-1/manifest.txt"));
        assert!(!is_shard_result_key("gen-x/shards/shard-0000"));
        assert!(!is_shard_result_key("gen-/shards/shard-0000"));
        assert!(!is_shard_result_key("other/shards/shard-0000"));
    }

    #[test]
    fn dataset_versions_publish_and_flip_atomically() {
        let s = store("ds");
        assert!(load_current_dataset(&s).unwrap().is_none());
        assert_eq!(publish_dataset(&s, b"rows-v1").unwrap(), 1);
        assert_eq!(
            load_current_dataset(&s).unwrap(),
            Some((1, b"rows-v1".to_vec()))
        );
        assert_eq!(publish_dataset(&s, b"rows-v1+v2").unwrap(), 2);
        assert_eq!(
            load_current_dataset(&s).unwrap(),
            Some((2, b"rows-v1+v2".to_vec()))
        );
        // Older versions remain readable until pruned.
        assert!(s.exists(&dataset_version_key(1)).unwrap());
    }

    #[test]
    fn crash_between_object_and_pointer_leaves_previous_current() {
        let s = store("crash");
        publish_dataset(&s, b"v1").unwrap();
        // Simulate a crash mid-publish: v2's object landed, the pointer
        // flip never happened.
        s.put_atomic(&dataset_version_key(2), b"v2-orphan").unwrap();
        assert_eq!(
            load_current_dataset(&s).unwrap(),
            Some((1, b"v1".to_vec())),
            "reader must still see the previous complete version"
        );
        // The next publish reuses version 2 and completes the flip.
        assert_eq!(publish_dataset(&s, b"v2-real").unwrap(), 2);
        assert_eq!(
            load_current_dataset(&s).unwrap(),
            Some((2, b"v2-real".to_vec()))
        );
    }

    #[test]
    fn prune_keeps_recent_versions_and_current() {
        let s = store("prune");
        let wm = BTreeSet::new();
        for i in 1..=6u64 {
            commit_ingest(&s, format!("v{i}").as_bytes(), &wm).unwrap();
        }
        // keep=2 behind current (v6): v4..v6 survive, v1..v3 go.
        assert_eq!(prune_dataset_versions(&s, 2).unwrap(), 3);
        for (version, alive) in [
            (1, false),
            (2, false),
            (3, false),
            (4, true),
            (5, true),
            (6, true),
        ] {
            assert_eq!(
                s.exists(&dataset_version_key(version)).unwrap(),
                alive,
                "v{version}"
            );
            assert_eq!(
                s.exists(&watermark_key(version)).unwrap(),
                alive,
                "watermark v{version}"
            );
        }
        assert_eq!(load_current_dataset(&s).unwrap(), Some((6, b"v6".to_vec())));
    }
}
