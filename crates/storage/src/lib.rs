//! Crash-safe artifact storage for the mphpc fleet (DESIGN.md §15).
//!
//! Every user-visible artifact the pipeline produces — dataset CSVs,
//! trained-model JSON, fleet shard results — must survive `kill -9` of the
//! producing process: a reader either sees the complete previous version of
//! a file or the complete new one, never a torn prefix. This crate provides
//! that guarantee twice over:
//!
//! * [`atomic_write_file`] — the low-level primitive: write to a temporary
//!   file in the destination directory, `fsync` it, `rename` it over the
//!   destination, and `fsync` the directory. It returns
//!   [`std::io::Result`] so leaf crates (e.g. `mphpc-frame`) can use it
//!   without coupling to the workspace error type.
//! * [`Storage`] — a pluggable object-store abstraction (local directory
//!   now, S3-shaped later) with atomic puts, prefix listing, and
//!   lease-style [`Storage::claim`]s that let independent worker processes
//!   divide work idempotently: a claim names its worker and is refreshed by
//!   heartbeats; a claim whose file has not been touched for longer than
//!   the lease TTL is *stale* and may be taken over by another worker.
//!
//! Claims are an optimisation, not a correctness mechanism: fleet shards
//! are deterministic functions of the generation manifest, so two workers
//! racing on the same shard write bit-identical result objects and the
//! atomic rename makes the race harmless. The claim protocol exists to
//! avoid duplicated compute, not to guard data integrity.

#![warn(missing_docs)]

mod local;
mod manifest;
pub mod stream;

pub use local::LocalDirStorage;
pub use manifest::{plan_shards, Manifest, ShardRange, MANIFEST_KEY};

use mphpc_errors::MphpcError;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Outcome of a [`Storage::claim`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The claim is now held by the requesting worker.
    Acquired {
        /// True when the claim was taken over from a stale (expired) owner
        /// rather than created fresh — fleet telemetry counts these as
        /// `fleet.shard.reclaimed`.
        reclaimed: bool,
    },
    /// Another worker holds a live (non-expired) claim.
    Held {
        /// The current owner's worker id.
        owner: String,
    },
}

impl ClaimOutcome {
    /// True when the requesting worker now owns the claim.
    pub fn is_acquired(&self) -> bool {
        matches!(self, ClaimOutcome::Acquired { .. })
    }
}

/// A pluggable artifact store the fleet coordinates through.
///
/// Keys are `/`-separated relative paths (`gen-0/shards/shard-3.json`).
/// Implementations must make [`Storage::put_atomic`] all-or-nothing: a
/// concurrent or crash-interrupted reader observes either the previous
/// object or the complete new one.
pub trait Storage: Send + Sync {
    /// Atomically store `bytes` under `key`, replacing any previous object.
    fn put_atomic(&self, key: &str, bytes: &[u8]) -> Result<(), MphpcError>;

    /// Fetch the object under `key`, or `None` if absent.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, MphpcError>;

    /// All keys starting with `prefix`, sorted lexicographically.
    fn list(&self, prefix: &str) -> Result<Vec<String>, MphpcError>;

    /// Try to take the lease-style claim at `key` for `worker`.
    ///
    /// * no claim exists → create it, `Acquired { reclaimed: false }`;
    /// * `worker` already owns it → refresh it, `Acquired { reclaimed: false }`
    ///   (claims are re-entrant so a restarted worker resumes its own work);
    /// * another worker owns it and the claim was refreshed within `ttl` →
    ///   `Held`;
    /// * another worker owns it but the claim is older than `ttl` → take it
    ///   over, `Acquired { reclaimed: true }`.
    fn claim(&self, key: &str, worker: &str, ttl: Duration) -> Result<ClaimOutcome, MphpcError>;

    /// Refresh the claim at `key` if `worker` still owns it. Returns false
    /// (without error) when the claim is gone or owned by someone else —
    /// the worker should abandon the shard.
    fn heartbeat(&self, key: &str, worker: &str) -> Result<bool, MphpcError>;

    /// Remove the object under `key` (used to release completed claims).
    /// Removing an absent key is not an error.
    fn delete(&self, key: &str) -> Result<(), MphpcError>;

    /// True when an object exists under `key`.
    fn exists(&self, key: &str) -> Result<bool, MphpcError> {
        Ok(self.get(key)?.is_some())
    }
}

/// Process-unique suffix counter for temp-file names: two concurrent
/// writers in the same process must never share a temp path.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: temp file in the same directory →
/// write → `fsync` → `rename` over `path` → `fsync` the directory.
///
/// A reader (or a process resuming after this writer was `kill -9`ed) sees
/// either the complete previous file or the complete new one. Leftover
/// `.mphpc-tmp.*` files from killed writers are harmless and are swept by
/// the next writer into the same directory.
pub fn atomic_write_file<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".mphpc-tmp.{}.{}.{}",
        file_name,
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Data must be durable before the rename publishes the name:
        // otherwise a power cut could leave the new name pointing at an
        // empty or partial file.
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Persist the directory entry. Failure here (some filesystems
        // refuse to fsync directories) downgrades durability, never
        // atomicity, so it is best-effort.
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Map an `io::Error` at `path` into the workspace error type.
pub(crate) fn storage_io(path: &Path, err: std::io::Error) -> MphpcError {
    MphpcError::Storage(format!("{}: {err}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_creates_and_replaces() {
        let dir = std::env::temp_dir().join(format!("mphpc_aw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.txt");
        atomic_write_file(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write_file(&path, b"two-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two-longer");
        // No temp droppings after successful writes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".mphpc-tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_directoryless_name() {
        assert!(atomic_write_file(std::path::Path::new("/"), b"x").is_err());
    }

    #[test]
    fn concurrent_reader_never_sees_a_torn_file() {
        // Hammer the same destination with two alternating contents while
        // a reader polls it: every successful read must be one of the two
        // complete payloads, never a prefix or a splice.
        let dir = std::env::temp_dir().join(format!("mphpc_aw_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.bin");
        let a: Vec<u8> = vec![b'a'; 64 * 1024];
        let b: Vec<u8> = vec![b'b'; 96 * 1024];
        atomic_write_file(&path, &a).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut observed = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(bytes) = std::fs::read(&path) {
                        let ok = bytes == a || bytes == b;
                        assert!(ok, "torn read: {} bytes", bytes.len());
                        observed += 1;
                    }
                }
                observed
            });
            for i in 0..200 {
                let payload = if i % 2 == 0 { &b } else { &a };
                atomic_write_file(&path, payload).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0, "reader never observed the file");
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
