//! Fleet crash-recovery integration: `kill -9` a worker mid-shard, restart
//! the fleet, and require byte-identical convergence with the
//! single-process pipeline (DESIGN.md §15).
//!
//! Drives the real `mphpc` binary as separate OS processes, because the
//! property under test is *inter-process* crash safety: stale-claim
//! reclamation across process death, atomic publication under SIGKILL, and
//! the determinism that makes duplicated shard work harmless.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const MPHPC: &str = env!("CARGO_BIN_EXE_mphpc");

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mphpc_fleetrec_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(MPHPC).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "mphpc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Collection shape shared by the fleet and the single-process reference:
/// 2 apps × 2 inputs × 3 scales × 4 machines × 2 reps = 96 specs.
const SHAPE: [&str; 8] = [
    "--apps", "2", "--inputs", "2", "--reps", "2", "--seed", "4242",
];

fn wait_for(path: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigkilled_worker_fleet_converges_bit_identically() {
    let dir = temp("kill");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    let mut init = vec!["fleet", "init", "--store", store_s];
    init.extend_from_slice(&SHAPE);
    init.extend_from_slice(&["--shards", "3", "--ttl-ms", "600", "--model", "none"]);
    run(&init);

    // Start one worker rigged to hang (heartbeat-free) the moment it wins
    // shard 0 — the window where a crash leaves a stale claim behind.
    let mut victim = Command::new(MPHPC)
        .args(["fleet", "work", "--store", store_s, "--worker", "victim"])
        .env("MPHPC_FLEET_STALL_SHARD", "0")
        .env("MPHPC_FLEET_STALL_MS", "600000")
        .spawn()
        .unwrap();
    wait_for(
        &store.join("gen-0/claims/shard-0000"),
        "the victim's claim on shard 0",
    );
    // SIGKILL mid-shard: no cleanup code runs, the claim file stays.
    victim.kill().unwrap();
    victim.wait().unwrap();
    assert!(
        !store.join("gen-0/shards/shard-0000").exists(),
        "the killed worker must not have published a result"
    );

    // Restart the fleet with two healthy workers. They finish shards 1-2,
    // find shard 0 held by a dead owner, wait out the 600 ms lease, and
    // reclaim it.
    let workers: Vec<_> = ["w1", "w2"]
        .iter()
        .map(|w| {
            Command::new(MPHPC)
                .args(["fleet", "work", "--store", store_s, "--worker", w])
                .output()
                .unwrap()
        })
        .collect();
    let mut reclaimed = 0usize;
    for out in &workers {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        // "worker wN: completed C shard(s) (R reclaimed) in P pass(es)"
        let words: Vec<&str> = stdout.split_whitespace().collect();
        if let Some(i) = words.iter().position(|w| w.starts_with("reclaimed")) {
            reclaimed += words[i - 1]
                .trim_start_matches('(')
                .parse::<usize>()
                .unwrap_or(0);
        }
    }
    assert!(reclaimed >= 1, "the dead worker's shard must be reclaimed");

    let fleet_csv = dir.join("fleet.csv");
    run(&[
        "fleet",
        "merge",
        "--store",
        store_s,
        "--out",
        fleet_csv.to_str().unwrap(),
    ]);

    // The ground truth: one process, one call, same campaign.
    let ref_csv = dir.join("ref.csv");
    let mut collect = vec!["collect", "--out", ref_csv.to_str().unwrap()];
    collect.extend_from_slice(&SHAPE);
    run(&collect);

    assert_eq!(
        std::fs::read(&fleet_csv).unwrap(),
        std::fs::read(&ref_csv).unwrap(),
        "post-crash fleet dataset must be byte-identical to the single-process dataset"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_model_matches_single_process_train() {
    let dir = temp("model");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    let mut init = vec!["fleet", "init", "--store", store_s];
    init.extend_from_slice(&SHAPE);
    init.extend_from_slice(&["--shards", "2", "--ttl-ms", "30000", "--model", "gbt"]);
    run(&init);

    let fleet_csv = dir.join("fleet.csv");
    let fleet_model = dir.join("fleet_model.json");
    run(&[
        "fleet",
        "run",
        "--store",
        store_s,
        "--workers",
        "2",
        "--out",
        fleet_csv.to_str().unwrap(),
        "--model-out",
        fleet_model.to_str().unwrap(),
    ]);

    let ref_csv = dir.join("ref.csv");
    let mut collect = vec!["collect", "--out", ref_csv.to_str().unwrap()];
    collect.extend_from_slice(&SHAPE);
    run(&collect);
    let ref_model = dir.join("ref_model.json");
    run(&[
        "train",
        "--dataset",
        ref_csv.to_str().unwrap(),
        "--out",
        ref_model.to_str().unwrap(),
        "--model",
        "gbt",
        "--seed",
        "4242",
    ]);

    assert_eq!(
        std::fs::read(&fleet_csv).unwrap(),
        std::fs::read(&ref_csv).unwrap(),
        "fleet dataset must match the single-process dataset"
    );
    assert_eq!(
        std::fs::read(&fleet_model).unwrap(),
        std::fs::read(&ref_model).unwrap(),
        "fleet-trained model must be byte-identical to `mphpc train` on the same data"
    );

    // Merging again is a no-op that reuses both published artifacts.
    let out = run(&["fleet", "merge", "--store", store_s]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reused"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
