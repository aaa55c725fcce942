//! Pinned output of the trace-driven cache simulation.
//!
//! The dataset's cache counters are only as stable as `CacheSimulator::run`:
//! this hashes its `HierarchyResult`s over the Table-I machines, both rank
//! layouts and four locality regimes at a fixed seed. The constant was
//! recorded from the `Vec<Vec<u64>>`/Fenwick implementation this one replaced
//! (DESIGN.md §18) and, like `tests/golden`, is tied to `StdRng`'s stream.

use mphpc_archsim::cache::CacheSimulator;
use mphpc_archsim::machine::table1_machines;
use mphpc_archsim::noise::rng_for;
use mphpc_archsim::LocalityProfile;

const PINNED_FNV1A: u64 = 0x4efc_722c_5376_e778;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn hierarchy_results_hash_is_pinned() {
    // (working set bytes, theta, streaming): reuse-heavy, LLC-sized,
    // DRAM-bound mixed, streaming.
    let profiles = [
        (64.0 * 1024.0, 0.3, 0.0),
        (4.0 * 1024.0 * 1024.0, 0.8, 0.0),
        (2.0e8, 0.6, 0.25),
        (512.0 * 1024.0 * 1024.0, 1.0, 0.5),
    ];
    let mut sim = CacheSimulator::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (mi, machine) in table1_machines().iter().enumerate() {
        for ranks in [1, machine.cores()] {
            for (pi, &(working_set_bytes, theta, streaming)) in profiles.iter().enumerate() {
                let profile = LocalityProfile {
                    working_set_bytes,
                    theta,
                    streaming,
                };
                let mut rng = rng_for(2024, &[mi as u64, ranks as u64, pi as u64]);
                let r = sim.run(&profile, 0.3, &machine.cpu, ranks, &mut rng);
                fnv1a(&mut hash, r.total_refs);
                fnv1a(&mut hash, r.dram_accesses);
                for level in &r.levels {
                    fnv1a(&mut hash, level.load_hits);
                    fnv1a(&mut hash, level.load_misses);
                    fnv1a(&mut hash, level.store_hits);
                    fnv1a(&mut hash, level.store_misses);
                }
            }
        }
    }
    assert_eq!(
        hash, PINNED_FNV1A,
        "cache simulation output changed: {hash:#018x}"
    );
}
