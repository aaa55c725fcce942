//! The cache-simulation counters `simulate_run_with` flushes once per run.
//!
//! One `#[test]` in a file of its own: the telemetry mode is process-global.

use mphpc_archsim::cache::CacheSimulator;
use mphpc_archsim::exec::simulate_run_with;
use mphpc_archsim::machine::quartz;
use mphpc_archsim::trace::DEFAULT_TRACE_LEN;
use mphpc_archsim::{InstructionMix, KernelDemand, LocalityProfile, RunConfig};
use mphpc_telemetry::{capture, set_mode, TelemetryMode};

fn kernel(name: &str) -> KernelDemand {
    KernelDemand {
        name: name.into(),
        instructions: 1e9,
        mix: InstructionMix {
            branch: 0.1,
            load: 0.25,
            store: 0.1,
            fp32: 0.1,
            fp64: 0.2,
            int_arith: 0.15,
        }
        .normalized(0.98),
        locality: LocalityProfile {
            working_set_bytes: 5e7,
            theta: 0.5,
            streaming: 0.2,
        },
        parallel_fraction: 0.95,
        simd_fraction: 0.5,
        branch_entropy: 0.3,
        gpu_offloadable: false,
        gpu_transfer_fraction: 0.0,
        comm: Default::default(),
        io: Default::default(),
        iterations: 2,
    }
}

fn counter(name: &str) -> Option<u64> {
    capture().counter(name)
}

#[test]
fn cache_counters_flush_once_per_run_and_only_when_enabled() {
    let machine = quartz();
    let kernels = [kernel("a"), kernel("b")];
    let config = RunConfig::one_node(36, false);
    let refs = 2 * DEFAULT_TRACE_LEN as u64;

    mphpc_telemetry::reset();
    let mut sim = CacheSimulator::new();
    let quiet = simulate_run_with(&machine, &kernels, config, 5, &mut sim).unwrap();
    assert_eq!(counter("archsim.cache.refs"), None, "off records nothing");

    set_mode(TelemetryMode::Summary);
    let counted = simulate_run_with(&machine, &kernels, config, 5, &mut sim).unwrap();
    assert_eq!(quiet, counted, "counting must not change the run");
    assert_eq!(counter("archsim.cache.kernels"), Some(2));
    assert_eq!(counter("archsim.cache.refs"), Some(refs));
    let sets = counter("archsim.cache.sets_touched").expect("sets_touched flushed");
    let levels = machine.cpu.cache_levels.len() as u64;
    assert!(sets > 0 && sets <= refs * levels, "sets touched {sets}");
    let first = counter("archsim.cache.first_touches").expect("first_touches flushed");
    assert!(first >= 2 && first <= refs, "first touches {first}");
    assert_eq!(counter("archsim.cache.retouches"), Some(refs - first));

    // The analytic model simulates references but touches no sets or lines.
    let mut analytic = CacheSimulator::analytic();
    simulate_run_with(&machine, &kernels, config, 5, &mut analytic).unwrap();
    assert_eq!(counter("archsim.cache.kernels"), Some(4));
    assert_eq!(counter("archsim.cache.refs"), Some(2 * refs));
    assert_eq!(counter("archsim.cache.sets_touched"), Some(sets));
    assert_eq!(counter("archsim.cache.first_touches"), Some(first));
    assert_eq!(counter("archsim.cache.retouches"), Some(refs - first));

    set_mode(TelemetryMode::Off);
    mphpc_telemetry::reset();
}
