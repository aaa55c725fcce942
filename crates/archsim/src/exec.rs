//! Run orchestration: demands × machine × run configuration → wall time and
//! ground-truth counters.
//!
//! [`simulate_run`] executes each kernel of an application (sequentially, as
//! phases of a time step) on either the CPU or GPU model, adds communication
//! and I/O costs, applies the machine's run-to-run jitter, and returns both
//! the total and a per-kernel breakdown (which the profiler crate turns into
//! a calling-context tree).

use crate::cache::{CacheModel, CacheSimulator};
use crate::counters::GroundTruthCounters;
use crate::cpu;
use crate::demand::{KernelDemand, RunConfig};
use crate::gpu;
use crate::machine::MachineSpec;
use crate::network::CommModel;
use crate::noise::{lognormal_perturb, rng_for};

/// Fraction of offloaded work that must be re-executed as host-side driver
/// instructions (kernel launches, argument marshalling, staging), spread
/// over the ranks driving the devices.
pub const HOST_DRIVER_FRACTION: f64 = 0.10;

/// Per-kernel slice of a run result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// Kernel name (CCT frame label).
    pub name: String,
    /// Wall seconds attributed to this kernel (compute + comm + I/O).
    pub seconds: f64,
    /// Per-rank ground-truth counters for this kernel.
    pub counters: GroundTruthCounters,
    /// True if the kernel executed on the GPU.
    pub on_gpu: bool,
}

/// Result of simulating one application run on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Machine the run executed on.
    pub machine: crate::machine::SystemId,
    /// Run layout.
    pub config: RunConfig,
    /// True if any kernel executed on the GPU (the paper's "Uses GPU"
    /// feature and the counter-set selector).
    pub used_gpu: bool,
    /// Total wall seconds including jitter.
    pub wall_seconds: f64,
    /// Per-kernel breakdown (pre-jitter).
    pub kernels: Vec<KernelOutcome>,
    /// Run totals (per-rank mean counters, summed over kernels).
    pub totals: GroundTruthCounters,
}

/// Simulate a run with a caller-provided cache simulator (reusable across
/// runs to avoid re-allocating trace buffers).
pub fn simulate_run_with(
    machine: &MachineSpec,
    demands: &[KernelDemand],
    config: RunConfig,
    seed: u64,
    cache_sim: &mut CacheSimulator,
) -> Result<RunResult, String> {
    machine.validate()?;
    if demands.is_empty() {
        return Err("run has no kernels".to_string());
    }
    for d in demands {
        d.validate()?;
    }
    let _run_span = mphpc_telemetry::span!(
        "archsim.run",
        machine = machine.id.name(),
        kernels = demands.len()
    );
    let ranks = config.total_ranks().max(1);
    let ranks_on_node = config.ranks_per_node.max(1);
    let single_core = ranks == 1;
    let comm = CommModel::new(&machine.network, ranks, config.nodes);

    let mut kernels = Vec::with_capacity(demands.len());
    let mut totals = GroundTruthCounters::default();
    let mut wall = 0.0;
    let mut n_gpu_kernels = 0u64;
    // Cache-simulation work, accumulated locally and flushed once per run.
    let telemetry = mphpc_telemetry::enabled();
    let (mut cache_refs, mut cache_sets_touched) = (0u64, 0u64);
    let (mut cache_first_touches, mut cache_retouches) = (0u64, 0u64);

    for (ki, d) in demands.iter().enumerate() {
        let offload = config.use_gpu && machine.has_gpu() && d.gpu_offloadable;
        let mut rng = rng_for(seed, &[0xCAC4E, ki as u64]);

        let mix = d.mix;
        let iters = d.iterations as f64;
        let instr_rank =
            cpu::instructions_per_rank(d.instructions, d.parallel_fraction, ranks) * iters;

        let loads = instr_rank * mix.load;
        let stores = instr_rank * mix.store;
        let store_fraction = if mix.load + mix.store > 0.0 {
            mix.store / (mix.load + mix.store)
        } else {
            0.0
        };

        let mut counters = GroundTruthCounters {
            total_instructions: instr_rank,
            branch_instructions: instr_rank * mix.branch,
            load_instructions: loads,
            store_instructions: stores,
            fp32_ops: instr_rank * mix.fp32,
            fp64_ops: instr_rank * mix.fp64,
            int_ops: instr_rank * mix.int_arith,
            ept_bytes: page_table_bytes(d.locality.working_set_bytes),
            io_bytes_read: d.io.read_bytes / ranks as f64,
            io_bytes_written: d.io.write_bytes / ranks as f64,
            ..GroundTruthCounters::default()
        };

        let (compute_seconds, on_gpu) = if offload {
            let gspec = machine.gpu.as_ref().expect("offload implies GPU");
            let n_gpus = gpu::gpus_used(gspec, config.nodes, single_core);
            let out = gpu::run_kernel(d, gspec, n_gpus);
            // The serial portion runs on one host core at a nominal
            // 2 cycles/instruction (issue + typical stalls).
            let serial_instr = d.instructions * (1.0 - d.parallel_fraction) * iters;
            let t_serial = serial_instr * 2.0 / (machine.cpu.clock_ghz * 1e9);
            // Host driver work: launching kernels, marshalling arguments,
            // and staging data costs a fixed fraction of the offloaded work
            // in host instructions, divided across the ranks driving the
            // GPUs. This is what keeps one-core-plus-one-GPU runs from
            // showing unphysical speedups over one-core CPU runs — the
            // single host core becomes the feeder bottleneck.
            let driver_instr =
                HOST_DRIVER_FRACTION * d.instructions * d.parallel_fraction * iters / ranks as f64;
            let t_driver = driver_instr * 2.0 / (machine.cpu.clock_ghz * 1e9);
            // Device cache behaviour: analytic miss ratios at nominal V100/
            // MI50-class L1 (128 KiB/CU-share) and L2 (4 MiB) capacities.
            let l1_miss = d.locality.analytic_miss_ratio(128.0 * 1024.0);
            let l2_miss = d.locality.analytic_miss_ratio(4.0 * 1024.0 * 1024.0);
            counters.l1_load_misses = loads * l1_miss;
            counters.l1_store_misses = stores * l1_miss;
            counters.l2_load_misses = loads * l2_miss.min(l1_miss);
            counters.l2_store_misses = stores * l2_miss.min(l1_miss);
            // Nominal 1.4 GHz device clock for stall-cycle accounting.
            counters.mem_stall_cycles = out.mem_stall_fraction * out.seconds * 1.4e9;
            ((out.seconds + t_serial + t_driver), true)
        } else {
            let hierarchy = cache_sim.run(
                &d.locality,
                store_fraction,
                &machine.cpu,
                ranks_on_node,
                &mut rng,
            );
            if telemetry {
                cache_refs += hierarchy.total_refs;
                cache_sets_touched += cache_sim.sets_touched();
                // The trace model's split of its references: compulsory
                // misses, and those whose fate a level had to decide.
                if cache_sim.model == CacheModel::Trace {
                    cache_first_touches += cache_sim.first_touches();
                    cache_retouches += hierarchy.total_refs - cache_sim.first_touches();
                }
            }
            let out = cpu::run_kernel(d, &machine.cpu, ranks, config.nodes, &hierarchy);
            counters.l1_load_misses = loads * hierarchy.global_load_miss_ratio(0);
            counters.l1_store_misses = stores * hierarchy.global_store_miss_ratio(0);
            let l2 = 1.min(hierarchy.levels.len() - 1);
            counters.l2_load_misses = loads * hierarchy.global_load_miss_ratio(l2);
            counters.l2_store_misses = stores * hierarchy.global_store_miss_ratio(l2);
            counters.mem_stall_cycles = out.mem_stall_cycles;
            (out.seconds, false)
        };
        n_gpu_kernels += u64::from(on_gpu);

        let comm_seconds = comm.iteration_cost(&d.comm) * iters;
        let io_seconds = io_time(machine, d);
        let seconds = compute_seconds + comm_seconds + io_seconds;
        wall += seconds;
        totals.accumulate(&counters);
        kernels.push(KernelOutcome {
            name: d.name.clone(),
            seconds,
            counters,
            on_gpu,
        });
    }

    if telemetry {
        let n_cpu_kernels = demands.len() as u64 - n_gpu_kernels;
        mphpc_telemetry::counter_add("archsim.runs", 1);
        mphpc_telemetry::counter_add("archsim.kernels.cpu", n_cpu_kernels);
        mphpc_telemetry::counter_add("archsim.kernels.gpu", n_gpu_kernels);
        mphpc_telemetry::counter_add("archsim.cache.kernels", n_cpu_kernels);
        mphpc_telemetry::counter_add("archsim.cache.refs", cache_refs);
        mphpc_telemetry::counter_add("archsim.cache.sets_touched", cache_sets_touched);
        mphpc_telemetry::counter_add("archsim.cache.first_touches", cache_first_touches);
        mphpc_telemetry::counter_add("archsim.cache.retouches", cache_retouches);
    }
    let used_gpu = kernels.iter().any(|k| k.on_gpu);
    let mut jitter_rng = rng_for(seed, &[0x71773]);
    let wall_seconds = lognormal_perturb(wall, machine.runtime_noise, &mut jitter_rng);

    Ok(RunResult {
        machine: machine.id,
        config,
        used_gpu,
        wall_seconds,
        kernels,
        totals,
    })
}

/// Simulate a run with a fresh trace-driven cache simulator.
pub fn simulate_run(
    machine: &MachineSpec,
    demands: &[KernelDemand],
    config: RunConfig,
    seed: u64,
) -> Result<RunResult, String> {
    let mut sim = CacheSimulator::new();
    simulate_run_with(machine, demands, config, seed, &mut sim)
}

fn io_time(machine: &MachineSpec, d: &KernelDemand) -> f64 {
    let bytes = d.io.read_bytes + d.io.write_bytes;
    if bytes <= 0.0 && d.io.ops == 0 {
        return 0.0;
    }
    bytes / (machine.io.bw_gbps * 1e9) + d.io.ops as f64 * machine.io.latency_ms * 1e-3
}

/// Size of the page-table mapping for a working set (4 KiB pages × 8-byte
/// entries), the source of the paper's "Extended Page Table" feature.
pub fn page_table_bytes(working_set_bytes: f64) -> f64 {
    (working_set_bytes / 4096.0).ceil() * 8.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{CommPattern, InstructionMix, IoDemand, LocalityProfile};
    use crate::machine::{corona, lassen, quartz, ruby};

    fn kernel(name: &str, gpu: bool, entropy: f64, fp: f64) -> KernelDemand {
        KernelDemand {
            name: name.into(),
            instructions: 5e9,
            mix: InstructionMix {
                branch: 0.1,
                load: 0.25,
                store: 0.1,
                fp32: fp / 2.0,
                fp64: fp / 2.0,
                int_arith: 0.15,
            }
            .normalized(0.98),
            locality: LocalityProfile {
                working_set_bytes: 5e7,
                theta: 0.3,
                streaming: 0.1,
            },
            parallel_fraction: 0.98,
            simd_fraction: 0.6,
            branch_entropy: entropy,
            gpu_offloadable: gpu,
            gpu_transfer_fraction: 0.02,
            comm: CommPattern {
                p2p_neighbors: 6,
                p2p_bytes: 32_768.0,
                allreduce_bytes: 8.0,
                alltoall_bytes: 0.0,
                barriers: 0,
            },
            io: IoDemand {
                read_bytes: 1e8,
                write_bytes: 1e7,
                ops: 10,
            },
            iterations: 5,
        }
    }

    #[test]
    fn empty_run_rejected() {
        assert!(simulate_run(&quartz(), &[], RunConfig::one_core(false), 1).is_err());
    }

    #[test]
    fn invalid_machine_rejected_not_panicked() {
        let ks = vec![kernel("a", false, 0.2, 0.3)];
        let mut no_levels = quartz();
        no_levels.cpu.cache_levels.clear();
        let mut zero_line = quartz();
        zero_line.cpu.cache_levels[1].line_bytes = 0;
        for machine in [no_levels, zero_line] {
            let mut sim = CacheSimulator::new();
            for config in [RunConfig::one_core(false), RunConfig::one_node(36, false)] {
                assert!(simulate_run_with(&machine, &ks, config, 1, &mut sim).is_err());
            }
        }
    }

    /// Trace line ids are in first-level lines; a level with another line
    /// size would index its sets with the wrong ids.
    #[test]
    fn mixed_line_sizes_rejected_with_a_message() {
        let mut machine = quartz();
        machine.id = crate::machine::SystemId::Custom(0);
        machine.cpu.cache_levels[2].line_bytes = 128;
        let ks = vec![kernel("a", false, 0.2, 0.3)];
        assert_eq!(
            simulate_run(&machine, &ks, RunConfig::one_core(false), 1).unwrap_err(),
            "cache level 2 has 128-byte lines, level 0 has 64: levels must share one line size"
        );
    }

    #[test]
    fn invalid_kernel_rejected() {
        let mut k = kernel("bad", false, 0.2, 0.3);
        k.iterations = 0;
        assert!(simulate_run(&quartz(), &[k], RunConfig::one_core(false), 1).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ks = vec![kernel("a", false, 0.2, 0.3), kernel("b", false, 0.5, 0.1)];
        let r1 = simulate_run(&quartz(), &ks, RunConfig::one_node(36, false), 9).unwrap();
        let r2 = simulate_run(&quartz(), &ks, RunConfig::one_node(36, false), 9).unwrap();
        assert_eq!(r1, r2);
        let r3 = simulate_run(&quartz(), &ks, RunConfig::one_node(36, false), 10).unwrap();
        assert_ne!(r1.wall_seconds, r3.wall_seconds, "seed changes jitter");
    }

    #[test]
    fn totals_sum_kernels_and_are_consistent() {
        let ks = vec![kernel("a", false, 0.2, 0.3), kernel("b", false, 0.5, 0.1)];
        let r = simulate_run(&ruby(), &ks, RunConfig::one_node(56, false), 3).unwrap();
        assert_eq!(r.kernels.len(), 2);
        let sum: f64 = r
            .kernels
            .iter()
            .map(|k| k.counters.total_instructions)
            .sum();
        assert!((sum - r.totals.total_instructions).abs() < 1e-6 * sum);
        assert!(r.totals.is_sane());
        assert!(r.totals.is_consistent());
        assert!(!r.used_gpu);
    }

    #[test]
    fn gpu_machine_offloads_gpu_kernels() {
        let ks = vec![
            kernel("a", true, 0.1, 0.5),
            kernel("serial", false, 0.1, 0.1),
        ];
        let r = simulate_run(&lassen(), &ks, RunConfig::one_node(44, true), 4).unwrap();
        assert!(r.used_gpu);
        assert!(r.kernels[0].on_gpu);
        assert!(!r.kernels[1].on_gpu);
        // Same app on a CPU-only machine never uses a GPU.
        let rc = simulate_run(&quartz(), &ks, RunConfig::one_node(36, true), 4).unwrap();
        assert!(!rc.used_gpu);
    }

    #[test]
    fn data_parallel_fp_app_prefers_gpus() {
        let ks = vec![kernel("sweep", true, 0.05, 0.6)];
        let cfg_gpu = RunConfig::one_node(44, true);
        let t_lassen = simulate_run(&lassen(), &ks, cfg_gpu, 5)
            .unwrap()
            .wall_seconds;
        let t_quartz = simulate_run(&quartz(), &ks, RunConfig::one_node(36, true), 5)
            .unwrap()
            .wall_seconds;
        assert!(
            t_lassen < t_quartz,
            "GPU run {t_lassen} should beat CPU {t_quartz}"
        );
    }

    #[test]
    fn branchy_app_prefers_cpus() {
        // Fully random branching, almost no FP, cache-resident working set:
        // the regime where warp divergence erases the GPU's advantage.
        let mut k = kernel("walk", true, 1.0, 0.02);
        k.mix.branch = 0.35;
        k.mix.int_arith = 0.3;
        k.mix.load = 0.2;
        k.mix.store = 0.05;
        k.mix = k.mix.normalized(0.98);
        k.locality.working_set_bytes = 1e6;
        k.locality.theta = 0.1;
        k.parallel_fraction = 0.95;
        let ks = vec![k];
        let t_gpu = simulate_run(&corona(), &ks, RunConfig::one_node(48, true), 6)
            .unwrap()
            .wall_seconds;
        let t_cpu = simulate_run(&ruby(), &ks, RunConfig::one_node(56, false), 6)
            .unwrap()
            .wall_seconds;
        assert!(
            t_cpu < t_gpu,
            "branchy code: ruby {t_cpu} should beat corona-gpu {t_gpu}"
        );
    }

    #[test]
    fn two_nodes_add_comm_but_split_work() {
        let ks = vec![kernel("halo", false, 0.2, 0.3)];
        let one = simulate_run(&quartz(), &ks, RunConfig::one_node(36, false), 7)
            .unwrap()
            .wall_seconds;
        let two = simulate_run(&quartz(), &ks, RunConfig::two_nodes(36, false), 7)
            .unwrap()
            .wall_seconds;
        // Parallelisable work: two nodes should help despite comm.
        assert!(two < one, "two nodes {two} vs one {one}");
    }

    #[test]
    fn io_time_component() {
        let m = quartz();
        let mut k = kernel("io", false, 0.1, 0.1);
        k.io = IoDemand {
            read_bytes: 4e9,
            write_bytes: 4e9,
            ops: 100,
        };
        assert!(io_time(&m, &k) > 1.0, "8 GB at 4 GB/s is at least 2 s");
        k.io = IoDemand::default();
        assert_eq!(io_time(&m, &k), 0.0);
    }

    #[test]
    fn page_table_scales_with_working_set() {
        assert_eq!(page_table_bytes(4096.0), 8.0);
        assert_eq!(page_table_bytes(8192.0), 16.0);
        assert!(page_table_bytes(1e9) > page_table_bytes(1e6));
    }

    #[test]
    fn per_rank_counters_shrink_with_scale() {
        let ks = vec![kernel("a", false, 0.2, 0.3)];
        let one_core = simulate_run(&quartz(), &ks, RunConfig::one_core(false), 8).unwrap();
        let one_node = simulate_run(&quartz(), &ks, RunConfig::one_node(36, false), 8).unwrap();
        assert!(
            one_node.totals.total_instructions < one_core.totals.total_instructions,
            "per-rank mean instructions must fall as ranks rise"
        );
    }
}
