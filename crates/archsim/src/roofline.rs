//! Roofline analysis: the classical peak-FLOP/s vs memory-bandwidth model
//! the paper's motivation invokes ("hardware properties, such as peak
//! flop/s, memory bandwidth, and cache sizes are easy to obtain").
//!
//! Used by the `roofline_report` example and the workload-design tests to
//! sanity-check where each kernel archetype sits on each machine: the
//! attainable performance at arithmetic intensity `ai` is
//! `min(peak, ai × bandwidth)`, with the ridge point `peak / bandwidth`
//! separating memory-bound from compute-bound kernels.

use crate::demand::KernelDemand;
use crate::machine::MachineSpec;
use serde::{Deserialize, Serialize};

/// A single roofline: peak compute vs sustainable memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Peak double-precision throughput in FLOP/s.
    pub peak_flops: f64,
    /// Sustainable memory bandwidth in bytes/s.
    pub mem_bw: f64,
}

impl Roofline {
    /// Arithmetic intensity (FLOP/byte) at which compute and memory limits
    /// meet.
    pub fn ridge_point(&self) -> f64 {
        if self.mem_bw <= 0.0 {
            return f64::INFINITY;
        }
        self.peak_flops / self.mem_bw
    }

    /// True if a kernel at `ai` is limited by memory on this machine.
    pub fn is_memory_bound(&self, ai: f64) -> bool {
        ai < self.ridge_point()
    }
}

/// Which resource limits a kernel on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// Limited by FP throughput.
    Compute,
    /// Limited by memory bandwidth.
    Memory,
}

impl MachineSpec {
    /// CPU-side node roofline: fp64 peak = cores × clock × SIMD lanes ×
    /// 2 (FMA), against the node's memory bandwidth.
    pub fn cpu_roofline(&self) -> Roofline {
        let c = &self.cpu;
        Roofline {
            peak_flops: c.cores_per_node as f64
                * c.clock_ghz
                * 1e9
                * c.simd_lanes_f64.max(1.0)
                * 2.0,
            mem_bw: c.mem_bw_gbps * 1e9,
        }
    }

    /// GPU-side node roofline (all GPUs on the node), if present.
    pub fn gpu_roofline(&self) -> Option<Roofline> {
        self.gpu.as_ref().map(|g| Roofline {
            peak_flops: g.gpus_per_node as f64 * g.fp64_tflops * 1e12,
            mem_bw: g.gpus_per_node as f64 * g.mem_bw_gbps * 1e9,
        })
    }
}

/// Arithmetic intensity of a kernel demand: FP operations per byte of
/// expected DRAM traffic (misses past a nominal last-level capacity).
pub fn arithmetic_intensity(demand: &KernelDemand, llc_bytes: f64) -> f64 {
    let flops = demand.instructions * (demand.mix.fp32 + demand.mix.fp64);
    let accesses = demand.instructions * (demand.mix.load + demand.mix.store);
    let miss = demand.locality.analytic_miss_ratio(llc_bytes);
    let bytes = accesses * 8.0 * miss;
    if bytes <= 0.0 {
        return f64::INFINITY;
    }
    flops / bytes
}

/// Classify a kernel on a machine's CPU roofline.
pub fn classify(demand: &KernelDemand, machine: &MachineSpec) -> Bound {
    let llc = machine
        .cpu
        .cache_levels
        .last()
        .map(|l| l.capacity_bytes as f64)
        .unwrap_or(32.0 * 1024.0 * 1024.0);
    let ai = arithmetic_intensity(demand, llc);
    if machine.cpu_roofline().is_memory_bound(ai) {
        Bound::Memory
    } else {
        Bound::Compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{CommPattern, InstructionMix, IoDemand, LocalityProfile};
    use crate::machine::{lassen, quartz, ruby};

    fn demand(fp: f64, loads: f64, streaming: f64, ws: f64) -> KernelDemand {
        KernelDemand {
            name: "k".into(),
            instructions: 1e10,
            mix: InstructionMix {
                branch: 0.05,
                load: loads,
                store: loads / 3.0,
                fp32: 0.0,
                fp64: fp,
                int_arith: 0.1,
            }
            .normalized(0.95),
            locality: LocalityProfile {
                working_set_bytes: ws,
                theta: 0.6,
                streaming,
            },
            parallel_fraction: 0.98,
            simd_fraction: 0.8,
            branch_entropy: 0.1,
            gpu_offloadable: false,
            gpu_transfer_fraction: 0.0,
            comm: CommPattern::none(),
            io: IoDemand::default(),
            iterations: 1,
        }
    }

    #[test]
    fn ridge_point_splits_memory_bound_from_compute_bound() {
        let r = Roofline {
            peak_flops: 1e12,
            mem_bw: 1e11,
        };
        assert!((r.ridge_point() - 10.0).abs() < 1e-12);
        assert!(r.is_memory_bound(5.0));
        assert!(!r.is_memory_bound(20.0));
    }

    #[test]
    fn machine_rooflines_are_ordered_sensibly() {
        // Ruby (AVX-512, 280 GB/s) out-peaks Quartz (AVX2, 130 GB/s).
        let q = quartz().cpu_roofline();
        let r = ruby().cpu_roofline();
        assert!(r.peak_flops > q.peak_flops);
        assert!(r.mem_bw > q.mem_bw);
        // Lassen's V100s dwarf its Power9 host.
        let l = lassen();
        let gpu = l.gpu_roofline().unwrap();
        assert!(gpu.peak_flops > l.cpu_roofline().peak_flops * 5.0);
        assert!(quartz().gpu_roofline().is_none());
    }

    #[test]
    fn streaming_kernel_is_memory_bound_dense_kernel_compute_bound() {
        let q = quartz();
        let stream = demand(0.1, 0.45, 0.9, 8e9);
        assert_eq!(classify(&stream, &q), Bound::Memory);
        // Heavy FP, cache-resident working set: effectively no DRAM bytes.
        let dense = demand(0.6, 0.1, 0.0, 1e6);
        assert_eq!(classify(&dense, &q), Bound::Compute);
    }

    #[test]
    fn arithmetic_intensity_monotone_in_locality() {
        let hostile = demand(0.3, 0.3, 0.8, 8e9);
        let friendly = demand(0.3, 0.3, 0.0, 1e6);
        let llc = 45e6;
        assert!(arithmetic_intensity(&friendly, llc) > arithmetic_intensity(&hostile, llc));
    }

    #[test]
    fn zero_bandwidth_degenerate() {
        let r = Roofline {
            peak_flops: 1e12,
            mem_bw: 0.0,
        };
        assert!(r.ridge_point().is_infinite());
    }
}
