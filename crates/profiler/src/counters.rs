//! Architecture-specific counter names and availability (Table III).
//!
//! The canonical counter set ([`CounterId`]) corresponds to the "source
//! counters" column of Table III. Each (system, CPU/GPU) pair exposes a
//! subset under its own names; unavailable counters are the "–" cells. The
//! dataset layer imputes zero for missing counters, so architectures with
//! sparse counter coverage (AMD GPUs above all) genuinely carry less
//! information into the model — reproducing the paper's per-architecture
//! ablation shape.

use mphpc_archsim::SystemId;
use serde::{Deserialize, Serialize};

/// Canonical hardware counters recorded during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CounterId {
    /// Total dynamic instructions.
    TotalInstructions,
    /// Branch instructions.
    BranchInstructions,
    /// Load instructions.
    LoadInstructions,
    /// Store instructions.
    StoreInstructions,
    /// Single-precision FP operations.
    Fp32Ops,
    /// Double-precision FP operations.
    Fp64Ops,
    /// Integer arithmetic operations.
    IntOps,
    /// L1 data-cache load misses.
    L1LoadMisses,
    /// L1 data-cache store misses.
    L1StoreMisses,
    /// L2 load misses.
    L2LoadMisses,
    /// L2 store misses.
    L2StoreMisses,
    /// Memory stall cycles.
    MemStallCycles,
    /// Bytes read from the filesystem.
    IoBytesRead,
    /// Bytes written to the filesystem.
    IoBytesWritten,
    /// Extended-page-table size.
    EptBytes,
}

impl CounterId {
    /// All canonical counters, in dataset column order.
    pub const ALL: [CounterId; 15] = [
        CounterId::TotalInstructions,
        CounterId::BranchInstructions,
        CounterId::LoadInstructions,
        CounterId::StoreInstructions,
        CounterId::Fp32Ops,
        CounterId::Fp64Ops,
        CounterId::IntOps,
        CounterId::L1LoadMisses,
        CounterId::L1StoreMisses,
        CounterId::L2LoadMisses,
        CounterId::L2StoreMisses,
        CounterId::MemStallCycles,
        CounterId::IoBytesRead,
        CounterId::IoBytesWritten,
        CounterId::EptBytes,
    ];

    /// Stable canonical key (used in dataset columns).
    pub fn key(&self) -> &'static str {
        match self {
            CounterId::TotalInstructions => "total_instructions",
            CounterId::BranchInstructions => "branch_instructions",
            CounterId::LoadInstructions => "load_instructions",
            CounterId::StoreInstructions => "store_instructions",
            CounterId::Fp32Ops => "fp32_ops",
            CounterId::Fp64Ops => "fp64_ops",
            CounterId::IntOps => "int_ops",
            CounterId::L1LoadMisses => "l1_load_misses",
            CounterId::L1StoreMisses => "l1_store_misses",
            CounterId::L2LoadMisses => "l2_load_misses",
            CounterId::L2StoreMisses => "l2_store_misses",
            CounterId::MemStallCycles => "mem_stall_cycles",
            CounterId::IoBytesRead => "io_bytes_read",
            CounterId::IoBytesWritten => "io_bytes_written",
            CounterId::EptBytes => "ept_bytes",
        }
    }
}

/// Whether counters were collected on the host CPU or the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterSide {
    /// Host CPU counters (PAPI).
    Cpu,
    /// Device counters (CUPTI on NVIDIA, rocProfiler on AMD).
    Gpu,
}

/// Architecture-specific counter name, or `None` if the counter is
/// unavailable on that (system, side) — a "–" cell in Table III.
pub fn counter_name(id: CounterId, system: SystemId, side: CounterSide) -> Option<&'static str> {
    use CounterId::*;
    match (system, side) {
        // The two Xeon machines and the Power9/Rome hosts expose the full
        // PAPI preset set.
        (SystemId::Quartz | SystemId::Ruby, CounterSide::Cpu)
        | (SystemId::Lassen | SystemId::Corona, CounterSide::Cpu) => Some(match id {
            TotalInstructions => "PAPI_TOT_INS",
            BranchInstructions => "PAPI_BR_INS",
            LoadInstructions => "PAPI_LD_INS",
            StoreInstructions => "PAPI_SR_INS",
            Fp32Ops => "PAPI_SP_OPS",
            Fp64Ops => "PAPI_DP_OPS",
            IntOps => "bsw::ARITH",
            L1LoadMisses => "PAPI_L1_LDM",
            L1StoreMisses => "PAPI_L1_STM",
            L2LoadMisses => "PAPI_L2_LDM",
            L2StoreMisses => "PAPI_L2_STM",
            MemStallCycles => "PAPI_MEM_SCY",
            IoBytesRead => "IO_BYTES_READ",
            IoBytesWritten => "IO_BYTES_WRITTEN",
            EptBytes => "EPT_SIZE",
        }),
        // V100 via CUPTI: rich counter set, but no integer-arithmetic or
        // page-table metrics.
        (SystemId::Lassen, CounterSide::Gpu) => match id {
            TotalInstructions => Some("inst_executed"),
            BranchInstructions => Some("cf_executed"),
            LoadInstructions => Some("inst_executed_global_loads"),
            StoreInstructions => Some("inst_executed_global_stores"),
            Fp32Ops => Some("flop_count_sp"),
            Fp64Ops => Some("flop_count_dp"),
            IntOps => None,
            L1LoadMisses => Some("local_load_requests_miss"),
            L1StoreMisses => Some("local_store_requests_miss"),
            L2LoadMisses => Some("l2_read_transactions_miss"),
            L2StoreMisses => Some("l2_write_transactions_miss"),
            MemStallCycles => Some("GINST:STL_ANY"),
            IoBytesRead => Some("IO_BYTES_READ"),
            IoBytesWritten => Some("IO_BYTES_WRITTEN"),
            EptBytes => None,
        },
        // MI50 via rocProfiler: sparse coverage — L2 traffic, memory stalls,
        // and OS-side I/O only (the paper notes AMD GPU profiling is the
        // least mature path in HPCToolkit).
        (SystemId::Corona, CounterSide::Gpu) => match id {
            L2LoadMisses => Some("TCC_MISS_sum_RD"),
            L2StoreMisses => Some("TCC_MISS_sum_WR"),
            MemStallCycles => Some("MemUnitStalled"),
            IoBytesRead => Some("IO_BYTES_READ"),
            IoBytesWritten => Some("IO_BYTES_WRITTEN"),
            TotalInstructions => Some("SQ_INSTS"),
            _ => None,
        },
        // CPU-only machines have no GPU side; custom systems expose nothing
        // until registered.
        (SystemId::Quartz | SystemId::Ruby, CounterSide::Gpu) => None,
        (SystemId::Custom(_), _) => None,
    }
}

/// The canonical counters available on a (system, side), in canonical
/// order.
pub fn available_counters(system: SystemId, side: CounterSide) -> Vec<CounterId> {
    CounterId::ALL
        .iter()
        .copied()
        .filter(|&id| counter_name(id, system, side).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_machines_expose_full_papi_set() {
        for sys in [SystemId::Quartz, SystemId::Ruby] {
            assert_eq!(available_counters(sys, CounterSide::Cpu).len(), 15);
            assert!(available_counters(sys, CounterSide::Gpu).is_empty());
        }
    }

    #[test]
    fn nvidia_gpu_missing_int_and_ept() {
        let avail = available_counters(SystemId::Lassen, CounterSide::Gpu);
        assert!(!avail.contains(&CounterId::IntOps));
        assert!(!avail.contains(&CounterId::EptBytes));
        assert!(avail.contains(&CounterId::Fp64Ops));
        assert_eq!(avail.len(), 13);
    }

    #[test]
    fn amd_gpu_is_sparsest() {
        let amd = available_counters(SystemId::Corona, CounterSide::Gpu);
        let nv = available_counters(SystemId::Lassen, CounterSide::Gpu);
        assert!(amd.len() < nv.len(), "AMD coverage must be sparsest");
        assert!(amd.contains(&CounterId::L2LoadMisses));
        assert!(amd.contains(&CounterId::MemStallCycles));
        assert!(!amd.contains(&CounterId::BranchInstructions));
    }

    #[test]
    fn names_match_table3_vocabulary() {
        assert_eq!(
            counter_name(
                CounterId::BranchInstructions,
                SystemId::Quartz,
                CounterSide::Cpu
            ),
            Some("PAPI_BR_INS")
        );
        assert_eq!(
            counter_name(
                CounterId::BranchInstructions,
                SystemId::Lassen,
                CounterSide::Gpu
            ),
            Some("cf_executed")
        );
        assert_eq!(
            counter_name(
                CounterId::MemStallCycles,
                SystemId::Corona,
                CounterSide::Gpu
            ),
            Some("MemUnitStalled")
        );
        assert_eq!(
            counter_name(CounterId::Fp64Ops, SystemId::Lassen, CounterSide::Gpu),
            Some("flop_count_dp")
        );
    }

    #[test]
    fn custom_systems_expose_nothing() {
        assert!(available_counters(SystemId::Custom(0), CounterSide::Cpu).is_empty());
    }

    #[test]
    fn keys_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for id in CounterId::ALL {
            assert!(seen.insert(id.key()));
        }
    }
}
