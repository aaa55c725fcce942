//! Machine descriptions and the Table-I system registry.

use serde::{Deserialize, Serialize};

/// Identifier for one of the paper's four systems, or a user-defined one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SystemId {
    /// Intel Xeon E5-2695 v4 (Broadwell), CPU-only.
    Quartz,
    /// Intel Xeon CLX-8276 (Cascade Lake), CPU-only.
    Ruby,
    /// IBM Power9 + 4× NVIDIA V100.
    Lassen,
    /// AMD Rome + 8× AMD MI50.
    Corona,
    /// A system outside the Table-I set (index into a user registry).
    Custom(u32),
}

impl SystemId {
    /// The four Table-I systems in the paper's canonical order
    /// (the one-hot architecture feature uses this ordering).
    pub const TABLE1: [SystemId; 4] = [
        SystemId::Quartz,
        SystemId::Ruby,
        SystemId::Lassen,
        SystemId::Corona,
    ];

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            SystemId::Quartz => "Quartz".to_string(),
            SystemId::Ruby => "Ruby".to_string(),
            SystemId::Lassen => "Lassen".to_string(),
            SystemId::Corona => "Corona".to_string(),
            SystemId::Custom(i) => format!("Custom{i}"),
        }
    }

    /// Index in the canonical Table-I ordering, if this is a Table-I system.
    pub fn table1_index(&self) -> Option<usize> {
        Self::TABLE1.iter().position(|s| s == self)
    }
}

/// One cache level of the CPU hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelSpec {
    /// Capacity in bytes (per core for private levels, per node for shared).
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Load-to-use latency in cycles on a hit at this level.
    pub latency_cycles: f64,
    /// True if shared by all cores on the node (affects effective capacity).
    pub shared: bool,
}

impl CacheLevelSpec {
    /// `(n_sets, ways)` of this level when `sharing` ranks divide its
    /// capacity. Never panics: zero fields count as 1, a level holds at least
    /// one line, `ways` is capped at the lines there are (the set count
    /// rounds down, as with Ruby's 11-way LLC) and `n_sets` saturates at
    /// `u32::MAX`.
    pub fn geometry(&self, sharing: u32) -> (u32, u32) {
        let line_bytes = self.line_bytes.max(1) as u64;
        let lines = (self.capacity_bytes / sharing.max(1) as u64 / line_bytes).max(1);
        let ways = (self.associativity as u64).clamp(1, lines);
        ((lines / ways).min(u32::MAX as u64) as u32, ways as u32)
    }
}

/// CPU side of a machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing / family name (e.g. "Intel Xeon E5-2695 v4").
    pub model: String,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sustainable scalar instructions-per-cycle for integer-ish code.
    pub base_ipc: f64,
    /// SIMD vector width in 64-bit lanes (e.g. AVX2 = 4, AVX-512 = 8).
    pub simd_lanes_f64: f64,
    /// Branch predictor accuracy on perfectly regular branches (0..1).
    pub branch_predictor: f64,
    /// Penalty in cycles for a mispredicted branch.
    pub branch_misp_penalty: f64,
    /// Cache hierarchy, ordered L1 → last level.
    pub cache_levels: Vec<CacheLevelSpec>,
    /// DRAM latency in cycles (after a last-level miss).
    pub mem_latency_cycles: f64,
    /// Node memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Memory-level parallelism: how many outstanding misses overlap;
    /// effective stall = latency / mlp.
    pub mlp: f64,
}

/// GPU side of a machine (absent on CPU-only systems).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name (e.g. "NVIDIA V100").
    pub model: String,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Peak FP32 throughput per GPU in TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak FP64 throughput per GPU in TFLOP/s.
    pub fp64_tflops: f64,
    /// Device memory bandwidth per GPU in GB/s.
    pub mem_bw_gbps: f64,
    /// Device memory capacity in GB.
    pub mem_gb: f64,
    /// Host↔device link bandwidth in GB/s (NVLink / PCIe).
    pub host_link_gbps: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Achievable fraction of peak for well-behaved kernels (0..1).
    pub efficiency: f64,
    /// Fractional throughput lost per unit of branch divergence (0..1 scale).
    pub divergence_penalty: f64,
    /// Relative run-to-run counter noise of this GPU's profiling stack
    /// (the paper observes AMD counters are noisier than NVIDIA's).
    pub counter_noise: f64,
}

/// Inter-node network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Per-message latency in microseconds.
    pub latency_us: f64,
    /// Point-to-point bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Per-node injection bandwidth in GB/s.
    pub injection_gbps: f64,
}

/// Parallel filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoSpec {
    /// Aggregate filesystem bandwidth available to a job in GB/s.
    pub bw_gbps: f64,
    /// Per-operation latency in milliseconds.
    pub latency_ms: f64,
}

/// A complete machine description: one row of Table I plus the model
/// parameters the simulator needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// System identity.
    pub id: SystemId,
    /// CPU description.
    pub cpu: CpuSpec,
    /// GPU description, if the system has GPUs.
    pub gpu: Option<GpuSpec>,
    /// Network description.
    pub network: NetworkSpec,
    /// Filesystem description.
    pub io: IoSpec,
    /// Nodes available to the scheduler (actual partition sizes).
    pub nodes_available: u32,
    /// System-level run-to-run runtime variability (log-normal sigma).
    pub runtime_noise: f64,
    /// CPU counter measurement noise (log-normal sigma).
    pub cpu_counter_noise: f64,
}

impl MachineSpec {
    /// True if the machine has GPUs.
    pub fn has_gpu(&self) -> bool {
        self.gpu.is_some()
    }

    /// Validate the spec's invariants (used when accepting user-defined
    /// machines): positive cores/clock/bandwidth and at least one cache
    /// level, since the execution model indexes the hierarchy.
    pub fn validate(&self) -> Result<(), String> {
        let c = &self.cpu;
        if c.cores_per_node == 0 {
            return Err("cores_per_node must be positive".into());
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(c.clock_ghz) || !positive(c.base_ipc) || !positive(c.mem_bw_gbps) {
            return Err("clock, IPC and memory bandwidth must be positive".into());
        }
        if c.cache_levels.is_empty() {
            return Err("at least one cache level is required".into());
        }
        for (i, lvl) in c.cache_levels.iter().enumerate() {
            if lvl.capacity_bytes == 0 || lvl.associativity == 0 || lvl.line_bytes == 0 {
                return Err(format!("cache level {i} has zero geometry"));
            }
            // Trace line ids are in first-level lines, and every level
            // indexes its sets with them.
            let (a, b) = (c.cache_levels[0].line_bytes, lvl.line_bytes);
            if a != b {
                return Err(format!(
                    "cache level {i} has {b}-byte lines, level 0 has {a}: levels must share one line size"
                ));
            }
        }
        if let Some(g) = &self.gpu {
            if g.gpus_per_node == 0 || !positive(g.fp32_tflops) || !positive(g.mem_bw_gbps) {
                return Err("GPU spec must have positive counts and rates".into());
            }
        }
        if self.nodes_available == 0 {
            return Err("nodes_available must be positive".into());
        }
        Ok(())
    }

    /// Hardware threads a single-node job can use.
    pub fn cores(&self) -> u32 {
        self.cpu.cores_per_node
    }
}

fn kib(n: u64) -> u64 {
    n * 1024
}
fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

/// Quartz: Intel Xeon E5-2695 v4 (Broadwell), 36 cores @ 2.1 GHz, CPU-only.
pub fn quartz() -> MachineSpec {
    MachineSpec {
        id: SystemId::Quartz,
        cpu: CpuSpec {
            model: "Intel Xeon E5-2695 v4".into(),
            cores_per_node: 36,
            clock_ghz: 2.1,
            base_ipc: 1.7,
            simd_lanes_f64: 4.0, // AVX2
            branch_predictor: 0.965,
            branch_misp_penalty: 16.0,
            cache_levels: vec![
                CacheLevelSpec {
                    capacity_bytes: kib(32),
                    associativity: 8,
                    line_bytes: 64,
                    latency_cycles: 4.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: kib(256),
                    associativity: 8,
                    line_bytes: 64,
                    latency_cycles: 12.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: mib(45),
                    associativity: 20,
                    line_bytes: 64,
                    latency_cycles: 42.0,
                    shared: true,
                },
            ],
            mem_latency_cycles: 220.0,
            mem_bw_gbps: 130.0,
            mlp: 6.0,
        },
        gpu: None,
        network: NetworkSpec {
            latency_us: 1.5,
            bw_gbps: 12.0,
            injection_gbps: 12.0,
        },
        io: IoSpec {
            bw_gbps: 4.0,
            latency_ms: 1.2,
        },
        nodes_available: 3004,
        runtime_noise: 0.015,
        cpu_counter_noise: 0.01,
    }
}

/// Ruby: Intel Xeon CLX-8276 (Cascade Lake), 56 cores @ 2.2 GHz, CPU-only.
pub fn ruby() -> MachineSpec {
    MachineSpec {
        id: SystemId::Ruby,
        cpu: CpuSpec {
            model: "Intel Xeon CLX-8276".into(),
            cores_per_node: 56,
            clock_ghz: 2.2,
            base_ipc: 2.0,
            simd_lanes_f64: 8.0, // AVX-512
            branch_predictor: 0.975,
            branch_misp_penalty: 17.0,
            cache_levels: vec![
                CacheLevelSpec {
                    capacity_bytes: kib(32),
                    associativity: 8,
                    line_bytes: 64,
                    latency_cycles: 4.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: mib(1),
                    associativity: 16,
                    line_bytes: 64,
                    latency_cycles: 14.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: mib(38),
                    associativity: 11,
                    line_bytes: 64,
                    latency_cycles: 44.0,
                    shared: true,
                },
            ],
            mem_latency_cycles: 230.0,
            mem_bw_gbps: 280.0,
            mlp: 8.0,
        },
        gpu: None,
        network: NetworkSpec {
            latency_us: 1.2,
            bw_gbps: 23.0,
            injection_gbps: 23.0,
        },
        io: IoSpec {
            bw_gbps: 6.0,
            latency_ms: 1.0,
        },
        nodes_available: 1480,
        runtime_noise: 0.015,
        cpu_counter_noise: 0.01,
    }
}

/// Lassen: IBM Power9 (44 cores @ 3.5 GHz) + 4× NVIDIA V100 per node.
pub fn lassen() -> MachineSpec {
    MachineSpec {
        id: SystemId::Lassen,
        cpu: CpuSpec {
            model: "IBM Power9".into(),
            cores_per_node: 44,
            clock_ghz: 3.5,
            base_ipc: 1.6,
            simd_lanes_f64: 2.0, // VSX
            branch_predictor: 0.955,
            branch_misp_penalty: 13.0,
            cache_levels: vec![
                CacheLevelSpec {
                    capacity_bytes: kib(32),
                    associativity: 8,
                    line_bytes: 128,
                    latency_cycles: 4.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: kib(512),
                    associativity: 8,
                    line_bytes: 128,
                    latency_cycles: 13.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: mib(110),
                    associativity: 20,
                    line_bytes: 128,
                    latency_cycles: 55.0,
                    shared: true,
                },
            ],
            mem_latency_cycles: 260.0,
            mem_bw_gbps: 170.0,
            mlp: 7.0,
        },
        gpu: Some(GpuSpec {
            model: "NVIDIA V100".into(),
            gpus_per_node: 4,
            fp32_tflops: 15.7,
            fp64_tflops: 7.8,
            mem_bw_gbps: 900.0,
            mem_gb: 16.0,
            host_link_gbps: 75.0, // NVLink2
            launch_overhead_us: 8.0,
            efficiency: 0.55,
            divergence_penalty: 0.75,
            counter_noise: 0.05,
        }),
        network: NetworkSpec {
            latency_us: 1.0,
            bw_gbps: 25.0,
            injection_gbps: 25.0,
        },
        io: IoSpec {
            bw_gbps: 10.0,
            latency_ms: 0.8,
        },
        nodes_available: 795,
        runtime_noise: 0.02,
        cpu_counter_noise: 0.015,
    }
}

/// Corona: AMD Rome (48 cores @ 2.8 GHz) + 8× AMD MI50 per node.
pub fn corona() -> MachineSpec {
    MachineSpec {
        id: SystemId::Corona,
        cpu: CpuSpec {
            model: "AMD Rome".into(),
            cores_per_node: 48,
            clock_ghz: 2.8,
            base_ipc: 1.9,
            simd_lanes_f64: 4.0, // AVX2
            branch_predictor: 0.97,
            branch_misp_penalty: 18.0,
            cache_levels: vec![
                CacheLevelSpec {
                    capacity_bytes: kib(32),
                    associativity: 8,
                    line_bytes: 64,
                    latency_cycles: 4.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: kib(512),
                    associativity: 8,
                    line_bytes: 64,
                    latency_cycles: 12.0,
                    shared: false,
                },
                CacheLevelSpec {
                    capacity_bytes: mib(128),
                    associativity: 16,
                    line_bytes: 64,
                    latency_cycles: 46.0,
                    shared: true,
                },
            ],
            mem_latency_cycles: 240.0,
            mem_bw_gbps: 190.0,
            mlp: 7.0,
        },
        gpu: Some(GpuSpec {
            model: "AMD MI50".into(),
            gpus_per_node: 8,
            fp32_tflops: 13.3,
            fp64_tflops: 6.6,
            mem_bw_gbps: 1024.0,
            mem_gb: 32.0,
            host_link_gbps: 32.0, // PCIe gen4
            launch_overhead_us: 12.0,
            efficiency: 0.45,
            divergence_penalty: 0.8,
            counter_noise: 0.12,
        }),
        network: NetworkSpec {
            latency_us: 1.3,
            bw_gbps: 21.0,
            injection_gbps: 21.0,
        },
        io: IoSpec {
            bw_gbps: 8.0,
            latency_ms: 1.0,
        },
        nodes_available: 121,
        runtime_noise: 0.03,
        cpu_counter_noise: 0.012,
    }
}

/// The four Table-I systems in canonical order.
pub fn table1_machines() -> Vec<MachineSpec> {
    vec![quartz(), ruby(), lassen(), corona()]
}

/// Look up a Table-I machine by id; `None` for custom ids.
pub fn machine_by_id(id: SystemId) -> Option<MachineSpec> {
    match id {
        SystemId::Quartz => Some(quartz()),
        SystemId::Ruby => Some(ruby()),
        SystemId::Lassen => Some(lassen()),
        SystemId::Corona => Some(corona()),
        SystemId::Custom(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_core_counts() {
        let ms = table1_machines();
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0].cpu.cores_per_node, 36);
        assert_eq!(ms[1].cpu.cores_per_node, 56);
        assert_eq!(ms[2].cpu.cores_per_node, 44);
        assert_eq!(ms[3].cpu.cores_per_node, 48);
        assert!((ms[0].cpu.clock_ghz - 2.1).abs() < 1e-12);
        assert!((ms[2].cpu.clock_ghz - 3.5).abs() < 1e-12);
    }

    #[test]
    fn gpu_presence_matches_table1() {
        assert!(!quartz().has_gpu());
        assert!(!ruby().has_gpu());
        assert_eq!(lassen().gpu.as_ref().unwrap().gpus_per_node, 4);
        assert_eq!(corona().gpu.as_ref().unwrap().gpus_per_node, 8);
    }

    #[test]
    fn geometry_rounds_down_clamps_and_never_panics() {
        let level = |capacity_bytes, associativity, line_bytes| CacheLevelSpec {
            capacity_bytes,
            associativity,
            line_bytes,
            latency_cycles: 1.0,
            shared: false,
        };
        assert_eq!(level(1024, 4, 64).geometry(1), (4, 4));
        // Ruby's 11-way LLC, whole and divided among 56 ranks.
        let llc = ruby().cpu.cache_levels[2];
        assert_eq!(llc.geometry(1), (56_599, 11));
        assert_eq!(llc.geometry(56), (1_010, 11));
        // Fewer lines than ways: one set of what there is.
        assert_eq!(level(64 * 512, 512, 64).geometry(1), (1, 512));
        assert_eq!(level(64 * 3, 512, 64).geometry(1), (1, 3));
        assert_eq!(level(0, 0, 0).geometry(0), (1, 1));
        assert_eq!(level(u64::MAX, 1, 1).geometry(1), (u32::MAX, 1));
    }

    #[test]
    fn canonical_order_and_indexing() {
        for (i, id) in SystemId::TABLE1.iter().enumerate() {
            assert_eq!(id.table1_index(), Some(i));
        }
        assert_eq!(SystemId::Custom(3).table1_index(), None);
        assert_eq!(SystemId::Custom(3).name(), "Custom3");
    }

    #[test]
    fn table1_specs_validate() {
        for m in table1_machines() {
            assert!(m.validate().is_ok(), "{:?}", m.id);
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut m = quartz();
        m.cpu.cache_levels.clear();
        assert!(m.validate().is_err());
        let mut m = quartz();
        m.cpu.cores_per_node = 0;
        assert!(m.validate().is_err());
        let mut m = lassen();
        m.gpu.as_mut().unwrap().gpus_per_node = 0;
        assert!(m.validate().is_err());
        let mut m = ruby();
        m.nodes_available = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn specs_serde_round_trip() {
        let m = lassen();
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn amd_counters_noisier_than_nvidia() {
        // §VIII-B: AMD GPU counters are less reliable; the noise model must
        // reflect that or the per-architecture ablation loses its shape.
        let nv = lassen().gpu.unwrap().counter_noise;
        let amd = corona().gpu.unwrap().counter_noise;
        assert!(amd > nv);
    }
}
