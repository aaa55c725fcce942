//! Architecture simulator: the substitute for the paper's four physical HPC
//! systems (Table I — Quartz, Ruby, Lassen, Corona).
//!
//! The paper's pipeline needs two things from a machine: a **runtime** for an
//! application run, and **hardware counters** observed during that run. This
//! crate provides both via a hybrid analytical / trace-driven model:
//!
//! * [`machine`] — parametric machine descriptions ([`MachineSpec`]): CPU
//!   (cores, clock, IPC, SIMD, cache hierarchy), optional GPU (SMs, peak
//!   FLOP/s, memory bandwidth, host link), network, and filesystem. The four
//!   Table-I systems ship as constants via [`machine::table1_machines`].
//! * [`demand`] — the workload-facing interface: a run is a list of
//!   [`KernelDemand`]s (instruction mix, locality profile, communication and
//!   I/O demands) plus a [`RunConfig`] (nodes, ranks, GPU use).
//! * [`cache`] — a set-associative LRU multi-level cache simulator fed by a
//!   reuse-distance-driven synthetic address trace ([`trace`], a
//!   bitmap-indexed LRU stack), and a closed form analytical fallback.
//!   Produces per-level load/store miss ratios.
//! * [`cpu`] / [`gpu`] — execution-time models: cycle accounting (issue,
//!   branch misprediction, memory stalls, SIMD) bounded by node memory
//!   bandwidth for CPUs; a roofline-with-divergence model for GPUs.
//! * [`network`] — MPI cost model (point-to-point halo exchange and
//!   log-tree collectives) used for multi-node runs.
//! * [`exec`] — ties it together: [`exec::simulate_run`] returns the wall
//!   time and ground-truth [`counters::GroundTruthCounters`].
//! * [`roofline`] — classical roofline analysis (machine balance points,
//!   kernel compute/memory classification) for reporting and tests.
//! * [`noise`] — deterministic seeded log-normal perturbations modelling
//!   run-to-run variability (machine jitter) and a SplitMix64 sub-seed
//!   derivation shared across the workspace.
//!
//! Everything is deterministic given a seed; the simulator is `Send + Sync`,
//! and a reused [`cache::CacheSimulator`] allocates nothing on the per-kernel
//! hot path once its buffers have reached their high-water mark, beyond the
//! small `Vec` of per-level results it returns.

#![warn(missing_docs)]

pub mod cache;
pub mod counters;
pub mod cpu;
pub mod demand;
pub mod exec;
pub mod gpu;
pub mod machine;
pub mod network;
pub mod noise;
#[cfg(test)]
mod oracle;
pub mod roofline;
pub mod trace;

pub use counters::GroundTruthCounters;
pub use demand::{CommPattern, InstructionMix, IoDemand, KernelDemand, LocalityProfile, RunConfig};
pub use exec::{simulate_run, RunResult};
pub use machine::{CacheLevelSpec, CpuSpec, GpuSpec, IoSpec, MachineSpec, NetworkSpec, SystemId};
