//! `mphpc-perf`: one command that measures the `mphpc` data path — collect,
//! train, serve, schedule — end to end and layer by layer.
//!
//! The program under test runs with its own telemetry off. The harness
//! measures each layer from outside, by timing calls into the layer's public
//! functions. See `README.md` for the workloads, the metrics, which metric
//! each layer should move, and how to read a result.

pub mod cli;
pub mod compare;
pub mod loadgen;
pub mod report;
pub mod run;
pub mod spec;
pub mod stages;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod yardstick;
