//! Multi-resource scheduling simulation (§VII of the paper).
//!
//! A discrete-event simulator of a **global FCFS queue with EASY
//! backfilling** (Algorithm 1) feeding four machines, where the `Machine`
//! function that assigns jobs to machines is pluggable (Algorithm 2's
//! strategies):
//!
//! * [`strategy::RoundRobin`] — rotate across machines per started job;
//! * [`strategy::RandomAssign`] — uniform random machine per job;
//! * [`strategy::UserRoundRobin`] — "typical user behaviour": GPU-capable
//!   jobs round-robin over the GPU machines, CPU-only jobs over the CPU
//!   machines;
//! * [`strategy::ModelBased`] — pick the machine with the best predicted
//!   relative performance, falling back to the next best while machines
//!   are full (Algorithm 2);
//! * [`strategy::Oracle`] — same, but using true runtimes (an upper bound
//!   the paper does not plot; useful for calibrating how much of the
//!   oracle gap the model closes).
//!
//! Jobs carry their *true* runtime on every machine (from the paired
//! dataset runs, exactly like the paper: "we use the observed run times on
//! each machine from the data set"), plus the model's predicted RPV for the
//! model-based strategy. [`metrics`] reports makespan and average bounded
//! slowdown (Figs. 7–8).
//!
//! There is one event loop, [`engine`]: [`simulate`] for a plain job list,
//! [`simulate_full`] when jobs have dependencies ([`dag`] lowers workflows
//! onto it). Jobs whose RPVs come from an [`RpvProvider`] ([`federation`])
//! get them from [`predict_rpvs`] before the loop, in the calls its decision
//! points would make. The engine it replaced is a `cfg(test)` oracle
//! (`reference.rs`) that the in-crate suite holds it bit-identical to.

#![warn(missing_docs)]

pub mod audit;
pub mod calendar;
pub mod cluster;
pub mod dag;
pub mod engine;
pub mod federation;
pub mod job;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod strategy;
pub mod workload;

pub use audit::InvariantAuditor;
pub use calendar::{CalendarQueue, EventKey};
pub use cluster::{Cluster, MachineConfig};
pub use dag::{simulate_workflows, Task, Workflow, WorkflowSimResult};
pub use engine::{predict_rpvs, simulate, simulate_full, ScaleStats, SimConfig, SimResult};
pub use federation::{row_bits, FederatedRpv, FederationStats, FnRpvProvider, RpvProvider};
pub use job::Job;
pub use metrics::{avg_bounded_slowdown, makespan, SLOWDOWN_BOUND_SECONDS};
pub use strategy::{MachineAssigner, ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin};
pub use workload::{poisson_arrivals, sample_jobs_indexed, JobTemplate};
