//! Profiling substrate: the HPCToolkit + CUPTI + rocProfiler + Hatchet
//! substitute.
//!
//! Given a [`mphpc_workloads::RunSpec`], this crate executes the run on the
//! architecture simulator and produces a [`RawProfile`] that looks like what
//! the paper's tooling produces:
//!
//! * counters carry **architecture-specific names** ([`counters`], Table
//!   III): `PAPI_BR_INS` on the Xeon machines, `cf_executed` /
//!   `flop_count_dp` on V100, `TCC_MISS_sum` / `MemUnitStalled` on MI50 —
//!   and, crucially, some canonical counters are simply *unavailable* on
//!   some architectures (the "–" cells of Table III). The AMD GPU exposes
//!   the fewest counters and carries the most measurement noise, which is
//!   the mechanism behind the paper's Fig. 3 observation that Corona-sourced
//!   counters predict worst;
//! * values are **per-rank measurements** with seeded log-normal noise
//!   ([`noisemodel`]), aggregated by taking the mean across ranks exactly as
//!   §V-B describes ([`aggregate`]);
//! * each profile carries a **calling-context tree** ([`cct`]) with per-
//!   kernel inclusive times and counters, supporting the Hatchet-style
//!   pruning/flattening the analysis layer needs;
//! * [`collect::profile_matrix`] runs a whole campaign in parallel
//!   (scoped worker threads, deterministic per-run seeds).

#![warn(missing_docs)]

pub mod aggregate;
pub mod cct;
pub mod collect;
pub mod counters;
pub mod noisemodel;

pub use cct::{CallingContextTree, CctNode};
pub use collect::{profile_matrix, profile_matrix_with_model, profile_run, RawProfile};
pub use counters::{available_counters, counter_name, CounterId, CounterSide};
