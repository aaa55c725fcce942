//! Lightweight, deterministic parallel-execution utilities for the `mphpc`
//! workspace.
//!
//! The collection, training, and simulation drivers in `mphpc` all share the
//! same shape of parallelism: a known list of independent work items whose
//! results must be collected *in input order* so that seeded experiments stay
//! bit-reproducible regardless of thread count. This crate provides that as
//! [`par_map`] (and friends) built on `std::thread::scope` scoped threads with an
//! atomic-cursor work queue, so no work item is ever processed twice and no
//! ordering decision is left to thread timing.
//!
//! Design notes:
//! * Results are written into pre-allocated slots by item index, making the
//!   output order independent of scheduling.
//! * Work is claimed in contiguous chunks to amortise the atomic increment;
//!   chunk size adapts to the item count so small inputs still balance.
//! * Panics in workers are propagated to the caller (the scope join
//!   re-raises), never swallowed.
//!
//! # Example
//! ```
//! let squares = mphpc_par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

mod cursor;
mod pool;

pub use cursor::ChunkCursor;
pub use pool::{
    available_threads, par_chunks_mut, par_map, par_map_init, set_thread_override, thread_override,
    ParConfig,
};
