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
    available_threads, par_chunks_mut, par_for_each, par_map, par_map_init, par_map_with,
    set_thread_override, thread_override, ParConfig,
};

/// Reduce the per-thread partial results of a parallel map.
///
/// `par_map_reduce(items, map, identity, fold)` is equivalent to
/// `items.iter().map(map).fold(identity, fold)` but runs the `map` in
/// parallel. The fold itself is performed sequentially over the ordered
/// mapped values, so non-commutative folds behave identically to the
/// sequential program.
pub fn par_map_reduce<T, M, A, F>(items: &[T], map: M, identity: A, mut fold: F) -> A
where
    T: Sync,
    M: Fn(usize, &T) -> A + Sync,
    A: Send,
    F: FnMut(A, A) -> A,
{
    let mapped = par_map(items, map);
    let mut acc = identity;
    for v in mapped {
        acc = fold(acc, v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_reduce_matches_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let par = par_map_reduce(&items, |_, &x| x * 3 + 1, 0u64, |a, b| a + b);
        let seq: u64 = items.iter().map(|&x| x * 3 + 1).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn map_reduce_non_commutative_fold_is_ordered() {
        let items: Vec<u32> = (0..64).collect();
        let par = par_map_reduce(
            &items,
            |_, &x| x.to_string(),
            String::new(),
            |mut a, b| {
                a.push_str(&b);
                a.push(',');
                a
            },
        );
        let mut seq = String::new();
        for x in &items {
            seq.push_str(&x.to_string());
            seq.push(',');
        }
        assert_eq!(par, seq);
    }
}
