//! Atomic chunk cursor: the work-distribution primitive behind the parallel
//! drivers.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hands out contiguous, non-overlapping `[start, end)` index ranges from
/// `0..len` to competing threads.
///
/// Each call to [`ChunkCursor::next`] claims the next chunk of at most
/// `chunk` items with a single `fetch_add`, so contention stays low even with
/// many small items. Once the range is exhausted, `next` returns `None`
/// forever.
#[derive(Debug)]
pub struct ChunkCursor {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkCursor {
    /// Create a cursor over `0..len` handing out chunks of `chunk` items.
    ///
    /// `chunk` is clamped to at least 1.
    pub fn new(len: usize, chunk: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Total number of items the cursor distributes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the cursor was created over an empty range.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Claim the next chunk, returning its `[start, end)` bounds.
    pub fn next(&self) -> Option<(usize, usize)> {
        // Relaxed is sufficient: the fetch_add itself is the only
        // synchronisation needed for mutual exclusion of ranges, and result
        // publication happens via the scope join, not via this counter.
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some((start, (start + self.chunk).min(self.len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn covers_range_exactly_once() {
        let c = ChunkCursor::new(103, 7);
        let mut seen = HashSet::new();
        while let Some((s, e)) = c.next() {
            for i in s..e {
                assert!(seen.insert(i), "index {i} handed out twice");
            }
        }
        assert_eq!(seen.len(), 103);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let c = ChunkCursor::new(0, 16);
        assert!(c.next().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn chunk_clamped_to_one() {
        let c = ChunkCursor::new(3, 0);
        assert_eq!(c.next(), Some((0, 1)));
        assert_eq!(c.next(), Some((1, 2)));
        assert_eq!(c.next(), Some((2, 3)));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let c = ChunkCursor::new(10_000, 13);
        let claimed: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(r) = c.next() {
                            mine.push(r);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = HashSet::new();
        for ranges in claimed {
            for (s, e) in ranges {
                for i in s..e {
                    assert!(seen.insert(i));
                }
            }
        }
        assert_eq!(seen.len(), 10_000);
    }
}
