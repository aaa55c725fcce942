//! Scoped parallel drivers: ordered map, for-each, and chunked mutation.

use crate::cursor::ChunkCursor;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker-thread cap consulted by [`ParConfig::resolve`] when
/// a config does not pin a thread count. 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cap the worker-thread count of every driver whose [`ParConfig`] does
/// not pin one explicitly; `None` restores hardware parallelism.
///
/// Intended for determinism tests and benchmark rigs that need to sweep
/// thread counts without plumbing a config through every call site. The
/// drivers guarantee bit-identical results for any thread count, and this
/// knob is how tests prove it.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The currently active global thread override, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => None,
        n => Some(n),
    }
}

/// Tuning knobs for the parallel drivers.
///
/// The defaults (`threads = None`, `chunk = None`) pick the number of
/// available hardware threads and a chunk size that gives each thread roughly
/// four chunks, which balances load without excessive atomic traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParConfig {
    /// Worker thread count; `None` means [`available_threads`]. A value of
    /// 0 or 1 runs sequentially on the caller thread.
    pub threads: Option<usize>,
    /// Items claimed per atomic increment; `None` derives it from the input
    /// size and thread count.
    pub chunk: Option<usize>,
}

impl ParConfig {
    /// Run everything on the caller thread; useful for debugging and for
    /// making benchmarks of sequential baselines honest.
    pub fn sequential() -> Self {
        Self {
            threads: Some(1),
            chunk: None,
        }
    }

    /// Use exactly `n` worker threads.
    pub fn with_threads(n: usize) -> Self {
        Self {
            threads: Some(n),
            chunk: None,
        }
    }

    fn resolve(&self, items: usize) -> (usize, usize) {
        let threads = self
            .threads
            .or_else(thread_override)
            .unwrap_or_else(available_threads)
            .max(1);
        let threads = threads.min(items.max(1));
        let chunk = self.chunk.unwrap_or_else(|| (items / (threads * 4)).max(1));
        (threads, chunk)
    }
}

/// Number of hardware threads available to this process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Slot buffer that lets disjoint indices be written from multiple threads.
///
/// Safety contract: every index is written at most once, and only by the
/// thread that claimed it from the `ChunkCursor`; the buffer is only read
/// after all writers have been joined.
struct SlotBuffer<R> {
    slots: UnsafeCell<Vec<MaybeUninit<R>>>,
}

// SAFETY: access is coordinated by ChunkCursor (disjoint ranges) and the
// scope join provides the happens-before edge for reads.
unsafe impl<R: Send> Sync for SlotBuffer<R> {}

impl<R> SlotBuffer<R> {
    fn new(len: usize) -> Self {
        let mut slots = Vec::with_capacity(len);
        for _ in 0..len {
            slots.push(MaybeUninit::uninit());
        }
        Self {
            slots: UnsafeCell::new(slots),
        }
    }

    /// SAFETY: caller must hold exclusive claim to `idx`.
    unsafe fn write(&self, idx: usize, value: R) {
        let slots = &mut *self.slots.get();
        slots[idx].write(value);
    }

    /// SAFETY: caller must guarantee all `len` slots were written and all
    /// writers joined.
    unsafe fn into_vec(self) -> Vec<R> {
        let slots = self.slots.into_inner();
        // Reinterpret Vec<MaybeUninit<R>> as Vec<R>; every slot is
        // initialised per the contract.
        let mut slots = std::mem::ManuallyDrop::new(slots);
        Vec::from_raw_parts(slots.as_mut_ptr() as *mut R, slots.len(), slots.capacity())
    }
}

/// Map `f` over `items` in parallel, preserving input order in the output.
///
/// `f` receives the item index alongside the item so seeded per-item work
/// (e.g. deriving an RNG sub-seed) stays deterministic.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, ParConfig::default(), f)
}

/// [`par_map`] with explicit configuration.
#[allow(clippy::needless_range_loop)]
pub(crate) fn par_map_with<T, R, F>(items: &[T], cfg: ParConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let (threads, chunk) = cfg.resolve(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = ChunkCursor::new(items.len(), chunk);
    let out = SlotBuffer::<R>::new(items.len());
    let ctx = mphpc_telemetry::span_context();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _ctx = ctx.adopt();
                while let Some((start, end)) = cursor.next() {
                    for i in start..end {
                        let v = f(i, &items[i]);
                        // SAFETY: i came from the cursor, claimed exactly once.
                        unsafe { out.write(i, v) };
                    }
                }
            });
        }
    });
    // SAFETY: cursor exhausted => every slot written; scope join done.
    unsafe { out.into_vec() }
}

/// Map with per-worker mutable state: `init` runs once per worker thread
/// and the resulting state is passed to every `f` call that worker makes.
///
/// This is the reuse hook for expensive per-worker scratch (e.g. the
/// trace-driven cache simulator's buffers in the collection driver):
/// allocation happens `threads` times instead of `items.len()` times.
/// Output order is input order, exactly as [`par_map`].
#[allow(clippy::needless_range_loop)]
pub fn par_map_init<T, R, S, I, F>(items: &[T], cfg: ParConfig, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let (threads, chunk) = cfg.resolve(items.len());
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let cursor = ChunkCursor::new(items.len(), chunk);
    let out = SlotBuffer::<R>::new(items.len());
    let ctx = mphpc_telemetry::span_context();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _ctx = ctx.adopt();
                let mut state = init();
                while let Some((start, end)) = cursor.next() {
                    for i in start..end {
                        let v = f(&mut state, i, &items[i]);
                        // SAFETY: i came from the cursor, claimed exactly once.
                        unsafe { out.write(i, v) };
                    }
                }
            });
        }
    });
    // SAFETY: cursor exhausted => every slot written; scope join done.
    unsafe { out.into_vec() }
}

/// Mutate `data` in parallel by disjoint chunks of `chunk_len` elements.
///
/// `f` receives the chunk index and the mutable chunk. This is the in-place
/// counterpart of [`par_map`] used by the matrix and simulation kernels.
#[allow(clippy::needless_range_loop)]
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let threads = thread_override()
        .unwrap_or_else(available_threads)
        .min(n_chunks)
        .max(1);
    if threads <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }
    let cursor = ChunkCursor::new(n_chunks, 1);
    // Collect raw chunk pointers up front so workers can index them.
    let chunks: Vec<&mut [T]> = data.chunks_mut(chunk_len).collect();
    let chunks: Vec<UnsafeSendPtr<T>> = chunks
        .into_iter()
        .map(|c| UnsafeSendPtr {
            ptr: c.as_mut_ptr(),
            len: c.len(),
        })
        .collect();
    let ctx = mphpc_telemetry::span_context();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _ctx = ctx.adopt();
                while let Some((start, end)) = cursor.next() {
                    for ci in start..end {
                        let c = &chunks[ci];
                        // SAFETY: chunks are disjoint by construction and each
                        // chunk index is claimed exactly once.
                        let slice = unsafe { std::slice::from_raw_parts_mut(c.ptr, c.len) };
                        f(ci, slice);
                    }
                }
            });
        }
    });
}

struct UnsafeSendPtr<T> {
    ptr: *mut T,
    len: usize,
}
// SAFETY: pointers refer to disjoint sub-slices of one exclusive borrow.
unsafe impl<T: Send> Sync for UnsafeSendPtr<T> {}
unsafe impl<T: Send> Send for UnsafeSendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..10_000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single_item() {
        let out = par_map(&[42u32], |_, &x| x + 1);
        assert_eq!(out, vec![43]);
    }

    #[test]
    fn sequential_config_runs_inline() {
        let tid = std::thread::current().id();
        let out = par_map_with(&[1, 2, 3], ParConfig::sequential(), |_, &x| {
            assert_eq!(std::thread::current().id(), tid);
            x
        });
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..517).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 8, 32] {
            let got = par_map_with(&items, ParConfig::with_threads(threads), |_, &x| {
                x.wrapping_mul(2654435761)
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_disjoint_writes() {
        let mut data = vec![0u64; 1003];
        par_chunks_mut(&mut data, 17, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci as u64 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 17) as u64 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_chunk_larger_than_data() {
        let mut data = vec![1u32; 5];
        par_chunks_mut(&mut data, 100, |ci, chunk| {
            assert_eq!(ci, 0);
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert_eq!(data, vec![2; 5]);
    }

    #[test]
    fn par_map_init_reuses_state_and_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<u64> = (0..2000).collect();
        let out = par_map_init(
            &items,
            ParConfig::with_threads(4),
            || {
                INITS.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, i, &x| {
                scratch.push(x);
                x + i as u64
            },
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
        let inits = INITS.load(Ordering::Relaxed);
        assert!(inits <= 4, "at most one init per worker, got {inits}");
    }

    #[test]
    fn par_map_init_sequential_single_state() {
        let items = vec![1u32, 2, 3];
        let out = par_map_init(
            &items,
            ParConfig::sequential(),
            || 0u32,
            |acc, _, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(out, vec![1, 3, 6], "sequential state threads through");
    }

    #[test]
    fn thread_override_caps_unpinned_configs() {
        // Safe to race with sibling tests: a lower cap never changes
        // results, only how many workers produce them.
        set_thread_override(Some(2));
        assert_eq!(thread_override(), Some(2));
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |_, &x| x + 1);
        assert_eq!(out, (1..=257).collect::<Vec<u64>>());
        // Explicitly pinned configs are unaffected.
        let (threads, _) = ParConfig::with_threads(5).resolve(100);
        assert_eq!(threads, 5);
        set_thread_override(None);
        assert_eq!(thread_override(), None);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        par_map_with(&items, ParConfig::with_threads(4), |_, &x| {
            if x == 57 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn drops_are_correct_for_owned_results() {
        // Results that own heap memory must be moved out intact.
        let items: Vec<usize> = (0..256).collect();
        let out = par_map(&items, |_, &x| vec![x; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
    }
}
