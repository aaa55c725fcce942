//! Zero-allocation guard for machine assignment: the engine calls
//! `MachineAssigner::choose` once per backfill candidate, so none of the
//! five paper strategies may touch the heap there. A counting global
//! allocator enforces it, as in `crates/serve/tests/hot_path_allocs.rs`.
//!
//! One `#[test]`, because the allocation counter is process-global and
//! would observe concurrent tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mphpc_sched::cluster::table1_cluster;
use mphpc_sched::{
    Cluster, Job, MachineAssigner, ModelBased, Oracle, RandomAssign, RoundRobin, UserRoundRobin,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ITERS: u64 = 10_000;

#[test]
fn choose_allocates_nothing_for_any_paper_strategy() {
    // The Figs. 7–8 line-up, in `schedbridge::paper_strategies` order.
    let mut strategies: Vec<Box<dyn MachineAssigner>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomAssign::new(7)),
        Box::new(UserRoundRobin::new()),
        Box::new(ModelBased::new()),
        Box::new(Oracle::new()),
    ];
    let cluster = Cluster::new(table1_cluster());
    let jobs: Vec<Job> = (0..4u64)
        .map(|id| Job {
            id,
            submit_time: 0.0,
            nodes_required: 1 + (id % 2) as u32,
            gpu_capable: id < 2,
            runtimes: [4.0, 2.0, 1.0, 3.0],
            predicted_rpv: Some([1.0, 0.5, 0.25, 0.75]),
        })
        .collect();

    for s in &mut strategies {
        // Minimum over three attempts: a one-off lazy init on another
        // thread could land inside the window, a per-call allocation would
        // add ≥ ITERS to every attempt.
        let delta = (0..3)
            .map(|_| {
                let before = ALLOCS.load(Ordering::SeqCst);
                let mut sink = 0usize;
                for i in 0..ITERS {
                    let job = &jobs[i as usize % jobs.len()];
                    let m = s.choose(job, &cluster);
                    s.notify_started(job, m);
                    sink += m;
                }
                std::hint::black_box(sink);
                ALLOCS.load(Ordering::SeqCst) - before
            })
            .min()
            .unwrap();
        assert_eq!(
            delta,
            0,
            "{} allocated {delta} times over {ITERS} choose calls",
            s.name()
        );
    }

    // Positive control: the counter is actually watching.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut sink = 0usize;
    for i in 0..ITERS {
        sink += format!("{i}").len();
    }
    let control = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(sink > 0);
    assert!(
        control >= ITERS,
        "the counting allocator saw only {control} allocations from {ITERS} format! calls"
    );
}
