//! BPMF allocates per run and per iteration, never per rating or per
//! entity.
//!
//! A clock-free guard for the host cost of the application: the same
//! factorization problem (same users, items, K, ranks, iterations) with
//! four times the ratings must make exactly as many heap allocations.
//! Everything sized by the ratings — the vectors the sampler reads once
//! per rating, the per-entity precision and its factor — lives in
//! buffers built once per side per iteration, and the reads go straight
//! to the replica or the node-shared window. Counted by a global
//! allocator wrapper, so the assertion is exact and immune to host load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bpmf::{hy_bpmf, ori_bpmf, BpmfConfig, BpmfReport, Dataset, SyntheticSpec};
use collectives::Tuning;
use msim::{Ctx, ExecMode, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel};

/// Allocations (and reallocations) made by the process so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect
// that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed` is
        // `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller's contract for `realloc` states.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller's contract for `dealloc` states.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

type Kernel = fn(&mut Ctx, &Dataset, &BpmfConfig) -> BpmfReport;

/// Allocations of one whole 2 x 4 universe running `kernel` for two
/// Gibbs iterations over `data`, on one busy thread so the count is a
/// property of the program and not of a schedule.
fn universe_allocs(kernel: Kernel, data: &Dataset) -> u64 {
    let cfg = BpmfConfig {
        iters: 2,
        ..BpmfConfig::paper(5, Tuning::cray_mpich())
    };
    let sim = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries())
        .with_exec(ExecMode::Pooled { workers: Some(1) });
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = Universe::run(sim, |ctx| kernel(ctx, data, &cfg).rmse).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.peak_threads, 1, "the guard needs one busy thread");
    assert!(result.per_rank.iter().all(|rmse| rmse.is_some()));
    allocs
}

#[test]
fn allocations_do_not_grow_with_the_ratings() {
    let spec = |nnz| SyntheticSpec {
        users: 240,
        items: 40,
        nnz,
        seed: 3,
    };
    let sparse = Dataset::synthesize(&spec(1200));
    let dense = Dataset::synthesize(&spec(4800));
    for (name, kernel) in [("ori_bpmf", ori_bpmf as Kernel), ("hy_bpmf", hy_bpmf)] {
        // The first universe of a process also builds what later ones
        // reuse (the coroutine stack arena).
        universe_allocs(kernel, &sparse);
        let at_nnz = universe_allocs(kernel, &sparse);
        let at_4nnz = universe_allocs(kernel, &dense);
        assert_eq!(
            at_nnz, at_4nnz,
            "{name}: {at_nnz} allocations at 1200 ratings, {at_4nnz} at 4800"
        );
    }
}
