//! The steady-state message path does not allocate.
//!
//! A clock-free guard for the host cost of a message: once a universe is
//! warm (mailbox tables grown, communicator node counts cached), ring
//! messages, shared-flag pairs and world barriers allocate nothing — no
//! per-key queue, no per-call node list. Counted by a global allocator
//! wrapper, so the assertion is exact and immune to host load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use collectives::barrier;
use msim::{Ctx, ExecMode, Payload, SimConfig, Universe};
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

const RANKS: usize = 8;
const UNSET: u64 = u64::MAX;

/// `reps` rounds of the mix; one round is 10 ring messages, 10 flag pairs
/// with the on-node neighbour and a world barrier. Tags advance per
/// message, and the barriers are a ring's length of messages apart, so
/// a rank running ahead never queues a second packet under a key its
/// peer has not drained — the one case that (by design) spills into an
/// allocated queue.
fn rounds(ctx: &mut Ctx, tag0: u32, reps: u32) {
    let world = ctx.world();
    let n = world.size();
    let (right, left) = ((ctx.rank() + 1) % n, (ctx.rank() + n - 1) % n);
    // 2 x 4 block placement: ranks 0..4 on node 0, 4..8 on node 1.
    let base = ctx.rank() / 4 * 4;
    let (flag_to, flag_from) = (base + (ctx.rank() + 1) % 4, base + (ctx.rank() + 3) % 4);
    for rep in 0..reps {
        let tag = tag0 + 20 * rep;
        for i in 0..10 {
            ctx.send(&world, right, tag + i, Payload::Phantom(64));
            ctx.recv(&world, left, tag + i);
        }
        for i in 10..20 {
            ctx.post_flag(&world, flag_to, tag + i);
            ctx.wait_flag(&world, flag_from, tag + i);
        }
        barrier::tuned(ctx, &world);
    }
}

/// Allocations made by all ranks together between the end of the warm-up
/// round and the end of the measured one. The pool under test runs every
/// rank on one thread, so "the first rank out of the fence" and
/// "the last rank to finish" are well-defined points: everything the
/// fence allocates happens at deposit time, before the first, and a rank
/// that returns only frees.
fn steady_allocs(exec: ExecMode) -> u64 {
    let start = AtomicU64::new(UNSET);
    let end = AtomicU64::new(UNSET);
    let finished = AtomicUsize::new(0);
    let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
        .phantom()
        .with_exec(exec);
    let result = Universe::run(cfg, |ctx| {
        rounds(ctx, 0, 1);
        let world = ctx.world();
        ctx.oob_fence(&world);
        let now = ALLOCS.load(Ordering::Relaxed);
        let _ = start.compare_exchange(UNSET, now, Ordering::Relaxed, Ordering::Relaxed);
        rounds(ctx, 20, 100);
        if finished.fetch_add(1, Ordering::Relaxed) == RANKS - 1 {
            end.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    })
    .unwrap();
    assert_eq!(result.peak_threads, 1, "the guard needs one busy thread");
    end.into_inner() - start.into_inner()
}

#[test]
fn warm_message_path_does_not_allocate() {
    let allocs = steady_allocs(ExecMode::Pooled { workers: Some(1) });
    assert!(
        allocs < 16,
        "{allocs} allocations for 8 x (1000 messages + 1000 flag pairs + 100 barriers)"
    );
}
