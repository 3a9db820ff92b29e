//! The steady-state message path does not allocate.
//!
//! A clock-free guard for the host cost of a message: once a universe is
//! warm (mailbox tables and packet slabs grown, communicator node counts
//! cached), ring messages, shared-flag pairs and world barriers allocate
//! nothing — no per-call node list — and neither does a sender running
//! ahead under one key: its packets queue in slab nodes the mailbox
//! already has. Nor, on an untraced run, do the tracing helpers of policy
//! decisions and nonblocking requests: they build no event. Nor do warm
//! phantom allreduces and bcasts: their rounds and balanced blocks are
//! computed, not stored. Counted by a global allocator wrapper, per
//! thread, on the one pool worker that runs every rank, so the assertion
//! is exact and immune to host load and to the test harness starting or
//! finishing other tests meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use collectives::{allreduce, barrier, bcast, op::Sum, Algo};
use msim::{Ctx, ExecMode, Payload, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel};

thread_local! {
    /// Allocations (and reallocations) made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on this thread. The counter has no destructor,
/// so it is there for the thread's whole life.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocations so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect
// that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed` is
        // `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// One test measures at a time, so no other universe's ranks run on the
/// measured worker, and a failing test panics (and captures its
/// backtrace) before the next one measures.
fn alone() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `reps` rounds of the mix; one round is 10 ring messages, 10 flag pairs
/// with the on-node neighbour and a world barrier. Tags advance per
/// message, and the barriers are a ring's length of messages apart, so
/// a rank running ahead never queues a second packet under a key its
/// peer has not drained ([`bursts`] covers that case).
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
/// round and the end of the measured one (see [`allocs_after`]).
fn steady_allocs(exec: ExecMode) -> u64 {
    let _alone = alone();
    allocs_after(exec, |ctx| rounds(ctx, 0, 1), |ctx| rounds(ctx, 20, 100))
}

/// Allocations made by all ranks together while running `measured`,
/// after each ran `warm` and a fence. The pool under test runs every
/// rank on one thread, so "the first rank out of the fence" and
/// "the last rank to finish" are well-defined points, and that thread's
/// counter sees every allocation of every rank: everything the fence
/// allocates happens at deposit time, before the first, and a rank that
/// returns only frees.
fn allocs_after(exec: ExecMode, warm: fn(&mut Ctx), measured: fn(&mut Ctx)) -> u64 {
    let start = AtomicU64::new(UNSET);
    let end = AtomicU64::new(UNSET);
    let finished = AtomicUsize::new(0);
    let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
        .phantom()
        .with_exec(exec);
    let result = Universe::run(cfg, |ctx| {
        warm(ctx);
        let world = ctx.world();
        ctx.oob_fence(&world);
        let now = allocs();
        let _ = start.compare_exchange(UNSET, now, Ordering::Relaxed, Ordering::Relaxed);
        measured(ctx);
        if finished.fetch_add(1, Ordering::Relaxed) == RANKS - 1 {
            end.store(allocs(), Ordering::Relaxed);
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

/// Packets a ring burst queues under one key: one less than the eight
/// slab nodes a mailbox keeps once it empties, because an acknowledgement
/// can land beside the burst.
const BURST: u32 = 7;

/// `reps` ring bursts: every rank sends [`BURST`] messages to its right
/// neighbour under one tag, takes the left one's, acknowledges them to
/// the left and waits for the right one's acknowledgement. That is a
/// flat ring's pipeline with the sender running ahead by a whole burst,
/// but never by two: the next burst waits for the acknowledgement.
fn bursts(ctx: &mut Ctx, reps: u32) {
    let world = ctx.world();
    let n = world.size();
    let (right, left) = ((ctx.rank() + 1) % n, (ctx.rank() + n - 1) % n);
    for _ in 0..reps {
        for _ in 0..BURST {
            ctx.send(&world, right, 1, Payload::Phantom(64));
        }
        for _ in 0..BURST {
            ctx.recv(&world, left, 1);
        }
        ctx.send(&world, left, 2, Payload::empty());
        ctx.recv(&world, right, 2);
    }
}

#[test]
fn a_sender_running_ahead_under_one_key_does_not_allocate() {
    let _alone = alone();
    let allocs = allocs_after(
        ExecMode::Pooled { workers: Some(1) },
        |ctx| bursts(ctx, 1),
        |ctx| bursts(ctx, 100),
    );
    assert!(
        allocs < 16,
        "{allocs} allocations for 8 x 100 bursts of {BURST} messages under one key"
    );
}

/// `reps` policy decisions and nonblocking request starts and completions,
/// as the tracing helpers see them.
fn trace_helpers(ctx: &mut Ctx, reps: u32) {
    for _ in 0..reps {
        ctx.trace_decision("allgather", "allgather.ring", "legacy thresholds (Mpich)");
        let id = ctx.trace_req_start("iallgather");
        ctx.trace_req_complete("iallgather", id);
    }
}

#[test]
fn untraced_trace_helpers_do_not_allocate() {
    let _alone = alone();
    let allocs = allocs_after(
        ExecMode::Pooled { workers: Some(1) },
        |ctx| trace_helpers(ctx, 1),
        |ctx| trace_helpers(ctx, 100),
    );
    assert!(
        allocs < 16,
        "{allocs} allocations for 8 x 100 untraced (decision + request start + completion)"
    );
}

/// `reps` phantom allreduces of 1024 elements by each flat schedule; at
/// p = 8 Rabenseifner runs its own halving and doubling rounds.
fn allreduces(ctx: &mut Ctx, reps: u32) {
    let world = ctx.world();
    let send = ctx.buf_zeroed::<f64>(1024);
    let mut recv = ctx.buf_zeroed(1024);
    for _ in 0..reps {
        for algo in [
            Algo::AllreduceRecursiveDoubling,
            Algo::AllreduceRabenseifner,
        ] {
            allreduce::dispatch(ctx, &world, &send, &mut recv, Sum, algo);
        }
    }
}

#[test]
fn warm_phantom_allreduces_do_not_allocate() {
    let _alone = alone();
    let allocs = allocs_after(
        ExecMode::Pooled { workers: Some(1) },
        |ctx| allreduces(ctx, 1),
        |ctx| allreduces(ctx, 100),
    );
    assert!(
        allocs < 16,
        "{allocs} allocations for 8 x 100 phantom allreduces by each schedule"
    );
}

/// `reps` phantom broadcasts of 1024 elements from rank 3 by each flat
/// schedule: the binomial tree, and van de Geijn's scatter of balanced
/// blocks, then its ring. A barrier follows each: a binomial root only
/// sends, so without one it would run a hundred broadcasts ahead and
/// deepen its children's queues past what a warm slab holds.
fn bcasts(ctx: &mut Ctx, reps: u32) {
    let world = ctx.world();
    let mut buf = ctx.buf_zeroed::<f64>(1024);
    for _ in 0..reps {
        for algo in [Algo::BcastBinomial, Algo::BcastScatterAllgather] {
            bcast::dispatch(ctx, &world, &mut buf, 3, algo);
            barrier::tuned(ctx, &world);
        }
    }
}

#[test]
fn warm_phantom_bcasts_do_not_allocate() {
    let _alone = alone();
    let allocs = allocs_after(
        ExecMode::Pooled { workers: Some(1) },
        |ctx| bcasts(ctx, 1),
        |ctx| bcasts(ctx, 100),
    );
    assert!(
        allocs < 16,
        "{allocs} allocations for 8 x 100 phantom bcasts by each schedule"
    );
}
