//! The coroutine stack arena is kept by the launching thread between
//! universes. Reuse must be invisible: a universe that runs on a mapping
//! an earlier one dirtied — with another rank count and stack size, or
//! after a run that ended badly — gives results, clocks and traces
//! identical to a run on a fresh mapping, under both coroutine executors.
//! (The canary check on a reused slot needs crate internals and lives in
//! `src/exec.rs`.)

use std::time::Duration;

use msim::{
    Ctx, ExecMode, FaultPlan, Payload, SharedWindow, SimConfig, SimError, SimStats, Universe,
};
use simnet::{ClusterSpec, CostModel, Event};

/// Every scenario starts on a thread of its own, i.e. without a kept
/// arena, whatever thread the test harness runs the test on.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("scenario thread panicked"))
}

const EXECS: [ExecMode; 3] = [
    ExecMode::Events,
    ExecMode::Pooled { workers: Some(1) },
    ExecMode::Pooled { workers: Some(2) },
];

fn cfg(spec: ClusterSpec, exec: ExecMode) -> SimConfig {
    SimConfig::new(spec, CostModel::uniform_test())
        .with_recv_timeout(Duration::from_secs(10))
        .phantom()
        .traced()
        .with_exec(exec)
}

/// Recurse until the stack reaches `bytes` below `top`, leaving a
/// non-zero pattern behind; returns the depth reached. Depth is measured
/// by address, not by call count, so the frame size of the build profile
/// does not matter.
#[inline(never)]
fn dirty_stack(top: usize, bytes: usize) -> usize {
    let mut page = [0xA5u8; 512];
    std::hint::black_box(&mut page);
    let depth = top - (page.as_ptr() as usize);
    if depth < bytes {
        dirty_stack(top, bytes).max(std::hint::black_box(depth))
    } else {
        depth
    }
}

/// Every blocking wait-path once: rendezvous (split, window, fence),
/// shared flags, mailbox ring.
fn program(ctx: &mut Ctx) -> u64 {
    let world = ctx.world();
    let node = world.split_shared(ctx);
    let win = SharedWindow::<u64>::allocate(ctx, &node, 2);
    ctx.oob_fence(&node);
    let (n, me) = (node.size(), node.rank());
    if n > 1 {
        ctx.post_flag(&node, (me + 1) % n, 7);
        ctx.wait_flag(&node, (me + n - 1) % n, 7);
    }
    let p = ctx.nranks();
    let mut sum = win.read(win.my_base());
    for round in 0..3u32 {
        ctx.send(&world, (ctx.rank() + 1) % p, round, Payload::Phantom(24));
        sum = sum * 31 + ctx.recv(&world, (ctx.rank() + p - 1) % p, round).len() as u64;
    }
    sum
}

type Observed = (Vec<u64>, Vec<u64>, Vec<Event>);

/// Results, clock bits and trace of `program`, plus the run's executor
/// counters.
fn observe_stats(spec: ClusterSpec, stack_size: usize, exec: ExecMode) -> (Observed, SimStats) {
    let r = Universe::run(cfg(spec, exec).with_stack_size(stack_size), program).unwrap();
    let clocks = r.clocks.iter().map(|c| c.to_bits()).collect();
    ((r.per_rank, clocks, r.tracer.events()), r.stats)
}

/// [`observe_stats`], keeping only whether the run's stacks came from a
/// kept mapping.
fn observe(spec: ClusterSpec, stack_size: usize, exec: ExecMode) -> (Observed, bool) {
    let (seen, stats) = observe_stats(spec, stack_size, exec);
    (seen, stats.arena_reused)
}

#[test]
fn a_dirtied_arena_recarved_by_another_shape_is_invisible() {
    // (layout, stack size) of the follow-up universes: fewer and more
    // ranks than the dirtying run's 8, smaller and larger strides.
    let shapes = || {
        [
            (ClusterSpec::irregular(vec![1, 3, 4]), 64 << 10),
            (ClusterSpec::regular(2, 2), 160 << 10),
            (ClusterSpec::regular(3, 4), 32 << 10),
        ]
    };
    for exec in EXECS {
        let fresh: Vec<Observed> = shapes()
            .into_iter()
            .map(|(spec, stack)| {
                let (seen, reused) = on_fresh_thread(|| observe(spec, stack, exec));
                assert!(!reused, "{exec:?}: a new thread has no kept arena");
                seen
            })
            .collect();
        on_fresh_thread(|| {
            let deep = Universe::run(
                cfg(ClusterSpec::regular(2, 4), exec).with_stack_size(256 << 10),
                |ctx| {
                    let top = 0u8;
                    let depth = dirty_stack(std::ptr::from_ref(&top) as usize, 160 << 10);
                    assert!((160 << 10..200 << 10).contains(&depth), "{depth}");
                    program(ctx)
                },
            )
            .unwrap();
            assert!(!deep.stats.arena_reused);
            assert_eq!(deep.stats.arena_mapped_bytes, 8 * (256 << 10));
            for ((spec, stack), want) in shapes().into_iter().zip(&fresh) {
                let (seen, reused) = observe(spec.clone(), stack, exec);
                assert!(reused, "{exec:?} {spec:?}: the kept 2 MiB mapping fits");
                assert_eq!(&seen, want, "{exec:?} {spec:?}: reuse changed the run");
            }
        });
    }
}

#[test]
fn a_run_that_ended_badly_leaves_a_usable_arena() {
    let spec = || ClusterSpec::regular(2, 3);
    for exec in EXECS {
        let (want, _) = on_fresh_thread(|| observe(spec(), 64 << 10, exec));
        on_fresh_thread(|| {
            // An injected kill: the victim unwinds on its own stack, its
            // ring neighbours time out.
            let killed = Universe::run(
                cfg(spec(), exec)
                    .with_stack_size(64 << 10)
                    .with_recv_timeout(Duration::from_millis(300))
                    .with_fault(FaultPlan::none().with_kill(4, 3)),
                program,
            )
            .unwrap_err();
            assert!(killed.is_injected_kill(), "{exec:?}: {killed}");
            let (seen, reused) = observe(spec(), 64 << 10, exec);
            assert!(reused, "{exec:?}: the killed run's arena was kept");
            assert_eq!(seen, want, "{exec:?}: run after a kill");

            // A deadlock report: every coroutine is abandoned mid-wait,
            // its frames left on its stack.
            let stuck = Universe::run(
                cfg(spec(), exec)
                    .with_stack_size(64 << 10)
                    .with_recv_timeout(Duration::from_millis(100)),
                |ctx| {
                    let world = ctx.world();
                    ctx.recv(&world, (ctx.rank() + 1) % ctx.nranks(), 99);
                },
            )
            .unwrap_err();
            assert!(
                matches!(stuck, SimError::DeadlockSuspected { .. }),
                "{exec:?}: {stuck}"
            );
            let (seen, reused) = observe(spec(), 64 << 10, exec);
            assert!(reused, "{exec:?}: the deadlocked run's arena was kept");
            assert_eq!(seen, want, "{exec:?}: run after a deadlock");
        });
    }
}

#[test]
fn a_nested_universe_gets_its_own_arena() {
    // A rank program that launches a universe on the driver thread — at
    // width 1 that is the launching thread itself, running the outer
    // rank's coroutine: the outer run has *taken* the thread's arena, so
    // the inner one cannot be handed the mapping the outer coroutines are
    // running on, and the inner worker loop runs to completion on the
    // outer rank's stack.
    let spec = || ClusterSpec::regular(1, 2);
    for exec in [ExecMode::Events, ExecMode::Pooled { workers: Some(1) }] {
        on_fresh_thread(|| {
            let (want, _) = observe(spec(), 256 << 10, exec);
            let outer = Universe::run(cfg(spec(), exec).with_stack_size(256 << 10), |_| {
                observe_stats(spec(), 64 << 10, exec)
            })
            .unwrap();
            assert!(outer.stats.arena_reused, "the first run's arena was kept");
            assert!(outer.stats.resumes > 0, "{exec:?}");
            // The first inner run maps afresh; the second reuses what the
            // first put back, never the outer run's mapping.
            let reused: Vec<bool> = outer.per_rank.iter().map(|(_, s)| s.arena_reused).collect();
            assert_eq!(reused, [false, true], "{exec:?}");
            for (seen, stats) in &outer.per_rank {
                assert_eq!(seen, &want, "{exec:?}");
                assert!(stats.resumes > 0, "{exec:?}");
            }
        });
    }
}

#[test]
fn an_arena_above_the_cap_is_not_kept() {
    on_fresh_thread(|| {
        // 2 ranks x 600 MiB of address space (untouched pages cost
        // nothing): above the 1 GiB a thread keeps.
        let big = Universe::run(
            cfg(ClusterSpec::regular(1, 2), ExecMode::Events).with_stack_size(600 << 20),
            program,
        )
        .unwrap();
        assert_eq!(big.stats.arena_mapped_bytes, 1200 << 20);
        let (_, reused) = observe(ClusterSpec::regular(1, 2), 64 << 10, ExecMode::Events);
        assert!(!reused, "a 1.2 GiB mapping must be unmapped, not kept");
        let (_, reused) = observe(ClusterSpec::regular(1, 2), 64 << 10, ExecMode::Events);
        assert!(reused, "the small mapping after it is kept");
    });
}
