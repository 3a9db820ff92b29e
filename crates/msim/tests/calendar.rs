//! Differential tests for `ExecMode::Events` (the one-worker pool on the
//! launching thread, FIFO, phantom-only): under pinned seeds it must
//! produce results, virtual clocks, and
//! canonical traces byte-identical to BOTH `ExecMode::Pooled` and
//! `ExecMode::ThreadPerRank`, across regular and irregular clusters,
//! schedule fuzzing, injected kills, and every blocking wait-path
//! (mailbox recv, shared flags, split/window/fence rendezvous, setup
//! exchange). All programs are phantom — the mode rejects real
//! payloads up front (tested here too, as a *typed* error).

use std::time::Duration;

use msim::{
    Ctx, ExecMode, FaultPlan, Payload, SchedulePolicy, SharedWindow, SimConfig, SimError, Universe,
};
use simnet::{ClusterSpec, CostModel};

/// A timeout that only has to outlast a loaded host (thread-per-rank
/// legs share the cores with the other test binaries): the two tests
/// that wait a timeout out set their own short one.
fn cfg(spec: ClusterSpec) -> SimConfig {
    SimConfig::new(spec, CostModel::uniform_test())
        .with_recv_timeout(Duration::from_secs(10))
        .phantom()
        .traced()
}

/// A ring exchange: everyone sends right, receives from the left.
/// Exercises the mailbox wait-path on every rank.
fn ring(ctx: &mut Ctx, rounds: usize) -> u64 {
    let world = ctx.world();
    let n = ctx.nranks();
    let mut sum = 0u64;
    for round in 0..rounds {
        let right = (ctx.rank() + 1) % n;
        let left = (ctx.rank() + n - 1) % n;
        ctx.send(&world, right, round as u32, Payload::Phantom(24));
        let got = ctx.recv(&world, left, round as u32);
        sum = sum.wrapping_mul(31).wrapping_add(got.len() as u64);
    }
    sum
}

/// The full hybrid MPI+MPI surface: split_shared (oob rendezvous),
/// shared-window allocate (oob rendezvous), flag post/wait (mailbox),
/// oob_fence (oob rendezvous), window reads across ranks. Phantom
/// windows read back defaults, so the checksum is degenerate — the
/// interesting equality is in the clocks and traces.
fn hybrid(ctx: &mut Ctx) -> u64 {
    let world = ctx.world();
    let node = world.split_shared(ctx);
    let win = SharedWindow::<u64>::allocate(ctx, &node, 2);
    win.write(win.my_base(), (ctx.rank() as u64) << 8);
    let n = node.size();
    let me = node.rank();
    ctx.oob_fence(&node);
    if n > 1 {
        ctx.post_flag(&node, (me + 1) % n, 7);
        ctx.wait_flag(&node, (me + n - 1) % n, 7);
    }
    let mut sum = 0u64;
    for local in 0..n {
        sum = sum.wrapping_add(win.read(win.base_of(local)));
    }
    sum.wrapping_add(ring(ctx, 2))
}

/// Run `f` under all three executors with otherwise identical config and
/// assert byte-identical results, clocks, and canonical traces.
fn assert_triple<T>(mk: impl Fn() -> SimConfig, f: impl Fn(&mut Ctx) -> T + Send + Sync)
where
    T: Send + PartialEq + std::fmt::Debug,
{
    let threads = Universe::run(mk().with_exec(ExecMode::ThreadPerRank), &f).unwrap();
    let pooled = Universe::run(mk().with_exec(ExecMode::pooled()), &f).unwrap();
    let events = Universe::run(mk().with_exec(ExecMode::Events), &f).unwrap();
    assert_eq!(events.per_rank, threads.per_rank, "events/threads results");
    assert_eq!(events.clocks, threads.clocks, "events/threads clocks");
    assert_eq!(
        events.tracer.events(),
        threads.tracer.events(),
        "events/threads traces"
    );
    assert_eq!(events.per_rank, pooled.per_rank, "events/pooled results");
    assert_eq!(events.clocks, pooled.clocks, "events/pooled clocks");
    assert_eq!(
        events.tracer.events(),
        pooled.tracer.events(),
        "events/pooled traces"
    );
}

#[test]
fn events_matches_both_executors_on_regular_cluster() {
    assert_triple(|| cfg(ClusterSpec::regular(4, 6)), |ctx| ring(ctx, 4));
}

#[test]
fn events_matches_both_executors_on_hybrid_surface() {
    assert_triple(|| cfg(ClusterSpec::regular(4, 6)), hybrid);
}

#[test]
fn events_matches_both_executors_on_irregular_cluster() {
    assert_triple(|| cfg(ClusterSpec::irregular(vec![1, 3, 4])), hybrid);
}

#[test]
fn events_matches_across_all_fuzz_seeds() {
    // The conformance seeds: seeded cost perturbation. Clocks differ
    // *across* seeds but for each seed the three executors must agree
    // exactly.
    for seed in 0..8u64 {
        assert_triple(|| cfg(ClusterSpec::regular(2, 3)).fuzzed(seed), hybrid);
    }
}

#[test]
fn events_same_config_reruns_are_identical() {
    // The mode is deterministic in itself, not merely against the
    // others: two runs of the same config pop the same schedule
    // and produce byte-identical artifacts.
    let run = || {
        Universe::run(
            cfg(ClusterSpec::regular(2, 4)).with_exec(ExecMode::Events),
            hybrid,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.per_rank, b.per_rank);
    assert_eq!(a.clocks, b.clocks);
    assert_eq!(a.tracer.events(), b.tracer.events());
}

#[test]
fn events_adversarial_schedule_seed_is_inert() {
    // `Pooled` consults SchedulePolicy::adversarial for its ready-queue
    // picks; `Events` always pops its FIFO, so the seed must change
    // nothing.
    let baseline = Universe::run(
        cfg(ClusterSpec::regular(2, 3)).with_exec(ExecMode::Events),
        hybrid,
    )
    .unwrap();
    for seed in 0..4u64 {
        let plan = FaultPlan::none().with_schedule(SchedulePolicy::adversarial(seed));
        let fuzzed = Universe::run(
            cfg(ClusterSpec::regular(2, 3))
                .with_fault(plan)
                .with_exec(ExecMode::Events),
            hybrid,
        )
        .unwrap();
        assert_eq!(fuzzed.per_rank, baseline.per_rank, "seed {seed}");
        assert_eq!(fuzzed.clocks, baseline.clocks, "seed {seed}");
        assert_eq!(fuzzed.tracer.events(), baseline.tracer.events());
    }
}

#[test]
fn events_injected_kill_surfaces_identically() {
    let mk = |exec: ExecMode| {
        let plan = FaultPlan::none().with_kill(2, 3);
        Universe::run(
            cfg(ClusterSpec::regular(1, 4))
                // The victim's ring neighbours only stop by timing out.
                .with_recv_timeout(Duration::from_millis(500))
                .with_fault(plan)
                .with_exec(exec),
            |ctx| ring(ctx, 8),
        )
        .unwrap_err()
    };
    let threads = mk(ExecMode::ThreadPerRank);
    let events = mk(ExecMode::Events);
    assert!(events.is_injected_kill(), "{events}");
    assert_eq!(events, threads, "kill surfaced differently under Events");
    assert_eq!(events.rank(), 2);
}

#[test]
fn events_deadlock_detection_still_fires() {
    // Every rank parks forever on a receive that never matches; the
    // scheduler's deadline scan must re-ready them so the timeout is
    // reported rather than the launching thread sleeping forever.
    let t0 = std::time::Instant::now();
    let err = Universe::run(
        cfg(ClusterSpec::regular(1, 2))
            .with_recv_timeout(Duration::from_millis(150))
            .with_exec(ExecMode::Events),
        |ctx| {
            let world = ctx.world();
            let peer = 1 - ctx.rank();
            ctx.recv(&world, peer, 99);
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::DeadlockSuspected { .. }),
        "expected a deadlock report, got {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "deadlock detection took {:?}",
        t0.elapsed()
    );
}

#[test]
fn events_rejects_real_payloads_with_typed_error() {
    // Real mode + events must fail fast with a typed error BEFORE any
    // rank program starts — never silently fall back or mis-execute.
    let err = Universe::run(
        SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test())
            .with_exec(ExecMode::Events),
        |ctx| ctx.rank(),
    )
    .unwrap_err();
    assert!(err.is_unsupported_exec(), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("real payloads"), "{msg}");
    assert!(msg.contains("events"), "{msg}");
}

#[test]
fn events_rejects_race_detector_with_typed_error() {
    // The race detector requires real payloads, which the calendar does
    // not support; the error must name the detector, not generically
    // complain about real data.
    let err = Universe::run(
        SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test())
            .with_race_detect(true)
            .with_exec(ExecMode::Events),
        |ctx| ctx.rank(),
    )
    .unwrap_err();
    assert!(err.is_unsupported_exec(), "{err}");
    assert!(err.to_string().contains("race detector"), "{err}");
}

#[test]
fn events_phantom_run_accepts_race_detect_flag() {
    // MSIM_RACE=1 in CI also covers all-phantom suites; the detector
    // never arms without real data in ANY mode, so a phantom events run
    // merely requesting it must succeed.
    let r = Universe::run(
        cfg(ClusterSpec::regular(1, 3))
            .with_race_detect(true)
            .with_exec(ExecMode::Events),
        |ctx| ring(ctx, 2),
    )
    .unwrap();
    assert_eq!(r.per_rank.len(), 3);
}

#[test]
fn events_ft_recovery_matches_threads() {
    // Failure detection, agreement, shrink, and retry all run over the
    // parked wait-paths; one thread must drive them to the same
    // recovery outcome as real threads.
    let mk = |exec: ExecMode| {
        let plan = FaultPlan::none().with_kill(0, 2);
        Universe::run_ft(
            cfg(ClusterSpec::regular(2, 3))
                .with_fault(plan)
                .with_exec(exec),
            recovering_ring,
        )
        .unwrap()
    };
    let threads = mk(ExecMode::ThreadPerRank);
    let events = mk(ExecMode::Events);
    assert_eq!(events.per_rank, threads.per_rank, "results diverged");
    assert_eq!(events.failed, threads.failed, "victim lists diverged");
    assert_eq!(events.clocks, threads.clocks, "virtual clocks diverged");
    assert_eq!(
        events.tracer.events(),
        threads.tracer.events(),
        "recovery traces diverged"
    );
    assert_eq!(events.failed, vec![0]);
}

/// A minimal shrink-recovery driver at the msim level (mirrors the one in
/// `tests/pooled.rs`): run a ring round, trap the typed
/// [`msim::WaitError`] unwinds, agree on the dead, shrink, re-run.
fn recovering_ring(ctx: &mut Ctx) -> Vec<usize> {
    let mut comm = ctx.world();
    let mut op_seq = 0u64;
    loop {
        op_seq += 1;
        ctx.set_op_label("ring");
        let c = comm.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let n = c.size();
            let me = c.rank();
            for round in 0..2u32 {
                ctx.send(&c, (me + 1) % n, round, Payload::empty());
                ctx.recv(&c, (me + n - 1) % n, round);
            }
        }));
        match r {
            Ok(()) => match ctx.ft_commit(&c, op_seq) {
                msim::CommitOutcome::AllOk => return comm.members().to_vec(),
                msim::CommitOutcome::Diverted => {}
            },
            Err(payload) => {
                if payload.downcast_ref::<msim::WaitError>().is_none() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
        let epoch = ctx.ft_epoch() + 1;
        ctx.ft_divert(epoch);
        let outcome = ctx.ft_agree(&comm, ctx.ft_epoch());
        comm = comm.shrink(ctx, &outcome);
        ctx.set_ft_epoch(epoch);
        ctx.trace_recovery("ring", epoch, &outcome.dead, comm.size(), &[]);
    }
}

#[test]
fn events_many_ranks_smoke() {
    // 2048 ranks through the full hybrid surface on one driver thread:
    // completion proves park/wake liveness at a scale no thread-backed
    // executor is asked to differential-test against.
    let r = Universe::run(
        cfg(ClusterSpec::regular(32, 64))
            .with_exec(ExecMode::Events)
            .with_stack_size(64 * 1024),
        |ctx| ring(ctx, 2),
    )
    .unwrap();
    assert_eq!(r.per_rank.len(), 2048);
    assert_eq!(r.peak_threads, 1);
}
