//! Differential tests for the pooled rank executor: under pinned seeds,
//! `ExecMode::Pooled` must produce results, virtual clocks, and canonical
//! traces byte-identical to `ExecMode::ThreadPerRank`, across regular and
//! irregular clusters, schedule fuzzing, injected kills, and every
//! blocking wait-path (mailbox recv, shared flags, split/window/fence
//! rendezvous).

use std::time::Duration;

use msim::{
    Ctx, ExecMode, FaultPlan, Payload, SchedulePolicy, SharedWindow, SimConfig, SimError, Universe,
};
use simnet::{ClusterSpec, CostModel};

fn cfg(spec: ClusterSpec) -> SimConfig {
    SimConfig::new(spec, CostModel::uniform_test())
        .with_recv_timeout(Duration::from_millis(500))
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
        ctx.send(
            &world,
            right,
            round as u32,
            Payload::Real(msim::Bytes::from(vec![ctx.rank() as u8; 24])),
        );
        let got = ctx.recv(&world, left, round as u32);
        sum = sum.wrapping_mul(31).wrapping_add(got.bytes()[0] as u64);
    }
    sum
}

/// The full hybrid MPI+MPI surface: split_shared (oob rendezvous),
/// shared-window allocate (oob rendezvous), flag post/wait (mailbox),
/// oob_fence (oob rendezvous), window reads across ranks.
fn hybrid(ctx: &mut Ctx) -> u64 {
    let world = ctx.world();
    let node = world.split_shared(ctx);
    let win = SharedWindow::<u64>::allocate(ctx, &node, 2);
    win.write(win.my_base(), (ctx.rank() as u64) << 8);
    win.write(win.my_base() + 1, ctx.rank() as u64 + 1);
    let n = node.size();
    let me = node.rank();
    // Everyone's writes must land before anyone reads a peer segment.
    ctx.oob_fence(&node);
    if n > 1 {
        ctx.post_flag(&node, (me + 1) % n, 7);
        ctx.wait_flag(&node, (me + n - 1) % n, 7);
    }
    let mut sum = 0u64;
    for local in 0..n {
        sum = sum.wrapping_add(win.read(win.base_of(local)));
        sum = sum.wrapping_add(win.read(win.base_of(local) + 1));
    }
    sum.wrapping_add(ring(ctx, 2))
}

/// Run `f` under both executors with otherwise identical config and
/// assert byte-identical results, clocks, and traces.
fn assert_differential<T>(mk: impl Fn() -> SimConfig, f: impl Fn(&mut Ctx) -> T + Send + Sync)
where
    T: Send + PartialEq + std::fmt::Debug,
{
    let threads = Universe::run(mk().with_exec(ExecMode::ThreadPerRank), &f).unwrap();
    let pooled = Universe::run(mk().with_exec(ExecMode::pooled()), &f).unwrap();
    assert_eq!(pooled.per_rank, threads.per_rank, "results diverged");
    assert_eq!(pooled.clocks, threads.clocks, "virtual clocks diverged");
    assert_eq!(
        pooled.tracer.events(),
        threads.tracer.events(),
        "canonical traces diverged"
    );
}

#[test]
fn pooled_matches_threads_on_regular_cluster() {
    assert_differential(|| cfg(ClusterSpec::regular(2, 4)), |ctx| ring(ctx, 4));
}

#[test]
fn pooled_matches_threads_on_irregular_cluster() {
    assert_differential(|| cfg(ClusterSpec::irregular(vec![1, 3, 4])), hybrid);
}

#[test]
fn pooled_matches_threads_across_all_fuzz_seeds() {
    // The conformance seeds: adversarial scheduling + seeded perturbation.
    // Clocks differ *across* seeds (the perturbation is seeded) but for
    // each seed the two executors must agree exactly.
    for seed in 0..8u64 {
        assert_differential(|| cfg(ClusterSpec::regular(2, 3)).fuzzed(seed), hybrid);
    }
}

#[test]
fn pooled_adversarial_ready_queue_is_invisible_to_virtual_time() {
    // Adversarial SchedulePolicy drives the pool's ready-queue picking;
    // like thread wake-up fuzzing it must never leak into the model.
    let baseline = Universe::run(
        cfg(ClusterSpec::regular(2, 3)).with_exec(ExecMode::pooled()),
        hybrid,
    )
    .unwrap();
    for seed in 0..8u64 {
        let plan = FaultPlan::none().with_schedule(SchedulePolicy::adversarial(seed));
        let fuzzed = Universe::run(
            cfg(ClusterSpec::regular(2, 3))
                .with_fault(plan)
                .with_exec(ExecMode::pooled()),
            hybrid,
        )
        .unwrap();
        assert_eq!(fuzzed.per_rank, baseline.per_rank, "seed {seed}");
        assert_eq!(fuzzed.clocks, baseline.clocks, "seed {seed}");
        assert_eq!(fuzzed.tracer.events(), baseline.tracer.events());
    }
}

#[test]
fn pooled_multi_worker_matches_single_worker() {
    // Ranks migrate freely between workers; the width of the pool must
    // not be observable.
    let one = Universe::run(
        cfg(ClusterSpec::regular(2, 4)).with_exec(ExecMode::Pooled { workers: Some(1) }),
        hybrid,
    )
    .unwrap();
    for workers in [2usize, 3, 8] {
        let wide = Universe::run(
            cfg(ClusterSpec::regular(2, 4)).with_exec(ExecMode::Pooled {
                workers: Some(workers),
            }),
            hybrid,
        )
        .unwrap();
        assert_eq!(wide.per_rank, one.per_rank, "workers={workers}");
        assert_eq!(wide.clocks, one.clocks, "workers={workers}");
        assert_eq!(wide.tracer.events(), one.tracer.events());
    }
}

#[test]
fn pooled_reports_peak_threads_as_pool_width() {
    let r = Universe::run(
        cfg(ClusterSpec::regular(1, 6)).with_exec(ExecMode::Pooled { workers: Some(2) }),
        |ctx| ring(ctx, 1),
    )
    .unwrap();
    assert_eq!(r.peak_threads, 2);
    let r = Universe::run(
        cfg(ClusterSpec::regular(1, 6)).with_exec(ExecMode::ThreadPerRank),
        |ctx| ring(ctx, 1),
    )
    .unwrap();
    assert_eq!(r.peak_threads, 6);
    // workers: None clamps to min(ranks, available_parallelism) <= ranks.
    let r = Universe::run(
        cfg(ClusterSpec::regular(1, 2)).with_exec(ExecMode::pooled()),
        |ctx| ring(ctx, 1),
    )
    .unwrap();
    assert!(r.peak_threads <= 2, "pool wider than the rank count");
}

#[test]
fn a_one_worker_pool_runs_on_the_launching_thread() {
    // Every rank parks once, so each is resumed at least twice; the
    // thread is sampled on both sides of the park.
    let observe = |exec| {
        Universe::run(
            cfg(ClusterSpec::regular(2, 3)).phantom().with_exec(exec),
            |ctx| {
                let world = ctx.world();
                let n = ctx.nranks();
                let started_on = std::thread::current().id();
                ctx.send(&world, (ctx.rank() + 1) % n, 0, Payload::Phantom(8));
                ctx.recv(&world, (ctx.rank() + n - 1) % n, 0);
                [started_on, std::thread::current().id()]
            },
        )
        .unwrap()
    };
    let launcher = std::thread::current().id();
    for exec in [ExecMode::Events, ExecMode::Pooled { workers: Some(1) }] {
        let r = observe(exec);
        assert_eq!(r.peak_threads, 1, "{exec:?}");
        assert!(
            r.per_rank.iter().flatten().all(|&t| t == launcher),
            "{exec:?}: a one-worker pool spawns no thread"
        );
    }
    let r = observe(ExecMode::Pooled { workers: Some(2) });
    assert_eq!(r.peak_threads, 2);
    assert!(
        r.per_rank.iter().flatten().all(|&t| t != launcher),
        "a wider pool's workers are threads of their own"
    );
}

#[test]
fn pooled_injected_kill_surfaces_identically() {
    let mk = |exec: ExecMode| {
        let plan = FaultPlan::none().with_kill(2, 3);
        Universe::run(
            cfg(ClusterSpec::regular(1, 4))
                .with_fault(plan)
                .with_exec(exec),
            |ctx| ring(ctx, 8),
        )
        .unwrap_err()
    };
    let threads = mk(ExecMode::ThreadPerRank);
    let pooled = mk(ExecMode::pooled());
    assert!(pooled.is_injected_kill(), "{pooled}");
    assert_eq!(pooled, threads, "kill surfaced differently under pooling");
    assert_eq!(pooled.rank(), 2);
}

#[test]
fn pooled_deadlock_detection_still_fires() {
    // Every rank parks forever on a receive that never matches; the
    // executor's deadline scan must re-ready them so the timeout is
    // reported rather than the pool spinning or hanging.
    let t0 = std::time::Instant::now();
    let err = Universe::run(
        cfg(ClusterSpec::regular(1, 2))
            .with_recv_timeout(Duration::from_millis(150))
            .with_exec(ExecMode::pooled()),
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
        "pooled deadlock detection took {:?}",
        t0.elapsed()
    );
}

#[test]
fn pooled_many_more_ranks_than_workers() {
    // 48 ranks on 2 workers: heavy multiplexing with every rank parking
    // in a 4-round ring. Completion alone proves park/wake liveness;
    // checksums prove correctness.
    let r = Universe::run(
        cfg(ClusterSpec::regular(2, 24)).with_exec(ExecMode::Pooled { workers: Some(2) }),
        |ctx| ring(ctx, 4),
    )
    .unwrap();
    let t = Universe::run(
        cfg(ClusterSpec::regular(2, 24)).with_exec(ExecMode::ThreadPerRank),
        |ctx| ring(ctx, 4),
    )
    .unwrap();
    assert_eq!(r.per_rank, t.per_rank);
    assert_eq!(r.clocks, t.clocks);
}

/// A minimal shrink-recovery driver at the msim level (the full driver
/// lives in the `hmpi` crate, which msim cannot depend on): run a ring
/// round, trap the typed [`msim::WaitError`] unwinds, agree on the dead,
/// shrink, and re-run on the survivors. Returns the final membership.
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
fn pooled_matches_threads_on_leader_failover() {
    // Rank 0 dies mid-ring; the survivors detect, agree, shrink, and
    // re-run. Results, clocks, victim list, and the trace (including
    // the Recovery events) must be identical under both executors.
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
    let pooled = mk(ExecMode::pooled());
    assert_eq!(pooled.per_rank, threads.per_rank, "results diverged");
    assert_eq!(pooled.failed, threads.failed, "victim lists diverged");
    assert_eq!(pooled.clocks, threads.clocks, "virtual clocks diverged");
    assert_eq!(
        pooled.tracer.events(),
        threads.tracer.events(),
        "recovery traces diverged"
    );
    assert_eq!(pooled.failed, vec![0]);
    let survivors: Vec<usize> = (1..6).collect();
    for (rank, got) in pooled.per_rank.iter().enumerate() {
        if rank == 0 {
            assert!(got.is_none());
        } else {
            assert_eq!(got.as_deref(), Some(&survivors[..]), "rank {rank}");
        }
    }
}

#[test]
fn env_override_is_read_by_simconfig() {
    // MSIM_EXEC/MSIM_WORKERS are read at SimConfig::new time; exercise
    // the parser via with_exec equivalence rather than mutating the
    // process environment (tests run concurrently).
    let c = SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test());
    match c.exec {
        ExecMode::Pooled { .. } | ExecMode::ThreadPerRank | ExecMode::Events => {}
    }
    let c = c.with_exec(ExecMode::ThreadPerRank);
    assert_eq!(c.exec, ExecMode::ThreadPerRank);
    let c = c.with_exec(ExecMode::Events);
    assert_eq!(c.exec, ExecMode::Events);
}
