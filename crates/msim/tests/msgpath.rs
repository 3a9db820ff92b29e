//! The one message path of `Ctx`: every way of waiting for a message or
//! a flag completes it identically (clock, trace, what the model checker
//! is told), a missed poll is free, the typed errors of a deadline wait
//! name the wait for both kinds, the three ways of posting differ
//! exactly where the cost model says they do, and a push wakes only a
//! receiver blocked on its key.

use std::time::Duration;

use msim::{
    explore, Ctx, Drive, ExecMode, ExploreOpts, FaultPlan, Payload, SimConfig, Universe,
    ViolationKind, WaitError,
};
use simnet::{ClusterSpec, CostModel, Event, EventKind};

const TAG: u32 = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Recv,
    Flag,
}

const KINDS: [Kind; 2] = [Kind::Recv, Kind::Flag];
const DRIVES: [Drive; 3] = [Drive::Block, Drive::Poll, Drive::Deadline];

fn cfg() -> SimConfig {
    SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_secs(5))
        .phantom()
        .traced()
}

/// Post what `kind` waits for, to world rank `dst`.
fn post(ctx: &mut Ctx, kind: Kind, dst: usize) {
    let world = ctx.world();
    match kind {
        Kind::Recv => ctx.send(&world, dst, TAG, Payload::Phantom(24)),
        Kind::Flag => ctx.post_flag(&world, dst, TAG),
    }
}

/// One wait step for what world rank `src` posted; `Ok(true)` = consumed.
fn step(ctx: &mut Ctx, kind: Kind, src: usize, how: Drive) -> Result<bool, WaitError> {
    let world = ctx.world();
    match kind {
        Kind::Recv => ctx.step_recv(&world, src, TAG, how).map(|p| p.is_some()),
        Kind::Flag => ctx.step_wait_flag(&world, src, TAG, how),
    }
}

#[test]
fn every_drive_completes_the_same_message_identically() {
    for exec in [
        ExecMode::Pooled { workers: Some(1) },
        ExecMode::Pooled { workers: Some(2) },
    ] {
        for kind in KINDS {
            // Rank 1's clock bits and trace lines, per drive.
            let seen: Vec<(u64, Vec<Event>)> = DRIVES
                .iter()
                .map(|&how| {
                    let r = Universe::run(cfg().with_exec(exec), |ctx| {
                        if ctx.rank() == 0 {
                            ctx.compute(3.0e3); // a late post: arrival > now + overhead
                            post(ctx, kind, 1);
                        }
                        // The post is in the mailbox before anyone polls.
                        let world = ctx.world();
                        ctx.oob_fence(&world);
                        ctx.rank() == 0 || step(ctx, kind, 0, how).unwrap()
                    })
                    .unwrap();
                    assert_eq!(r.per_rank, [true, true], "{exec:?} {kind:?} {how:?}");
                    let mine = r.tracer.events().into_iter().filter(|e| e.rank == 1);
                    (r.clocks[1].to_bits(), mine.collect())
                })
                .collect();
            assert_eq!(seen[0].1.len(), 1, "{kind:?}: one Recv line");
            assert!(seen[0].0 > 0);
            assert_eq!(seen[1], seen[0], "{exec:?} {kind:?}: Poll hit vs Block");
            assert_eq!(seen[2], seen[0], "{exec:?} {kind:?}: Deadline vs Block");
        }
    }
}

/// What a wait tells the model checker decides what DPOR explores: a
/// blocking match (`Pop`) is ordered after its push and nothing else, so
/// the program has one schedule; a poll — hit (`PollHit`) or miss
/// (`PollMiss`) — flips when the push moves across it, so the reversal
/// is explored and found to diverge.
#[test]
fn blocking_waits_are_pops_and_polls_are_poll_hits_or_misses() {
    // Lowest ready rank runs first: with the poster at rank 0 the
    // canonical schedule's poll hits, with the poster at rank 1 it misses.
    for (poster, waiter) in [(0, 1), (1, 0)] {
        for kind in KINDS {
            for how in DRIVES {
                let report = explore(&cfg(), "msgpath", &ExploreOpts::default(), |ctx| {
                    if ctx.rank() == poster {
                        post(ctx, kind, waiter);
                        vec![0]
                    } else {
                        vec![u64::from(step(ctx, kind, poster, how).unwrap())]
                    }
                });
                let what = format!("{kind:?} {how:?}, poster {poster}");
                match how {
                    Drive::Poll => {
                        let cert = report.certificate.expect(&what);
                        assert_eq!(cert.violation.kind, ViolationKind::Divergence, "{what}");
                    }
                    Drive::Block | Drive::Deadline => {
                        assert!(report.certificate.is_none(), "{what}");
                        assert_eq!(report.stats.schedules, 1, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_missed_poll_is_free_and_registers_an_interest() {
    for kind in KINDS {
        // The plan makes the rank count its ops: the kill lands on rank
        // 1's op 1, which must be the second `compute` however many
        // polls missed before it.
        let run = |polls: usize, kill: bool| {
            let plan = if kill {
                FaultPlan::none().with_kill(1, 1)
            } else {
                FaultPlan::none().with_detect_timeout(Duration::from_secs(1))
            };
            Universe::run(cfg().with_fault(plan), move |ctx| {
                if ctx.rank() == 0 {
                    return 0;
                }
                for _ in 0..polls {
                    assert!(!step(ctx, kind, 0, Drive::Poll).unwrap());
                }
                let interests = ctx.open_interests();
                ctx.set_op_label("first");
                ctx.compute(1.0e3);
                ctx.set_op_label("second");
                ctx.compute(1.0e3);
                interests
            })
        };
        let (idle, polled) = (run(0, false).unwrap(), run(3, false).unwrap());
        assert_eq!(idle.per_rank[1], 0);
        assert_eq!(
            polled.per_rank[1], 1,
            "{kind:?}: one interest, however often"
        );
        assert_eq!(polled.clocks[1].to_bits(), idle.clocks[1].to_bits());
        assert_eq!(polled.tracer.events(), idle.tracer.events(), "{kind:?}");
        let killed = run(3, true).unwrap_err();
        assert!(killed.is_injected_kill(), "{killed}");
        let report = killed.to_string();
        assert!(report.contains("killed at op 1 during second"), "{report}");
    }
}

#[test]
fn a_deadline_miss_names_the_wait_for_both_kinds() {
    for kind in KINDS {
        // Disarmed: nothing can die or get lost, the detection timeout
        // alone ends the wait.
        let plan = FaultPlan::none().with_detect_timeout(Duration::from_millis(30));
        let r = Universe::run(cfg().with_fault(plan), |ctx| {
            assert!(!ctx.ft_armed());
            let comm = ctx.world().id();
            (ctx.rank() == 1).then(|| (comm, step(ctx, kind, 0, Drive::Deadline)))
        })
        .unwrap();
        let (comm, outcome) = r.per_rank[1].clone().unwrap();
        let want = WaitError::Timeout {
            rank: 1,
            comm,
            src: 0,
            tag: TAG,
        };
        assert_eq!(outcome, Err(want), "{kind:?}");
        assert_eq!(
            r.clocks[1], 0.0,
            "{kind:?}: a failed wait completes nothing"
        );

        // Armed: rank 0 posts once and dies at its next op. Its last
        // push is delivered — by an ordinary slice or by the final drain
        // after the death was seen — and only the wait after it fails.
        let plan = FaultPlan::none().with_kill(0, 1);
        let r = Universe::run_ft(cfg().with_fault(plan), |ctx| {
            assert!(ctx.ft_armed());
            let comm = ctx.world().id();
            if ctx.rank() == 0 {
                post(ctx, kind, 1);
                ctx.compute(1.0);
                unreachable!("killed at op 1");
            }
            let first = step(ctx, kind, 0, Drive::Deadline);
            (comm, first, step(ctx, kind, 0, Drive::Deadline))
        })
        .unwrap();
        assert_eq!(r.failed, [0]);
        let (comm, first, second) = r.per_rank[1].clone().unwrap();
        assert_eq!(first, Ok(true), "{kind:?}: the victim's last push");
        let want = WaitError::RankFailed {
            rank: 1,
            failed: 0,
            comm,
            tag: TAG,
        };
        assert_eq!(second, Err(want), "{kind:?}");
    }
}

#[test]
fn the_three_deposits_keep_their_trace_shapes_and_charges() {
    // 1 node x 3: rank 0 sends, flags and multicasts; its clock after each
    // step and the Send lines it leaves.
    let spec = ClusterSpec::regular(1, 3);
    let cost = CostModel::uniform_test();
    let config = SimConfig::new(spec, cost.clone()).phantom().traced();
    let r = Universe::run(config, |ctx| {
        let world = ctx.world();
        if ctx.rank() != 0 {
            ctx.recv(&world, 0, TAG);
            ctx.wait_flag(&world, 0, TAG + 1);
            ctx.wait_flag(&world, 0, TAG + 2);
            return vec![];
        }
        let mut clocks = vec![ctx.now()];
        for dst in [1, 2] {
            ctx.send(&world, dst, TAG, Payload::Phantom(24));
        }
        clocks.push(ctx.now());
        for dst in [1, 2] {
            ctx.post_flag(&world, dst, TAG + 1);
        }
        clocks.push(ctx.now());
        ctx.post_flag_multicast(&world, TAG + 2);
        clocks.push(ctx.now());
        clocks
    })
    .unwrap();
    let clocks = &r.per_rank[0];
    let step = |i: usize| clocks[i + 1] - clocks[i];
    assert_eq!(step(0), 2.0 * cost.o_send, "one o_send per send");
    assert_eq!(step(1), 2.0 * cost.flag_post_us, "one store per flag");
    assert_eq!(step(2), cost.flag_post_us, "one store, two observers");
    let sends: Vec<(usize, usize, bool, u64)> = r
        .tracer
        .events()
        .into_iter()
        .filter(|e| e.rank == 0)
        .map(|e| match e.kind {
            EventKind::Send { to, bytes, intra } => (to, bytes, intra, e.time.to_bits()),
            other => panic!("rank 0 only sends: {other:?}"),
        })
        .collect();
    let at = |i: usize| clocks[i].to_bits();
    let after_first = |i: usize, charge: f64| (clocks[i] + charge).to_bits();
    assert_eq!(
        sends,
        [
            // A message carries its bytes over the link it takes...
            (1, 24, true, after_first(0, cost.o_send)),
            (2, 24, true, at(1)),
            // ...a flag is zero bytes on the node, one line per store...
            (1, 0, true, after_first(1, cost.flag_post_us)),
            (2, 0, true, at(2)),
            // ...and a multicast one line per observer, all at the one
            // store's time.
            (1, 0, true, at(3)),
            (2, 0, true, at(3)),
        ]
    );
}

/// Rank 0 floods rank 1 with 100 packets under one tag and then posts
/// one under the tag rank 1 is blocked on. On a one-thread pool rank 1
/// parks first (rank 0 yields in a deadline wait nobody answers), so of
/// the 101 pushes only the last meets a receiver blocked on its key:
/// one wake enters the executor, where every push used to hand it one.
/// The flood is received after the awaited packet, in order, and a pool
/// of two workers agrees on results and clock bits.
#[test]
fn a_push_wakes_only_the_receiver_blocked_on_its_key() {
    const FLOODED: u32 = 1;
    const AWAITED: u32 = 2;
    const IDLE: u32 = 3;
    let run = |exec: ExecMode| {
        let plan = FaultPlan::none().with_detect_timeout(Duration::from_millis(20));
        let r = Universe::run(cfg().with_fault(plan).with_exec(exec), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let idle = ctx.recv_deadline(&world, 1, IDLE);
                assert!(matches!(idle, Err(WaitError::Timeout { .. })));
                for i in 1..=100 {
                    ctx.send(&world, 1, FLOODED, Payload::Phantom(i));
                }
                ctx.send(&world, 1, AWAITED, Payload::Phantom(1000));
                return vec![];
            }
            let mut got = vec![ctx.recv(&world, 0, AWAITED).len()];
            got.extend((0..100).map(|_| ctx.recv(&world, 0, FLOODED).len()));
            got
        })
        .unwrap();
        let clock_bits: Vec<u64> = r.clocks.iter().map(|c| c.to_bits()).collect();
        ((r.per_rank, clock_bits, r.tracer.events()), r.stats.wakes)
    };
    let (one, wakes) = run(ExecMode::Pooled { workers: Some(1) });
    let want: Vec<usize> = std::iter::once(1000).chain(1..=100).collect();
    assert_eq!(
        one.0[1], want,
        "the awaited packet, then the flood in order"
    );
    assert_eq!(wakes, 1, "Pooled{{1}}: only the awaited push wakes");
    let (two, _) = run(ExecMode::Pooled { workers: Some(2) });
    assert_eq!(two, one, "Pooled{{2}} vs Pooled{{1}}");
}

/// A rendezvous completion wakes every member parked on it, once each,
/// and nothing else does: on one worker the first five ranks of a
/// six-rank `oob_fence` park in turn, the sixth completes it, and the
/// run ends long before the five would have woken by their deadlines.
/// Two workers park fewer (their ranks overlap), never more.
#[test]
fn a_rendezvous_completion_wakes_each_parked_member() {
    let run = |workers| {
        let t0 = std::time::Instant::now();
        let cfg = SimConfig::new(ClusterSpec::regular(1, 6), CostModel::uniform_test())
            .with_recv_timeout(Duration::from_secs(5))
            .phantom()
            .with_exec(ExecMode::Pooled {
                workers: Some(workers),
            });
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            ctx.oob_fence(&world);
        })
        .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "width {workers}: parked members waited for their deadlines"
        );
        r.stats.wakes
    };
    assert_eq!(run(1), 5, "one wake per parked member");
    assert!(run(2) <= 5);
}

/// Rank 0 blocks on one tag; rank 1, running after it on a one-thread
/// pool, sends three packets under that tag. The first meets rank 0
/// blocked and is handed to it with the run's one wake; the other two
/// queue behind it. Rank 0 receives the three in send order, and a
/// pool of two workers, where rank 1 may send before rank 0 blocks,
/// agrees on results and clock bits and never wakes more.
#[test]
fn pushes_behind_a_handed_packet_arrive_in_send_order() {
    let run = |workers: usize| {
        let cfg = cfg().with_exec(ExecMode::Pooled {
            workers: Some(workers),
        });
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                for len in 1..=3 {
                    ctx.send(&world, 0, TAG, Payload::Phantom(len));
                }
                return vec![];
            }
            (0..3).map(|_| ctx.recv(&world, 1, TAG).len()).collect()
        })
        .unwrap();
        let clock_bits: Vec<u64> = r.clocks.iter().map(|c| c.to_bits()).collect();
        ((r.per_rank, clock_bits, r.tracer.events()), r.stats.wakes)
    };
    let (one, wakes) = run(1);
    assert_eq!(one.0[0], [1, 2, 3]);
    assert_eq!(wakes, 1, "Pooled{{1}}: the first push is handed over");
    let (two, wakes) = run(2);
    assert_eq!(two, one, "Pooled{{2}} vs Pooled{{1}}");
    assert!(wakes <= 1);
}

/// A wait's budget is stall, not wall time: rank 0 waits with a 1 ms
/// deadlock timeout while rank 1 holds its worker for 60 ms and then
/// sends, and the receive completes at both pool widths. Waiting on a
/// rank that is busy is not a deadlock.
#[test]
fn a_wait_never_expires_while_another_rank_runs() {
    const BUSY: Duration = Duration::from_millis(60);
    for workers in [1, 2] {
        let cfg = cfg()
            .with_recv_timeout(Duration::from_millis(1))
            .with_exec(ExecMode::Pooled {
                workers: Some(workers),
            });
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                return ctx.recv(&world, 1, TAG).len();
            }
            std::thread::sleep(BUSY);
            ctx.send(&world, 0, TAG, Payload::Phantom(7));
            0
        })
        .unwrap();
        assert_eq!(r.per_rank, [7, 0], "width {workers}");
    }
}

/// When no rank can run, the wait with the least budget left expires
/// first, and only it: rank 0's 1 ms detection timeout runs out while
/// rank 1's 10 s deadlock timeout does not, so rank 0 learns of its
/// timeout, sends, and rank 1's receive completes. Nothing is slept:
/// the run takes far less than the 10 s budget at both widths.
#[test]
fn quiescence_expires_the_shortest_budget_first() {
    for workers in [1, 2] {
        let t0 = std::time::Instant::now();
        let plan = FaultPlan::none().with_detect_timeout(Duration::from_millis(1));
        let cfg = cfg()
            .with_fault(plan)
            .with_recv_timeout(Duration::from_secs(10))
            .with_exec(ExecMode::Pooled {
                workers: Some(workers),
            });
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let idle = ctx.recv_deadline(&world, 1, TAG);
                assert!(matches!(idle, Err(WaitError::Timeout { rank: 0, .. })));
                ctx.send(&world, 1, TAG, Payload::Phantom(3));
                return 0;
            }
            ctx.recv(&world, 0, TAG).len()
        })
        .unwrap();
        assert_eq!(r.per_rank, [0, 3], "width {workers}");
        assert!(t0.elapsed() < Duration::from_secs(1), "width {workers}");
    }
}
