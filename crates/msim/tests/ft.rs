//! Runtime-level fault-tolerance tests: the failure detector turns
//! parked waits into typed errors, injected message loss is seeded and
//! deterministic, heartbeats propagate through delivered packets, and an
//! injected kill's error report names the victim's in-flight operation.

use std::panic::AssertUnwindSafe;
use std::time::Duration;

use msim::{
    testany, waitall, Ctx, FaultPlan, Payload, Request, SimConfig, SimError, Universe, WaitError,
};
use simnet::{ClusterSpec, CostModel, Perturbation};

fn cfg(nodes: usize, ppn: usize) -> SimConfig {
    SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_secs(5))
}

/// With an armed fault plan, a receive from a dead rank unwinds as
/// `WaitError::RankFailed` (caught here by the recovering body) rather
/// than parking until the deadlock timeout.
#[test]
fn recv_from_dead_rank_reports_rank_failed() {
    let plan = FaultPlan::none().with_kill(1, 0);
    let r = Universe::run_ft(cfg(1, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.rank() == 1 {
            // Dies at its first op, before sending anything.
            ctx.send(&world, 0, 7, Payload::empty());
            return String::new();
        }
        match ctx.recv_deadline(&world, 1, 7) {
            Ok(_) => "delivered".to_string(),
            Err(WaitError::RankFailed { failed, .. }) => format!("failed:{failed}"),
            Err(other) => format!("unexpected:{other}"),
        }
    })
    .unwrap();
    assert_eq!(r.failed, vec![1]);
    assert_eq!(r.per_rank[0].as_deref(), Some("failed:1"));
}

/// A totally lost message surfaces as `WaitError::Timeout` after the
/// detection window — the run does not hang and the receiver learns the
/// missing (src, tag).
#[test]
fn total_message_loss_times_out_with_a_typed_error() {
    let plan = FaultPlan::none()
        .with_drop(1.0) // every transit attempt is dropped
        .with_detect_timeout(Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let r = Universe::run_ft(cfg(1, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&world, 1, 3, Payload::empty());
            return "sent".to_string();
        }
        match ctx.recv_deadline(&world, 0, 3) {
            Ok(_) => "delivered".to_string(),
            Err(WaitError::Timeout { src, tag, .. }) => format!("timeout:{src}:{tag}"),
            Err(other) => format!("unexpected:{other}"),
        }
    })
    .unwrap();
    assert_eq!(r.per_rank[1].as_deref(), Some("timeout:0:3"));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "loss detection must be prompt, took {:?}",
        t0.elapsed()
    );
}

/// Message loss is a pure function of (seed, link, sequence, attempt):
/// same plan, same delivered set — and a transport retry policy turns
/// partial loss back into delivery with only a latency penalty.
#[test]
fn drop_pattern_is_seeded_and_retry_recovers_it() {
    let deliveries = |perturb_seed: u64, retries: u32| {
        let mut perturb = Perturbation::none().with_drop_prob(0.5);
        perturb.seed = perturb_seed;
        let plan = FaultPlan::none()
            .with_perturbation(perturb)
            .with_retry(msim::RetryPolicy {
                max_retries: retries,
                timeout_us: 50.0,
                backoff: 2.0,
                jitter_us: 0.0,
                jitter_seed: 0,
            })
            .with_detect_timeout(Duration::from_millis(100));
        Universe::run_ft(cfg(1, 2).with_fault(plan), |ctx| {
            let world = ctx.world();
            let mut delivered = Vec::new();
            if ctx.rank() == 0 {
                for tag in 0..16u32 {
                    ctx.send(&world, 1, tag, Payload::empty());
                }
            } else {
                for tag in 0..16u32 {
                    if ctx.recv_deadline(&world, 0, tag).is_ok() {
                        delivered.push(tag);
                    }
                }
            }
            delivered
        })
        .unwrap()
        .per_rank[1]
            .clone()
            .unwrap()
    };
    let a = deliveries(11, 0);
    let b = deliveries(11, 0);
    assert_eq!(a, b, "same seed, same loss pattern");
    assert!(a.len() < 16, "p=0.5 with no retries must lose something");
    let retried = deliveries(11, 8);
    assert_eq!(
        retried.len(),
        16,
        "8 retransmissions at p=0.5 recover every message"
    );
    let c = deliveries(12, 0);
    assert_ne!(a, c, "different seed, different loss pattern");
}

/// Heartbeat epochs ride delivered packets: after a receive, the
/// receiver's liveness table has folded in the sender's beat.
#[test]
fn heartbeats_piggyback_on_messages() {
    let plan = FaultPlan::none().with_kill(2, 1000); // arm, never fires
    let r = Universe::run_ft(cfg(1, 3).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.rank() == 0 {
            for _ in 0..4 {
                ctx.compute(1.0); // four beats
            }
            ctx.send(&world, 1, 0, Payload::empty());
            return 0;
        }
        if ctx.rank() == 1 {
            let before = ctx.ft_last_seen(0).unwrap();
            ctx.recv(&world, 0, 0);
            let after = ctx.ft_last_seen(0).unwrap();
            assert!(
                after > before && after >= 4,
                "beat must advance across the receive: {before} -> {after}"
            );
            return 1;
        }
        2
    })
    .unwrap();
    assert!(r.failed.is_empty());
}

/// The injected-kill error names the victim's in-flight operation (the
/// op label set by the fault-tolerant driver), so post-mortems can tell
/// *what* the rank was doing when it died.
#[test]
fn kill_error_carries_the_op_label() {
    let plan = FaultPlan::none().with_kill(1, 2);
    let err = Universe::run(cfg(1, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        ctx.set_op_label("exchange.phase2");
        let peer = 1 - ctx.rank();
        for round in 0..4u32 {
            ctx.send(&world, peer, round, Payload::empty());
            ctx.recv(&world, peer, round);
        }
    })
    .unwrap_err();
    match &err {
        SimError::RankPanicked { rank, message } => {
            assert_eq!(*rank, 1);
            assert!(
                message.contains("during exchange.phase2"),
                "kill report must name the in-flight op: {message}"
            );
        }
        other => panic!("expected the injected kill, got {other}"),
    }
}

/// `Comm_agree`/`Comm_shrink` from user code: survivors agree on the
/// dead set and the shrunk communicator excludes exactly those ranks,
/// with a fresh context id.
#[test]
fn agree_and_shrink_exclude_the_dead() {
    let plan = FaultPlan::none().with_kill(1, 0);
    let r = Universe::run_ft(cfg(1, 3).with_fault(plan), |ctx| {
        let world = ctx.world();
        let ping = |ctx: &mut Ctx| -> Result<(), WaitError> {
            if ctx.rank() == 1 {
                ctx.compute(1.0); // the kill op
                return Ok(());
            }
            // 0 and 2 wait on 1, which never sends.
            ctx.recv_deadline(&world, 1, 0).map(|_| ())
        };
        ping(ctx).expect_err("rank 1 is dead");
        ctx.ft_divert(1);
        let outcome = ctx.ft_agree(&world, 0);
        assert_eq!(outcome.dead, vec![1]);
        let shrunk = world.shrink(ctx, &outcome);
        ctx.set_ft_epoch(1);
        assert_ne!(shrunk.id(), world.id(), "shrink must get a fresh id");
        (shrunk.members().to_vec(), shrunk.rank())
    })
    .unwrap();
    assert_eq!(r.failed, vec![1]);
    assert_eq!(r.per_rank[0], Some((vec![0, 2], 0)));
    assert_eq!(r.per_rank[2], Some((vec![0, 2], 1)));
}

/// A shrunk communicator counts its own nodes: the world's count was
/// cached before the failure, and losing a whole node must not leak
/// that stale figure into the survivors' communicator.
#[test]
fn shrink_recounts_nodes_after_a_node_dies() {
    let plan = FaultPlan::none().with_node_kill(1, 0);
    let r = Universe::run_ft(cfg(3, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        assert_eq!(world.num_nodes(ctx.map()), 3);
        if ctx.node() == 1 {
            ctx.compute(1.0); // the kill op
            return (0, 0);
        }
        ctx.recv_deadline(&world, 2, 9).expect_err("rank 2 is dead");
        ctx.ft_divert(1);
        let outcome = ctx.ft_agree(&world, 0);
        let shrunk = world.shrink(ctx, &outcome);
        ctx.set_ft_epoch(1);
        let mut nodes: Vec<usize> = shrunk
            .members()
            .iter()
            .map(|&g| ctx.map().node_of(g))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        (shrunk.num_nodes(ctx.map()), nodes.len())
    })
    .unwrap();
    assert_eq!(r.failed, vec![2, 3]);
    for rank in [0, 1, 4, 5] {
        assert_eq!(r.per_rank[rank], Some((2, 2)), "rank {rank}");
    }
}

/// A node kill is correlated: every rank resident on the node dies at
/// its own op index, and survivors see each death as a typed failure.
#[test]
fn node_kill_takes_out_every_resident_rank() {
    let plan = FaultPlan::none().with_node_kill(1, 0);
    let r = Universe::run_ft(cfg(2, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.node() == 1 {
            ctx.compute(1.0); // the kill op
            return Vec::new();
        }
        // Node-0 survivors observe both node-1 deaths as typed errors.
        [2usize, 3]
            .iter()
            .map(|&peer| match ctx.recv_deadline(&world, peer, 9) {
                Err(WaitError::RankFailed { failed, .. }) => failed,
                other => panic!("expected RankFailed from {peer}, got {other:?}"),
            })
            .collect::<Vec<usize>>()
    })
    .unwrap();
    assert_eq!(r.failed, vec![2, 3], "the whole node dies");
    assert_eq!(r.per_rank[0].as_deref(), Some(&[2usize, 3][..]));
    assert_eq!(r.per_rank[1].as_deref(), Some(&[2usize, 3][..]));
}

/// A partition blackholes cross-cut traffic for its virtual-time window
/// and heals after: without retransmission the message is lost to a
/// typed timeout, while a retry policy whose backed-off attempts outlive
/// the window delivers it — at a deterministic virtual-time penalty.
#[test]
fn partition_blackholes_then_heals_under_retry() {
    let run = |retries: u32| {
        let plan = FaultPlan::none()
            .with_partition(vec![1], 0.0, 500.0)
            .with_retry(msim::RetryPolicy {
                max_retries: retries,
                timeout_us: 200.0,
                backoff: 2.0,
                jitter_us: 0.0,
                jitter_seed: 0,
            })
            .with_detect_timeout(Duration::from_millis(100));
        Universe::run_ft(cfg(2, 1).with_fault(plan), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                // Sent at virtual time 0, inside the partition window.
                ctx.send(&world, 1, 3, Payload::empty());
                return "sent".to_string();
            }
            match ctx.recv_deadline(&world, 0, 3) {
                Ok(_) => format!("delivered@{}", ctx.now()),
                Err(WaitError::Timeout { src, tag, .. }) => format!("timeout:{src}:{tag}"),
                Err(other) => format!("unexpected:{other}"),
            }
        })
        .unwrap()
    };
    // No retries: the only attempt lands mid-window and is blackholed.
    let lost = run(0);
    assert_eq!(lost.per_rank[1].as_deref(), Some("timeout:0:3"));
    // Attempts at t = 0 and t = 200 are cut; the third (t = 600) lands
    // after the heal. The virtual clock pays exactly the backoff.
    let healed = run(2);
    let got = healed.per_rank[1].as_deref().unwrap();
    assert!(
        got.starts_with("delivered@"),
        "retry must outlive the partition window: {got}"
    );
    assert_eq!(
        healed.per_rank[1],
        run(2).per_rank[1],
        "penalty is deterministic"
    );
}

/// A flapping link loses attempts only in its down phases, with a seeded
/// coin: the delivered set is reproducible per seed and differs across
/// seeds.
#[test]
fn link_flap_drops_are_seeded_and_periodic() {
    let deliveries = |seed: u64| {
        let mut perturb = Perturbation::none().with_link_flap(0, 1, 100.0, 0.5, 0.9);
        perturb.seed = seed;
        let plan = FaultPlan::none()
            .with_perturbation(perturb)
            .with_retry(msim::RetryPolicy {
                max_retries: 0,
                timeout_us: 50.0,
                backoff: 2.0,
                jitter_us: 0.0,
                jitter_seed: 0,
            })
            .with_detect_timeout(Duration::from_millis(100));
        Universe::run_ft(cfg(2, 1).with_fault(plan), |ctx| {
            let world = ctx.world();
            let mut delivered = Vec::new();
            if ctx.rank() == 0 {
                for tag in 0..16u32 {
                    ctx.compute(30.0); // walk through the flap phases
                    ctx.send(&world, 1, tag, Payload::empty());
                }
            } else {
                for tag in 0..16u32 {
                    if ctx.recv_deadline(&world, 0, tag).is_ok() {
                        delivered.push(tag);
                    }
                }
            }
            delivered
        })
        .unwrap()
        .per_rank[1]
            .clone()
            .unwrap()
    };
    let a = deliveries(5);
    assert_eq!(a, deliveries(5), "same seed, same flap losses");
    assert!(!a.is_empty(), "up phases deliver");
    assert!(a.len() < 16, "down phases lose");
    assert_ne!(a, deliveries(6), "different seed, different losses");
}

/// A straggler (slow core + first attempts of every send lost) exercises
/// the retry/backoff path without killing anyone: everything is
/// delivered, nobody is declared dead, and the straggler pays its
/// deterministic compute and retransmit penalties in virtual time.
#[test]
fn straggler_backs_off_without_dying() {
    let run = || {
        let plan = FaultPlan::none()
            .with_straggler(1, 3.0, 2)
            .with_retry(msim::RetryPolicy {
                max_retries: 4,
                timeout_us: 50.0,
                backoff: 2.0,
                jitter_us: 0.0,
                jitter_seed: 0,
            })
            .with_detect_timeout(Duration::from_millis(200));
        Universe::run_ft(cfg(1, 2).with_fault(plan), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                ctx.compute(100.0); // 300 µs on the slow core
                ctx.send(&world, 0, 0, Payload::empty());
                return true;
            }
            ctx.recv_deadline(&world, 1, 0).is_ok()
        })
        .unwrap()
    };
    let r = run();
    assert!(r.failed.is_empty(), "a straggler is slow, not dead");
    assert_eq!(r.per_rank, vec![Some(true), Some(true)]);
    // The receiver waits out the slowed compute (3 x 100 µs) plus two
    // backed-off retransmits (50 + 100 µs) before the message lands.
    assert!(
        r.clocks[0] >= 450.0,
        "receiver clock {} must include the straggler's compute scale + retry penalty",
        r.clocks[0]
    );
    assert_eq!(
        r.clocks,
        run().clocks,
        "straggler penalties are deterministic"
    );
}

// --- nonblocking x fault tolerance ---------------------------------------

/// A posted `irecv` whose peer is dead fails `wait_deadline` with the
/// typed `RankFailed` instead of hanging to the detect timeout.
#[test]
fn irecv_from_dead_rank_fails_wait_deadline() {
    let plan = FaultPlan::none().with_kill(1, 0);
    let r = Universe::run_ft(cfg(1, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.rank() == 1 {
            ctx.compute(1.0); // the kill op
            return String::new();
        }
        let req = ctx.irecv(&world, 1, 7);
        match req.wait_deadline(ctx) {
            Err(WaitError::RankFailed { failed, .. }) => format!("failed:{failed}"),
            other => format!("unexpected:{other:?}"),
        }
    })
    .unwrap();
    assert_eq!(r.failed, vec![1]);
    assert_eq!(r.per_rank[0].as_deref(), Some("failed:1"));
}

/// `waitall` over a batch containing a request from a dead peer unwinds
/// with the typed `WaitError` (the blocking-path convention, so a
/// fault-aware driver above can catch and recover) instead of hanging.
#[test]
fn waitall_unwinds_typed_when_a_peer_dies() {
    let plan = FaultPlan::none().with_kill(1, 1);
    let r = Universe::run_ft(cfg(1, 3).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.rank() == 1 {
            ctx.send(&world, 0, 0, Payload::empty()); // delivered
            ctx.compute(1.0); // the kill op — tag 1 is never sent
            return String::new();
        }
        if ctx.rank() == 2 {
            return String::new();
        }
        let reqs = vec![ctx.irecv(&world, 1, 0), ctx.irecv(&world, 1, 1)];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| waitall(ctx, reqs)));
        match caught {
            Ok(_) => "completed".to_string(),
            Err(payload) => match payload.downcast::<WaitError>() {
                Ok(e) => match *e {
                    WaitError::RankFailed { failed, .. } => format!("failed:{failed}"),
                    other => format!("unexpected:{other}"),
                },
                Err(_) => "untyped panic".to_string(),
            },
        }
    })
    .unwrap();
    assert_eq!(r.failed, vec![1]);
    assert_eq!(r.per_rank[0].as_deref(), Some("failed:1"));
}

/// A `testany` scan over pending requests from a dead peer surfaces the
/// typed failure (again via unwind, matching the blocking paths) instead
/// of letting the poll loop spin forever.
#[test]
fn testany_surfaces_rank_failed_instead_of_spinning() {
    let plan = FaultPlan::none().with_kill(1, 0);
    let r = Universe::run_ft(cfg(1, 2).with_fault(plan), |ctx| {
        let world = ctx.world();
        if ctx.rank() == 1 {
            ctx.compute(1.0); // the kill op
            return String::new();
        }
        // Observe the death first (parks until the detector fires), so
        // the subsequent poll-only scan must already see the failure.
        let seen = match ctx.recv_deadline(&world, 1, 0) {
            Err(WaitError::RankFailed { failed, .. }) => failed,
            other => return format!("unexpected recv outcome: {other:?}"),
        };
        assert_eq!(seen, 1);
        let mut reqs = vec![ctx.irecv(&world, 1, 2)];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| testany(ctx, &mut reqs)));
        match caught {
            Ok(polled) => format!("no failure surfaced: {polled:?}"),
            Err(payload) => match payload.downcast::<WaitError>() {
                Ok(e) => match *e {
                    WaitError::RankFailed { failed, .. } => format!("failed:{failed}"),
                    other => format!("unexpected:{other}"),
                },
                Err(_) => "untyped panic".to_string(),
            },
        }
    })
    .unwrap();
    assert_eq!(r.failed, vec![1]);
    assert_eq!(r.per_rank[0].as_deref(), Some("failed:1"));
}
