//! Mutant wall for the DPOR model checker (`msim::explore` / `msim::replay`).
//!
//! Each test seeds a real ordering bug from the hybrid envelope family —
//! a missing QUIESCE fence before window reuse, a flag release reordered
//! ahead of the data it guards, a dropped GO_ALL release, and a
//! schedule-dependent poll chain — and asserts that exhaustive
//! exploration produces a shrunk [`ScheduleCertificate`] whose replay
//! reproduces the violation byte-identically. The corrected version of
//! every program must explore *clean*, and — because correct programs
//! are schedule-deterministic — in exactly one schedule.
//!
//! A replay always runs on one worker (the controller clamps the pool),
//! so every certificate replays whatever width its base configuration
//! names; the race and deadlock certificates are replayed from bases of
//! one and two workers. Deadlock and divergence certificates need no
//! real data and also replay on phantom payloads.

use std::time::Duration;

use msim::{
    explore, replay, Ctx, ExecMode, ExploreOpts, FaultPlan, Payload, ScheduleCertificate,
    SchedulePolicy, SharedWindow, SimConfig, Universe, ViolationKind,
};
use simnet::{ClusterSpec, CostModel};

const ONE: ExecMode = ExecMode::Pooled { workers: Some(1) };
const TWO: ExecMode = ExecMode::Pooled { workers: Some(2) };

const GO: u32 = 40;
const QUIESCE: u32 = 41;
const GATE: u32 = 50;
const D1: u32 = 60;

fn cfg(nodes: usize, ppn: usize) -> SimConfig {
    SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_millis(300))
        .with_race_detect(true)
}

/// Two-round window reuse. The leader fills a shared window, releases the
/// children with a GO flag, and then reuses the window for round 1. The
/// correct version drains the readers with a QUIESCE fence before reuse;
/// the mutant drops the fence, racing the round-1 fill against the
/// round-0 reads.
fn two_round(ctx: &mut Ctx, quiesce: bool) -> Vec<u64> {
    let world = ctx.world();
    let shm = world.split_shared(ctx);
    let my_len = if shm.rank() == 0 { 4 } else { 0 };
    let win: SharedWindow<u64> = SharedWindow::allocate(ctx, &shm, my_len);
    let mut out = Vec::new();
    for round in 0..2u32 {
        if shm.rank() == 0 {
            win.fill_with(0, 4, |i| u64::from(round) * 100 + i as u64);
            ctx.post_flag_multicast(&shm, GO + round);
            if quiesce && round == 0 {
                for child in 1..shm.size() {
                    ctx.wait_flag(&shm, child, QUIESCE);
                }
            }
            out.push(win.read(0));
        } else {
            ctx.wait_flag(&shm, 0, GO + round);
            let mut buf = [0u64; 4];
            win.read_into(0, &mut buf);
            out.push(buf[round as usize]);
            if quiesce && round == 0 {
                ctx.post_flag(&shm, 0, QUIESCE);
            }
        }
    }
    out
}

/// Flag-release ordering. Rank 0 fills a window then posts the release
/// flag; the mutant posts the flag *before* the fill, so readers race
/// the writer.
fn flag_release(ctx: &mut Ctx, reordered: bool) -> Vec<u64> {
    let world = ctx.world();
    let shm = world.split_shared(ctx);
    let my_len = if shm.rank() == 0 { 4 } else { 0 };
    let win: SharedWindow<u64> = SharedWindow::allocate(ctx, &shm, my_len);
    if shm.rank() == 0 {
        if reordered {
            ctx.post_flag_multicast(&shm, GO);
            win.fill_with(0, 4, |i| i as u64 + 1);
        } else {
            win.fill_with(0, 4, |i| i as u64 + 1);
            ctx.post_flag_multicast(&shm, GO);
        }
        (0..4).map(|i| win.read(i)).collect()
    } else {
        ctx.wait_flag(&shm, 0, GO);
        let mut buf = [0u64; 4];
        win.read_into(0, &mut buf);
        buf.to_vec()
    }
}

/// GO_ALL release. The leader releases every child; the mutant skips the
/// last child, which then blocks forever on its flag.
fn go_all(ctx: &mut Ctx, drop_last: bool) -> u64 {
    let world = ctx.world();
    let shm = world.split_shared(ctx);
    if shm.rank() == 0 {
        let last = shm.size() - 1;
        for child in 1..shm.size() {
            if drop_last && child == last {
                continue;
            }
            ctx.post_flag(&shm, child, GO);
        }
        0
    } else {
        ctx.wait_flag(&shm, 0, GO);
        shm.rank() as u64
    }
}

/// Schedule-dependent poll chain. Rank 0 polls for a message that only
/// arrives after a three-hop relay (3 -> 2 -> 1 -> 0) completes. The
/// mutant uses `try_recv`, whose outcome depends on whether rank 0 was
/// scheduled before or after the relay — a divergence a fixed set of
/// fuzz seeds misses (see `fuzzing_misses_the_poll_chain_divergence`).
/// The fix blocks in `recv`, which is schedule-deterministic.
fn poll_chain(ctx: &mut Ctx, fixed: bool) -> u64 {
    let world = ctx.world();
    let shm = world.split_shared(ctx);
    let n = shm.size();
    let r = shm.rank();
    if r == 0 {
        if fixed {
            ctx.recv(&shm, 1, D1);
            1
        } else {
            u64::from(ctx.try_recv(&shm, 1, D1).is_some())
        }
    } else {
        if r < n - 1 {
            ctx.recv(&shm, r + 1, GATE + r as u32);
        }
        let tag = if r == 1 { D1 } else { GATE + r as u32 - 1 };
        ctx.send(&shm, r - 1, tag, Payload::empty());
        (r * 10) as u64
    }
}

/// Early-send poll: the *pusher sits at a lower rank than the poller*,
/// so the canonical first schedule (lowest ready rank) runs the send
/// before rank 1's single `try_recv`, which therefore *hits*. The only
/// divergent schedule is the push/poll-hit reversal — poll scheduled
/// first, poll misses — the direction `poll_chain` (whose canonical
/// schedule polls first and records a `PollMiss`) never exercises. No
/// communicator split here: its rendezvous would park rank 0 until the
/// poller is already running, erasing the hit-first canonical order.
/// The fix blocks in `recv`, which is schedule-deterministic.
fn early_send_poll(ctx: &mut Ctx, fixed: bool) -> u64 {
    let world = ctx.world();
    if ctx.rank() == 0 {
        ctx.send(&world, 1, D1, Payload::empty());
        7
    } else if fixed {
        ctx.recv(&world, 0, D1);
        1
    } else {
        u64::from(ctx.try_recv(&world, 0, D1).is_some())
    }
}

/// Replays `cert` under `exec` and asserts the reproduced violation is
/// byte-identical to the one recorded in the certificate.
fn assert_replays_identically(
    base: &SimConfig,
    cert: &ScheduleCertificate,
    exec: ExecMode,
    f: impl Fn(&mut Ctx) -> Vec<u64> + Send + Sync,
) {
    let cfg = base.clone().with_exec(exec);
    let got = replay(&cfg, cert, f).expect("replay must reproduce the violation");
    assert_eq!(
        got, cert.violation,
        "replay under {exec:?} must be byte-identical"
    );
}

#[test]
fn missing_quiesce_fence_yields_replayable_race_certificate() {
    let base = cfg(1, 3);
    let report = explore(&base, "two_round", &ExploreOpts::default(), |ctx| {
        two_round(ctx, false)
    });
    let cert = report.certificate.expect("missing fence must be caught");
    assert_eq!(cert.violation.kind, ViolationKind::Race);

    // Byte-identical replay from either base width.
    for exec in [ONE, TWO] {
        assert_replays_identically(&base, &cert, exec, |ctx| two_round(ctx, false));
    }
}

#[test]
fn corrected_two_round_explores_clean_in_one_schedule() {
    let report = explore(
        &cfg(1, 3),
        "two_round_fixed",
        &ExploreOpts::default(),
        |ctx| two_round(ctx, true),
    );
    assert!(report.certificate.is_none(), "{:?}", report.certificate);
    assert_eq!(report.stats.schedules, 1, "{:?}", report.stats);
    assert!(!report.stats.capped);
}

#[test]
fn reordered_flag_release_yields_replayable_race_certificate() {
    let base = cfg(1, 3);
    let report = explore(&base, "flag_release", &ExploreOpts::default(), |ctx| {
        flag_release(ctx, true)
    });
    let cert = report
        .certificate
        .expect("reordered release must be caught");
    assert_eq!(cert.violation.kind, ViolationKind::Race);
    for exec in [ONE, TWO] {
        assert_replays_identically(&base, &cert, exec, |ctx| flag_release(ctx, true));
    }

    // Certificates survive a JSON round trip and still replay.
    let round = ScheduleCertificate::from_json(&cert.to_json()).expect("round trip");
    assert_eq!(round, cert);
    assert_replays_identically(
        &base,
        &round,
        ExecMode::Pooled { workers: Some(1) },
        |ctx| flag_release(ctx, true),
    );
}

#[test]
fn corrected_flag_release_explores_clean_in_one_schedule() {
    let report = explore(
        &cfg(1, 3),
        "flag_release_fixed",
        &ExploreOpts::default(),
        |ctx| flag_release(ctx, false),
    );
    assert!(report.certificate.is_none(), "{:?}", report.certificate);
    assert_eq!(report.stats.schedules, 1, "{:?}", report.stats);
}

#[test]
fn dropped_go_all_yields_deadlock_certificate_on_all_executors() {
    let base = cfg(1, 3);
    let report = explore(&base, "go_all", &ExploreOpts::default(), |ctx| {
        vec![go_all(ctx, true)]
    });
    let cert = report.certificate.expect("dropped release must deadlock");
    assert_eq!(cert.violation.kind, ViolationKind::Deadlock);
    // Every schedule deadlocks, so the shrunk certificate needs no
    // forced decisions at all.
    assert!(
        cert.decisions.is_empty(),
        "decisions = {:?}",
        cert.decisions
    );

    for exec in [ONE, TWO] {
        assert_replays_identically(&base, &cert, exec, |ctx| vec![go_all(ctx, true)]);
    }
    // Deadlocks need no real data, so the certificate also replays on
    // phantom payloads.
    let phantom = cfg(1, 3).phantom().with_race_detect(false);
    assert_replays_identically(&phantom, &cert, ONE, |ctx| vec![go_all(ctx, true)]);
}

#[test]
fn corrected_go_all_explores_clean_in_one_schedule() {
    let report = explore(&cfg(1, 3), "go_all_fixed", &ExploreOpts::default(), |ctx| {
        vec![go_all(ctx, false)]
    });
    assert!(report.certificate.is_none(), "{:?}", report.certificate);
    assert_eq!(report.stats.schedules, 1, "{:?}", report.stats);
}

#[test]
fn poll_chain_divergence_is_found_and_replays_on_real_and_phantom_payloads() {
    let base = cfg(1, 5).with_race_detect(false);
    let report = explore(&base, "poll_chain", &ExploreOpts::default(), |ctx| {
        vec![poll_chain(ctx, false)]
    });
    let cert = report.certificate.expect("poll chain must diverge");
    assert_eq!(cert.violation.kind, ViolationKind::Divergence);
    assert!(
        !cert.decisions.is_empty(),
        "a divergence needs forced picks"
    );
    // DPOR walks the relay one backtrack hop at a time: six schedules to
    // push the whole 4 -> 3 -> 2 -> 1 chain ahead of rank 0's poll.
    assert_eq!(report.stats.schedules, 6, "{:?}", report.stats);

    assert_replays_identically(&base, &cert, ExecMode::Pooled { workers: Some(1) }, |ctx| {
        vec![poll_chain(ctx, false)]
    });
    // Empty payloads are phantom-legal, so the same certificate drives
    // a phantom run to the same divergent digest.
    let phantom = cfg(1, 5).phantom().with_race_detect(false);
    assert_replays_identically(&phantom, &cert, ONE, |ctx| vec![poll_chain(ctx, false)]);
}

#[test]
fn poll_chain_divergence_is_found_without_preemptions() {
    // The divergent schedule only reorders run-to-block segments, so a
    // preemption bound of zero must still find it.
    let base = cfg(1, 5).with_race_detect(false);
    let opts = ExploreOpts {
        preemption_bound: Some(0),
        ..ExploreOpts::default()
    };
    let report = explore(&base, "poll_chain", &opts, |ctx| {
        vec![poll_chain(ctx, false)]
    });
    let cert = report.certificate.expect("bound 0 still covers the chain");
    assert_eq!(cert.violation.kind, ViolationKind::Divergence);
}

#[test]
fn corrected_poll_chain_explores_clean_in_one_schedule() {
    let base = cfg(1, 5).with_race_detect(false);
    let report = explore(&base, "poll_chain_fixed", &ExploreOpts::default(), |ctx| {
        vec![poll_chain(ctx, true)]
    });
    assert!(report.certificate.is_none(), "{:?}", report.certificate);
    assert_eq!(report.stats.schedules, 1, "{:?}", report.stats);
}

#[test]
fn early_send_poll_hit_reversal_is_found_and_replays() {
    // Regression for the poll-hit soundness hole: when the canonical
    // schedule makes the nonblocking poll *succeed*, the push → poll
    // match must still be treated as a reversible race, or exploration
    // stops after one schedule and wrongly claims exhaustiveness.
    let base = cfg(1, 2).with_race_detect(false);
    let report = explore(&base, "early_send_poll", &ExploreOpts::default(), |ctx| {
        vec![early_send_poll(ctx, false)]
    });
    let cert = report
        .certificate
        .expect("the poll-first schedule must be explored and diverge");
    assert_eq!(cert.violation.kind, ViolationKind::Divergence);
    assert!(
        report.stats.schedules > 1,
        "one schedule cannot be exhaustive here: {:?}",
        report.stats
    );

    assert_replays_identically(&base, &cert, ExecMode::Pooled { workers: Some(1) }, |ctx| {
        vec![early_send_poll(ctx, false)]
    });
    let phantom = cfg(1, 2).phantom().with_race_detect(false);
    assert_replays_identically(&phantom, &cert, ONE, |ctx| {
        vec![early_send_poll(ctx, false)]
    });
}

#[test]
fn multi_worker_pooled_replay_is_clamped_to_one_worker() {
    let base = cfg(1, 2).with_race_detect(false);
    let report = explore(&base, "early_send_poll", &ExploreOpts::default(), |ctx| {
        vec![early_send_poll(ctx, false)]
    });
    let cert = report.certificate.expect("divergence certificate");
    // A Replay policy under a *multi-worker* pooled config must not race
    // workers through the controller (decision indices would depend on
    // OS interleaving): `Universe::run` clamps controlled pooled runs to
    // the documented single-worker model, so the steered poll-first
    // outcome (rank 1 misses) reproduces deterministically.
    let cfg = base
        .with_exec(ExecMode::Pooled { workers: Some(4) })
        .with_fault(FaultPlan::none().with_schedule(SchedulePolicy::Replay(cert)));
    for _ in 0..4 {
        let out =
            Universe::run(cfg.clone(), |ctx| vec![early_send_poll(ctx, false)]).expect("clean run");
        let firsts: Vec<u64> = out.per_rank.iter().map(|v| v[0]).collect();
        assert_eq!(
            firsts,
            vec![7, 0],
            "poll must miss under the replayed schedule"
        );
    }
}

#[test]
fn corrected_early_send_poll_explores_clean_in_one_schedule() {
    let base = cfg(1, 2).with_race_detect(false);
    let report = explore(
        &base,
        "early_send_poll_fixed",
        &ExploreOpts::default(),
        |ctx| vec![early_send_poll(ctx, true)],
    );
    assert!(report.certificate.is_none(), "{:?}", report.certificate);
    assert_eq!(report.stats.schedules, 1, "{:?}", report.stats);
}

#[test]
fn fuzzing_misses_the_poll_chain_divergence() {
    // The 8-seed adversarial fuzz pass — the repo's existing schedule
    // fuzzing idiom — never schedules the full 3 -> 2 -> 1 relay ahead
    // of rank 0's poll, so every seed reproduces the reference outcome.
    // The model checker above finds the divergence exhaustively.
    let reference = {
        let cfg = cfg(1, 5)
            .with_race_detect(false)
            .with_exec(ExecMode::Pooled { workers: Some(1) });
        Universe::run(cfg.clone(), |ctx| poll_chain(ctx, false)).expect("clean run")
    };
    for seed in 0..8u64 {
        let cfg = cfg(1, 5)
            .with_race_detect(false)
            .with_exec(ExecMode::Pooled { workers: Some(1) })
            .with_fault(FaultPlan::none().with_schedule(SchedulePolicy::adversarial(seed)));
        let out = Universe::run(cfg.clone(), |ctx| poll_chain(ctx, false)).expect("clean run");
        assert_eq!(
            out.per_rank, reference.per_rank,
            "seed {seed} unexpectedly caught the divergence"
        );
    }
}

#[test]
fn dpor_prunes_against_naive_exploration() {
    // Same mutant, same search space: DPOR + sleep sets must explore
    // strictly fewer schedules than the naive enumerate-everything DFS.
    let base = cfg(1, 4).with_race_detect(false);
    let dpor = explore(&base, "poll_chain_fixed", &ExploreOpts::default(), |ctx| {
        vec![poll_chain(ctx, true)]
    });
    let naive = explore(
        &base,
        "poll_chain_fixed",
        &ExploreOpts {
            naive: true,
            ..ExploreOpts::default()
        },
        |ctx| vec![poll_chain(ctx, true)],
    );
    assert!(naive.certificate.is_none());
    // The acceptance floor is a 10x reduction; the chain actually gives
    // a few thousand-to-one.
    assert!(
        naive.stats.schedules >= 10 * dpor.stats.schedules,
        "naive {} vs dpor {}",
        naive.stats.schedules,
        dpor.stats.schedules
    );
}

#[test]
fn public_replay_policy_reproduces_a_deadlock() {
    // `SchedulePolicy::Replay` is a public `FaultPlan` knob: driving the
    // universe directly (without `msim::replay`) reproduces the recorded
    // error through the normal result path.
    let base = cfg(1, 3);
    let report = explore(&base, "go_all", &ExploreOpts::default(), |ctx| {
        vec![go_all(ctx, true)]
    });
    let cert = report.certificate.expect("deadlock certificate");
    let cfg = base
        .with_exec(ExecMode::Pooled { workers: Some(1) })
        .with_fault(FaultPlan::none().with_schedule(SchedulePolicy::Replay(cert)));
    let err = Universe::run(cfg.clone(), |ctx| vec![go_all(ctx, true)]).expect_err("must deadlock");
    assert!(err.is_deadlock(), "{err:?}");
}

#[test]
fn committed_certificate_regression_replays() {
    // A certificate committed as a plain JSON artifact keeps replaying
    // long after the exploration that produced it: certificates are
    // regression tests.
    let json = include_str!("certs/dropped_go_all.json");
    let cert = ScheduleCertificate::from_json(json).expect("committed certificate parses");
    assert_eq!(cert.violation.kind, ViolationKind::Deadlock);
    assert_replays_identically(
        &cfg(1, 3),
        &cert,
        ExecMode::Pooled { workers: Some(1) },
        |ctx| vec![go_all(ctx, true)],
    );
    // And the canonical encoding is stable: re-serialising reproduces
    // the committed bytes exactly.
    assert_eq!(cert.to_json(), json.trim_end());
}
