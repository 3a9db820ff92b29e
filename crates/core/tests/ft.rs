//! Fault-tolerance conformance: under `FaultPolicy::Shrink` every hybrid
//! collective family completes with correct *shrunk-world* results when
//! any single rank — node leader or follower — is killed mid-operation,
//! across fuzz seeds, all three sync methods, and regular + irregular
//! layouts. Recovery traces are deterministic: same seed, same bytes.
//!
//! `MSIM_FT_SEEDS=n` trims the seed sweep (CI `--quick` uses 1).

use collectives::op::Sum;
use collectives::{FaultPolicy, Tuning};
use hmpi::{FtComm, Leaders, SyncMethod};
use msim::{Ctx, ExecMode, FaultPlan, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel};
use std::time::Duration;

const ONE: ExecMode = ExecMode::Pooled { workers: Some(1) };
const TWO: ExecMode = ExecMode::Pooled { workers: Some(2) };

const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

/// (layout, leader victim, follower victim): victims cover "a whole node
/// dies" (rank 0 is alone on node 0 of the irregular layout) and "a
/// non-leader follower dies".
fn layouts() -> Vec<(ClusterSpec, usize, usize)> {
    vec![
        (ClusterSpec::regular(2, 3), 0, 5),
        (ClusterSpec::irregular(vec![1, 3, 4]), 0, 7),
    ]
}

fn seeds() -> Vec<u64> {
    let n = std::env::var("MSIM_FT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4u64);
    (0..n.max(1)).collect()
}

/// Irregular block length for global rank `g` (irregular on purpose —
/// the shrunk world must keep per-rank counts straight).
fn count_of(g: usize) -> usize {
    g % 3 + 1
}

fn block_of(g: usize) -> Vec<f64> {
    (0..count_of(g)).map(|i| (g * 10 + i) as f64).collect()
}

fn bcast_message(root: usize) -> Vec<f64> {
    (0..4).map(|i| (root * 100 + i) as f64).collect()
}

fn reduce_contribution(g: usize) -> Vec<f64> {
    vec![g as f64, (2 * g) as f64, (3 * g) as f64]
}

#[derive(Clone, Copy, Debug)]
enum Family {
    Allgatherv,
    Allgather,
    Bcast,
    Allreduce,
}

/// Two protected rounds of one family; returns the last round's result.
/// Two rounds guarantee the kill (op index < 4) lands mid-operation even
/// on the leanest path (a follower under `SharedFlags` performs only two
/// tracked ops per round), and exercise post-recovery rounds on the
/// already-shrunk communicator.
fn run_family(ctx: &mut Ctx, family: Family, sync: SyncMethod, fault: FaultPolicy) -> Vec<f64> {
    let world = ctx.world();
    let mut ft = FtComm::new(&world, Tuning::cray_mpich(), sync).with_fault(fault);
    let mut last = Vec::new();
    for _round in 0..2 {
        last = match family {
            Family::Allgatherv => {
                let mine = block_of(ctx.rank());
                ft.allgatherv(ctx, &mine, count_of)
            }
            Family::Allgather => {
                let mine = vec![ctx.rank() as f64; 3];
                ft.allgather(ctx, &mine)
            }
            Family::Bcast => ft.bcast(ctx, 0, 4, bcast_message),
            Family::Allreduce => {
                let mine = reduce_contribution(ctx.rank());
                ft.allreduce(ctx, &mine, Sum)
            }
        };
    }
    last
}

/// What the last round must produce on a world shrunk to `survivors`.
fn expected(family: Family, survivors: &[usize]) -> Vec<f64> {
    match family {
        Family::Allgatherv => survivors.iter().flat_map(|&g| block_of(g)).collect(),
        Family::Allgather => survivors.iter().flat_map(|&g| vec![g as f64; 3]).collect(),
        // Root 0 may be the victim: the lowest-rank survivor takes over.
        Family::Bcast => bcast_message(if survivors.contains(&0) {
            0
        } else {
            survivors[0]
        }),
        Family::Allreduce => (0..3)
            .map(|i| {
                survivors
                    .iter()
                    .map(|&g| reduce_contribution(g)[i])
                    .sum::<f64>()
            })
            .collect(),
    }
}

fn cfg(spec: &ClusterSpec) -> SimConfig {
    SimConfig::new(spec.clone(), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_secs(5))
}

/// The kill matrix for one family: layouts × {leader, follower} victims
/// × sync methods × seeds, kill landing at a seed-dependent op index.
fn kill_matrix(family: Family) {
    for (spec, leader, follower) in layouts() {
        let p = spec.total_cores();
        for victim in [leader, follower] {
            let survivors: Vec<usize> = (0..p).filter(|&r| r != victim).collect();
            let want = expected(family, &survivors);
            for sync in SYNCS {
                for seed in seeds() {
                    // The kill must land within the victim's op stream:
                    // bcast has no arrive phase, so a non-root follower
                    // performs only one tracked op per round.
                    let at_op = seed
                        % if matches!(family, Family::Bcast) {
                            2
                        } else {
                            4
                        };
                    let plan = FaultPlan::from_seed(seed, p).with_kill(victim, at_op);
                    let r = Universe::run_ft(cfg(&spec).with_fault(plan), move |ctx| {
                        run_family(ctx, family, sync, FaultPolicy::Shrink)
                    })
                    .unwrap_or_else(|e| {
                        panic!("{family:?} sync={sync:?} seed={seed} victim={victim}: {e}")
                    });
                    assert_eq!(
                        r.failed,
                        vec![victim],
                        "{family:?} sync={sync:?} seed={seed}: wrong victim set"
                    );
                    for (rank, got) in r.per_rank.iter().enumerate() {
                        if rank == victim {
                            assert!(got.is_none(), "victim {rank} must have no result");
                            continue;
                        }
                        assert_eq!(
                            got.as_deref(),
                            Some(&want[..]),
                            "{family:?} sync={sync:?} seed={seed} victim={victim}: \
                             rank {rank} has a wrong shrunk-world result"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn allgatherv_survives_any_single_kill() {
    kill_matrix(Family::Allgatherv);
}

#[test]
fn allgather_survives_any_single_kill() {
    kill_matrix(Family::Allgather);
}

#[test]
fn bcast_survives_any_single_kill() {
    kill_matrix(Family::Bcast);
}

#[test]
fn allreduce_survives_any_single_kill() {
    kill_matrix(Family::Allreduce);
}

/// Same-seed leader-failover runs are byte-identical: results, virtual
/// clocks, and the full trace (including the `Recovery` events).
#[test]
fn recovery_is_deterministic_across_repeats() {
    let spec = ClusterSpec::irregular(vec![1, 3, 4]);
    let run = |seed: u64| {
        let plan = FaultPlan::from_seed(seed, 8).with_kill(0, 1);
        Universe::run_ft(cfg(&spec).traced().with_fault(plan), move |ctx| {
            run_family(ctx, Family::Bcast, SyncMethod::Barrier, FaultPolicy::Shrink)
        })
        .unwrap()
    };
    for seed in seeds() {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.per_rank, b.per_rank, "seed {seed} changed results");
        assert_eq!(a.clocks, b.clocks, "seed {seed} changed clocks");
        assert_eq!(
            format!("{:?}", a.tracer.events()),
            format!("{:?}", b.tracer.events()),
            "seed {seed}: recovery traces must be byte-identical"
        );
    }
}

/// The recovery shows up in the trace with the agreed dead set, the new
/// epoch, and the survivor count — once per surviving rank.
#[test]
fn recovery_events_record_the_agreed_outcome() {
    let plan = FaultPlan::none().with_kill(5, 2);
    let spec = ClusterSpec::regular(2, 3);
    let r = Universe::run_ft(cfg(&spec).traced().with_fault(plan), |ctx| {
        run_family(
            ctx,
            Family::Allreduce,
            SyncMethod::SharedFlags,
            FaultPolicy::Shrink,
        )
    })
    .unwrap();
    let recoveries: Vec<_> = r
        .tracer
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            simnet::trace::EventKind::Recovery {
                op,
                epoch,
                dead,
                survivors,
                grown,
            } => Some((e.rank, op, epoch, dead, survivors, grown)),
            _ => None,
        })
        .collect();
    assert_eq!(recoveries.len(), 5, "one recovery event per survivor");
    for (rank, op, epoch, dead, survivors, grown) in recoveries {
        assert_ne!(rank, 5, "the victim records no recovery");
        assert_eq!(op, "ft.allreduce");
        assert_eq!(epoch, 1);
        assert_eq!(dead, vec![5]);
        assert_eq!(survivors, 5);
        assert!(grown.is_empty(), "a plain shrink recovery grows nobody");
    }
}

/// Pools of one and two workers agree byte-for-byte on a
/// leader-failover recovery: results, clocks, victim list, trace.
#[test]
fn pool_widths_agree_on_recovery() {
    let spec = ClusterSpec::regular(2, 3);
    let mk = |exec: ExecMode| {
        let plan = FaultPlan::none().with_kill(0, 1);
        Universe::run_ft(
            cfg(&spec).traced().with_fault(plan).with_exec(exec),
            |ctx| {
                run_family(
                    ctx,
                    Family::Allgatherv,
                    SyncMethod::Barrier,
                    FaultPolicy::Shrink,
                )
            },
        )
        .unwrap()
    };
    let one = mk(ONE);
    let two = mk(TWO);
    assert_eq!(two.per_rank, one.per_rank, "results diverged");
    assert_eq!(two.failed, one.failed, "victim lists diverged");
    assert_eq!(two.clocks, one.clocks, "virtual clocks diverged");
    assert_eq!(
        format!("{:?}", two.tracer.events()),
        format!("{:?}", one.tracer.events()),
        "recovery traces diverged across pool widths"
    );
}

/// Under `FaultPolicy::Abort` the same kill is fatal: the run surfaces
/// the injected kill instead of recovering.
#[test]
fn abort_policy_does_not_recover() {
    let plan = FaultPlan::none().with_kill(2, 1);
    let spec = ClusterSpec::regular(1, 4);
    let err = Universe::run(cfg(&spec).with_fault(plan), |ctx| {
        run_family(
            ctx,
            Family::Allgather,
            SyncMethod::Barrier,
            FaultPolicy::Abort,
        )
    })
    .unwrap_err();
    assert!(err.is_injected_kill(), "{err}");
    assert_eq!(err.rank(), 2);
}

/// A timeout storm: seeded message loss with no transport retransmission
/// forces round-level `FaultPolicy::Retry` re-runs; nobody dies, results
/// stay full-world correct, and the retry backoff is visible in virtual
/// time only as a deterministic charge.
#[test]
fn retry_policy_rides_out_message_loss() {
    let spec = ClusterSpec::regular(2, 2);
    let survivors: Vec<usize> = (0..4).collect();
    let want = expected(Family::Allreduce, &survivors);
    let run = || {
        let plan = FaultPlan::from_seed(7, 4)
            .with_drop(0.04)
            .with_detect_timeout(Duration::from_millis(150));
        Universe::run_ft(cfg(&spec).with_fault(plan), move |ctx| {
            run_family(
                ctx,
                Family::Allreduce,
                SyncMethod::Barrier,
                FaultPolicy::Retry {
                    max_retries: 10,
                    backoff_us: 50.0,
                },
            )
        })
        .unwrap()
    };
    let r = run();
    assert!(r.failed.is_empty(), "nobody dies from dropped messages");
    for (rank, got) in r.per_rank.iter().enumerate() {
        assert_eq!(
            got.as_deref(),
            Some(&want[..]),
            "rank {rank}: loss must not corrupt the result"
        );
    }
    let again = run();
    assert_eq!(r.per_rank, again.per_rank, "loss pattern is seeded");
    assert_eq!(r.clocks, again.clocks, "backoff charges are deterministic");
}

// --- multi-leader fault tolerance ----------------------------------------

/// Like [`run_family`] but with `k` leader slots per node (the `HyK*`
/// schedules): the recovery must rebuild the k-leader hierarchy too.
fn run_family_k(
    ctx: &mut Ctx,
    family: Family,
    sync: SyncMethod,
    fault: FaultPolicy,
    k: usize,
) -> Vec<f64> {
    let world = ctx.world();
    let mut ft = FtComm::new(&world, Tuning::cray_mpich(), sync)
        .with_fault(fault)
        .with_leaders(k);
    let mut last = Vec::new();
    for _round in 0..2 {
        last = match family {
            Family::Allgatherv => {
                let mine = block_of(ctx.rank());
                ft.allgatherv(ctx, &mine, count_of)
            }
            Family::Allgather => {
                let mine = vec![ctx.rank() as f64; 3];
                ft.allgather(ctx, &mine)
            }
            Family::Bcast => ft.bcast(ctx, 0, 4, bcast_message),
            Family::Allreduce => {
                let mine = reduce_contribution(ctx.rank());
                ft.allreduce(ctx, &mine, Sum)
            }
        };
    }
    last
}

/// The multi-leader kill matrix for one family: k ∈ {2, 4} leader slots
/// on a regular 2×4 cluster, with the victim a non-primary leader slot
/// (rank 1), a non-leader follower (rank 3, at k = 2), or **the whole of
/// node 1** (ranks 4–7, a correlated kill that bankrupts every leader
/// slot of the node and collapses the bridge to a single group).
fn multileader_kill_matrix(family: Family) {
    let spec = ClusterSpec::regular(2, 4);
    let p = spec.total_cores();
    let at_op_mod = if matches!(family, Family::Bcast) {
        2
    } else {
        4
    };
    for k in [2usize, 4] {
        // Single-rank victims: a k >= 2 leader slot and a follower.
        for victim in [1usize, 3] {
            let survivors: Vec<usize> = (0..p).filter(|&r| r != victim).collect();
            let want = expected(family, &survivors);
            for sync in SYNCS {
                for seed in seeds() {
                    let plan = FaultPlan::from_seed(seed, p).with_kill(victim, seed % at_op_mod);
                    let r = Universe::run_ft(cfg(&spec).with_fault(plan), move |ctx| {
                        run_family_k(ctx, family, sync, FaultPolicy::Shrink, k)
                    })
                    .unwrap_or_else(|e| {
                        panic!("{family:?} k={k} sync={sync:?} seed={seed} victim={victim}: {e}")
                    });
                    assert_eq!(r.failed, vec![victim], "{family:?} k={k}: wrong victim set");
                    for (rank, got) in r.per_rank.iter().enumerate() {
                        if rank == victim {
                            assert!(got.is_none());
                            continue;
                        }
                        assert_eq!(
                            got.as_deref(),
                            Some(&want[..]),
                            "{family:?} k={k} sync={sync:?} seed={seed} victim={victim}: \
                             rank {rank} has a wrong shrunk-world result"
                        );
                    }
                }
            }
        }
        // Correlated node kill: every rank of node 1 dies at once.
        let dead: Vec<usize> = (4..8).collect();
        let survivors: Vec<usize> = (0..4).collect();
        let want = expected(family, &survivors);
        for sync in SYNCS {
            for seed in seeds() {
                let plan = FaultPlan::from_seed(seed, p).with_node_kill(1, seed % at_op_mod);
                let r = Universe::run_ft(cfg(&spec).with_fault(plan), move |ctx| {
                    run_family_k(ctx, family, sync, FaultPolicy::Shrink, k)
                })
                .unwrap_or_else(|e| {
                    panic!("{family:?} k={k} sync={sync:?} seed={seed} node-kill: {e}")
                });
                assert_eq!(r.failed, dead, "{family:?} k={k}: whole node must die");
                for (rank, got) in r.per_rank.iter().enumerate() {
                    if rank >= 4 {
                        assert!(got.is_none());
                        continue;
                    }
                    assert_eq!(
                        got.as_deref(),
                        Some(&want[..]),
                        "{family:?} k={k} sync={sync:?} seed={seed} node-kill: \
                         rank {rank} has a wrong shrunk-world result"
                    );
                }
            }
        }
    }
}

#[test]
fn multileader_allgatherv_survives_the_kill_matrix() {
    multileader_kill_matrix(Family::Allgatherv);
}

#[test]
fn multileader_allgather_survives_the_kill_matrix() {
    multileader_kill_matrix(Family::Allgather);
}

#[test]
fn multileader_bcast_survives_the_kill_matrix() {
    multileader_kill_matrix(Family::Bcast);
}

#[test]
fn multileader_allreduce_survives_the_kill_matrix() {
    multileader_kill_matrix(Family::Allreduce);
}

/// A k >= 2 recovery is bit-identical at pool widths one and two:
/// results, victim list, virtual clocks, and the canonical trace
/// (including the Recovery events), in phantom mode.
#[test]
fn multileader_recovery_bit_identical_across_pool_widths() {
    let spec = ClusterSpec::regular(2, 4);
    for k in [2usize, 4] {
        let mk = |exec: ExecMode| {
            let plan = FaultPlan::none().with_kill(1, 1);
            Universe::run_ft(
                cfg(&spec)
                    .traced()
                    .phantom()
                    .with_fault(plan)
                    .with_exec(exec),
                move |ctx| {
                    run_family_k(
                        ctx,
                        Family::Allgatherv,
                        SyncMethod::Barrier,
                        FaultPolicy::Shrink,
                        k,
                    )
                },
            )
            .unwrap()
        };
        let pooled = mk(TWO);
        let r = mk(ONE);
        assert_eq!(r.per_rank, pooled.per_rank, "k={k}: results diverged");
        assert_eq!(r.failed, pooled.failed, "k={k}: victims diverged");
        assert_eq!(r.clocks, pooled.clocks, "k={k}: clocks diverged");
        assert_eq!(
            format!("{:?}", r.tracer.events()),
            format!("{:?}", pooled.tracer.events()),
            "k={k}: recovery traces diverged"
        );
    }
}

// --- elastic grow recovery -----------------------------------------------

/// kill → shrink → grow → rerun: a victim's death in round 0 shrinks the
/// active world, the round-boundary roll-call recruits the lowest spare,
/// and round 1 runs full-size again — the recruit participates and every
/// member of the regrown world lands on the full-size oracle.
#[test]
fn grow_recruits_a_spare_and_reconverges_full_size() {
    let spec = ClusterSpec::regular(2, 3);
    let plan = FaultPlan::none().with_kill(2, 5);
    let r = Universe::run_ft(cfg(&spec).with_fault(plan), |ctx| {
        let world = ctx.world();
        FtComm::run_elastic(
            ctx,
            &world,
            &[4, 5],
            Tuning::cray_mpich(),
            SyncMethod::Barrier,
            FaultPolicy::Shrink,
            Leaders::Fixed(1),
            2,
            |ctx, ft, _round| {
                let mine = block_of(ctx.rank());
                ft.allgatherv(ctx, &mine, count_of)
            },
        )
    })
    .unwrap();
    assert_eq!(r.failed, vec![2], "exactly the victim dies");
    // Round 1 runs on the regrown world {0, 1, 3} + recruit 4.
    let regrown = [0usize, 1, 3, 4];
    let want = expected(Family::Allgatherv, &regrown);
    for &rank in &regrown {
        let rounds = r.per_rank[rank].as_ref().unwrap();
        assert_eq!(
            rounds[1].as_deref(),
            Some(&want[..]),
            "rank {rank}: wrong regrown-world result in round 1"
        );
    }
    let recruit = r.per_rank[4].as_ref().unwrap();
    assert!(recruit[0].is_none(), "the recruit sat out round 0");
    let leftover = r.per_rank[5].as_ref().unwrap();
    assert!(
        leftover.iter().all(|x| x.is_none()),
        "the unrecruited spare never runs a round"
    );
    assert!(r.per_rank[2].is_none(), "the victim has no result");
}

/// Same-seed elastic runs are byte-identical, including the `ft.grow`
/// Recovery events that record the recruits.
#[test]
fn grow_recovery_is_deterministic_and_traced() {
    let spec = ClusterSpec::regular(2, 3);
    let run = || {
        let plan = FaultPlan::none().with_kill(2, 5);
        Universe::run_ft(cfg(&spec).traced().with_fault(plan), |ctx| {
            let world = ctx.world();
            FtComm::run_elastic(
                ctx,
                &world,
                &[4, 5],
                Tuning::cray_mpich(),
                SyncMethod::Barrier,
                FaultPolicy::Shrink,
                Leaders::Fixed(1),
                2,
                |ctx, ft, _round| {
                    let mine = block_of(ctx.rank());
                    ft.allgatherv(ctx, &mine, count_of)
                },
            )
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.per_rank, b.per_rank, "elastic results must be seeded");
    assert_eq!(a.clocks, b.clocks, "elastic clocks must be seeded");
    assert_eq!(
        format!("{:?}", a.tracer.events()),
        format!("{:?}", b.tracer.events()),
        "elastic traces must be byte-identical"
    );
    let grow_events: Vec<_> = a
        .tracer
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            simnet::trace::EventKind::Recovery {
                op,
                grown,
                survivors,
                ..
            } if op == "ft.grow" => Some((e.rank, grown, survivors)),
            _ => None,
        })
        .collect();
    // One grow event per member of the regrown world: survivors {0,1,3}
    // and the recruit 4.
    assert_eq!(grow_events.len(), 4, "one ft.grow event per regrown member");
    for (rank, grown, survivors) in grow_events {
        assert!([0, 1, 3, 4].contains(&rank));
        assert_eq!(grown, vec![4], "the roll-call recruited spare 4");
        assert_eq!(survivors, 4, "the regrown world is full-size again");
    }
}

/// Grow recovery with k >= 2 rebalanced leaders is bit-identical at
/// pool widths one and two (phantom mode): the post-grow hierarchy,
/// bridge, and k-leader `LeaderSet` rebuild deterministically.
#[test]
fn grow_with_rebalanced_leaders_bit_identical_across_pool_widths() {
    let spec = ClusterSpec::regular(2, 4);
    for leaders in [Leaders::Fixed(2), Leaders::Auto { max_k: 4 }] {
        let mk = |exec: ExecMode| {
            let plan = FaultPlan::none().with_kill(2, 5);
            Universe::run_ft(
                cfg(&spec)
                    .traced()
                    .phantom()
                    .with_fault(plan)
                    .with_exec(exec),
                move |ctx| {
                    let world = ctx.world();
                    FtComm::run_elastic(
                        ctx,
                        &world,
                        &[6, 7],
                        Tuning::cray_mpich(),
                        SyncMethod::Barrier,
                        FaultPolicy::Shrink,
                        leaders,
                        2,
                        |ctx, ft, _round| {
                            let mine = block_of(ctx.rank());
                            ft.allgatherv(ctx, &mine, count_of)
                        },
                    )
                },
            )
            .unwrap()
        };
        let pooled = mk(TWO);
        assert_eq!(pooled.failed, vec![2]);
        let r = mk(ONE);
        assert_eq!(
            r.per_rank, pooled.per_rank,
            "{leaders:?}: grow results diverged"
        );
        assert_eq!(r.clocks, pooled.clocks, "{leaders:?}: clocks diverged");
        assert_eq!(
            format!("{:?}", r.tracer.events()),
            format!("{:?}", pooled.tracer.events()),
            "{leaders:?}: grow traces diverged"
        );
    }
}

/// Satellite for the nonblocking x FT contract at the collective layer:
/// a posted split-phase hybrid collective (`iexecute`) whose peer dies
/// mid-operation must surface the typed `RankFailed` from
/// `wait_deadline` instead of hanging until the recv timeout.
#[test]
fn iexecute_surfaces_rank_failed_when_a_peer_dies() {
    use hmpi::{HyAllgatherv, HybridComm};
    use msim::{Request, WaitError};

    let spec = ClusterSpec::regular(1, 2);
    let counts: Vec<usize> = (0..2).map(count_of).collect();
    let plan = FaultPlan::none()
        .with_kill(1, 64)
        .with_detect_timeout(Duration::from_millis(150));
    let r = Universe::run_ft(cfg(&spec).with_fault(plan), move |ctx| {
        let world = ctx.world();
        let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
        let ag = HyAllgatherv::<f64>::new(ctx, &hc, &counts);
        ag.write_my_block(ctx, &block_of(ctx.rank()));
        if ctx.rank() == 1 {
            // Burn protected ops until the kill fires (safely past setup,
            // before the collective's own synchronization).
            for _ in 0..10_000 {
                ctx.compute(1.0);
            }
            unreachable!("rank 1 must die in the burn loop");
        }
        match ag.iexecute(ctx).wait_deadline(ctx) {
            Err(WaitError::RankFailed { failed, .. }) => format!("failed:{failed}"),
            Ok(()) => "completed unexpectedly".to_string(),
            Err(other) => format!("unexpected:{other}"),
        }
    })
    .unwrap();
    assert_eq!(r.failed, vec![1]);
    assert_eq!(r.per_rank[0].as_deref(), Some("failed:1"));
}
