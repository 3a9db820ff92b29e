//! Chaos soak harness: randomized (but seed-deterministic) fault
//! campaigns against the elastic-recovery stack, each checked by an
//! invariant oracle after every recovery epoch.
//!
//! A campaign runs `run_elastic` rounds of the fault-tolerant irregular
//! allgather under one of four fault flavors:
//!
//! * `kill-grow-kill` — a kill in round 0, a grow, and a second kill at
//!   a seed-varied later op (shrink → grow → shrink again);
//! * `node-kill-grow` — a correlated whole-node kill replaced from the
//!   spare pool;
//! * `partition-recovery` — a kill plus a seeded network partition that
//!   blackholes the bridge during the recovery window and heals after,
//!   with seeded-jitter retries crossing the heal boundary;
//! * `straggler-heartbeats` — a straggler (slow core, first attempt of
//!   every send dropped) masking heartbeats while a different rank dies:
//!   the detector must kill the dead rank and *only* the dead rank.
//!
//! Invariants checked per campaign:
//!
//! 1. **Agreement** — every rank executing a round returns bit-identical
//!    bytes for it;
//! 2. **Oracle match** — each round's result decodes to the blocks of a
//!    valid membership set: starts within the actives, loses only ranks
//!    the runtime reported dead, gains only ranks from the spare pool;
//! 3. **No leaks** — zero live shared windows after teardown and zero
//!    outstanding nonblocking interests per rank;
//! 4. **Determinism** — the same seed replays to byte-identical results,
//!    clocks, and traces.
//!
//! `--mutant-check` arms the deliberate `HMPI_MUTANT=stale-grow` bug in
//! the grow path (survivors keep the pre-grow communicator) and demands
//! the checker catches it — proof the oracle is not vacuous.
//!
//! `--seeds N` (default 8) campaigns run, seeds `0..N`; the time budget
//! (`--budget`, seconds of wall clock, default 60) stops the seed sweep
//! early rather than overrunning CI.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use collectives::{FaultPolicy, Tuning};
use hmpi::{FtComm, Leaders, SyncMethod};
use msim::{FaultPlan, RetryPolicy, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel};

use crate::cli::{Args, Flags};

pub const FLAGS: Flags = &[
    ("--seeds", "N"),
    ("--budget", "SECS"),
    ("--mutant-check", ""),
];

/// Irregular block length of global rank `g` (distinct per rank so the
/// membership oracle can decode who contributed to a result).
fn count_of(g: usize) -> usize {
    g % 3 + 1
}

fn block_of(g: usize) -> Vec<f64> {
    (0..count_of(g)).map(|i| (g * 10 + i) as f64).collect()
}

struct Campaign {
    name: &'static str,
    spec: ClusterSpec,
    spares: Vec<usize>,
    plan: FaultPlan,
    leaders: Leaders,
    rounds: u64,
}

/// The seed-deterministic campaign catalog: flavor from `seed % 4`,
/// leader policy from `seed % 3`, kill ops and fault windows varied by
/// the seed so the sweep covers kills in different rounds (including
/// the retire roll-call and "never fires").
fn campaign(seed: u64) -> Campaign {
    let leaders = match seed % 3 {
        0 => Leaders::Fixed(1),
        1 => Leaders::Fixed(2),
        _ => Leaders::Auto { max_k: 4 },
    };
    let detect = Duration::from_millis(50);
    match seed % 4 {
        0 => Campaign {
            name: "kill-grow-kill",
            spec: ClusterSpec::regular(2, 4),
            spares: vec![6, 7],
            plan: FaultPlan::none()
                .with_kill(1, seed % 7)
                .with_kill(2, 14 + 3 * (seed % 8))
                .with_detect_timeout(detect),
            leaders,
            rounds: 3,
        },
        1 => Campaign {
            name: "node-kill-grow",
            spec: ClusterSpec::regular(3, 2),
            spares: vec![4, 5],
            plan: FaultPlan::none()
                .with_node_kill(1, seed % 6)
                .with_detect_timeout(detect),
            leaders,
            rounds: 3,
        },
        2 => Campaign {
            name: "partition-recovery",
            spec: ClusterSpec::regular(2, 3),
            spares: vec![4, 5],
            plan: FaultPlan::none()
                .with_kill(1, 3 + seed % 5)
                .with_partition(vec![1], 50.0, 600.0)
                .with_retry(RetryPolicy {
                    max_retries: 3,
                    timeout_us: 100.0,
                    backoff: 2.0,
                    jitter_us: 0.0,
                    jitter_seed: 0,
                })
                .with_detect_timeout(Duration::from_micros(150)),
            leaders,
            rounds: 3,
        },
        _ => Campaign {
            name: "straggler-heartbeats",
            spec: ClusterSpec::regular(2, 3),
            spares: vec![5],
            plan: FaultPlan::none()
                .with_kill(3, 4 + seed % 6)
                .with_straggler(1, 3.0, 1)
                .with_retry(RetryPolicy {
                    max_retries: 4,
                    timeout_us: 50.0,
                    backoff: 2.0,
                    jitter_us: 5.0,
                    jitter_seed: seed,
                })
                .with_detect_timeout(detect),
            leaders,
            rounds: 3,
        },
    }
}

/// One rank's campaign outcome: the per-round allgather results (`None`
/// for rounds sat out as a spare) and the rank's leftover nonblocking
/// state (must be zero).
type RankOut = (Vec<Option<Vec<f64>>>, usize);

fn launch(c: &Campaign, recv_timeout: Duration) -> Result<msim::FtSimResult<RankOut>, String> {
    let cfg = SimConfig::new(c.spec.clone(), CostModel::uniform_test())
        .traced()
        .with_fault(c.plan.clone())
        .with_recv_timeout(recv_timeout);
    let spares = c.spares.clone();
    let (leaders, rounds) = (c.leaders, c.rounds);
    Universe::run_ft(cfg, move |ctx| {
        let world = ctx.world();
        let out = FtComm::run_elastic(
            ctx,
            &world,
            &spares,
            Tuning::cray_mpich(),
            SyncMethod::Barrier,
            FaultPolicy::Shrink,
            leaders,
            rounds,
            |ctx, ft, _round| {
                let mine = block_of(ctx.rank());
                ft.allgatherv(ctx, &mine, count_of)
            },
        );
        (out, ctx.open_interests())
    })
    .map_err(|e| format!("run aborted: {e}"))
}

/// Decode an allgather result back into the sorted membership set that
/// produced it, or explain why it is not a valid concatenation of
/// member blocks.
fn decode_membership(result: &[f64]) -> Result<Vec<usize>, String> {
    let mut members = Vec::new();
    let mut i = 0;
    while i < result.len() {
        let g = (result[i] / 10.0) as usize;
        let blk = block_of(g);
        if result[i..].len() < blk.len() || result[i..i + blk.len()] != blk[..] {
            return Err(format!(
                "offset {i}: no rank's block starts with {}",
                result[i]
            ));
        }
        if members.last().is_some_and(|&last| last >= g) {
            return Err(format!("member {g} out of order after {:?}", members));
        }
        members.push(g);
        i += blk.len();
    }
    Ok(members)
}

/// The invariant oracle for one completed campaign.
fn check(c: &Campaign, r: &msim::FtSimResult<RankOut>) -> Result<String, String> {
    let world: usize = c.spec.total_cores();
    let actives: BTreeSet<usize> = (0..world).filter(|g| !c.spares.contains(g)).collect();
    let failed: BTreeSet<usize> = r.failed.iter().copied().collect();

    // 3. No leaked windows; no rank left nonblocking state behind.
    if r.open_windows != 0 {
        return Err(format!(
            "{} shared windows leaked past teardown",
            r.open_windows
        ));
    }
    for (g, out) in r.per_rank.iter().enumerate() {
        if let Some((_, open)) = out {
            if *open != 0 {
                return Err(format!(
                    "rank {g} finished with {open} open nonblocking interests"
                ));
            }
        }
    }

    // 1 + 2. Per-round agreement and membership decode.
    let mut memberships: Vec<Option<Vec<usize>>> = vec![None; c.rounds as usize];
    for round in 0..c.rounds as usize {
        let mut agreed: Option<(usize, &Vec<f64>)> = None;
        for (g, out) in r.per_rank.iter().enumerate() {
            let Some((rounds, _)) = out else { continue };
            let Some(result) = &rounds[round] else {
                continue;
            };
            match &agreed {
                None => agreed = Some((g, result)),
                Some((g0, r0)) => {
                    if *r0 != result {
                        return Err(format!(
                            "round {round}: rank {g} disagrees with rank {g0} on the result"
                        ));
                    }
                }
            }
            let members =
                decode_membership(result).map_err(|e| format!("round {round}, rank {g}: {e}"))?;
            if !members.contains(&g) {
                return Err(format!(
                    "round {round}: rank {g} absent from its own result"
                ));
            }
            memberships[round] = Some(members);
        }
    }

    // 2. Membership transitions: start within the actives, lose only
    // reported-dead ranks, gain only spares.
    let mut prev: Option<&Vec<usize>> = None;
    let mut leavers: BTreeSet<usize> = BTreeSet::new();
    for (round, members) in memberships.iter().enumerate() {
        let Some(members) = members else { continue };
        let set: BTreeSet<usize> = members.iter().copied().collect();
        match prev {
            None => {
                if !set.is_subset(&actives) {
                    return Err(format!(
                        "round {round}: membership {set:?} outside the active set {actives:?}"
                    ));
                }
            }
            Some(p) => {
                let pset: BTreeSet<usize> = p.iter().copied().collect();
                for &gone in pset.difference(&set) {
                    if !failed.contains(&gone) {
                        return Err(format!(
                            "round {round}: rank {gone} vanished without being reported dead"
                        ));
                    }
                    leavers.insert(gone);
                }
                for &new in set.difference(&pset) {
                    if !c.spares.contains(&new) {
                        return Err(format!(
                            "round {round}: rank {new} joined without coming from the pool"
                        ));
                    }
                }
            }
        }
        prev = Some(members);
    }
    for &g in &leavers {
        if !failed.contains(&g) {
            return Err(format!("rank {g} left the membership but is not in failed"));
        }
    }
    // Straggler flavor: the slow rank must never be misdeclared dead.
    if c.name == "straggler-heartbeats" && failed.contains(&1) {
        return Err("the straggler was declared dead by mistake".into());
    }

    let last = memberships.iter().rev().flatten().next();
    Ok(format!(
        "failed={:?} final membership={:?}",
        r.failed,
        last.map(Vec::as_slice).unwrap_or(&[])
    ))
}

/// A deterministic fingerprint of a run for the replay check.
fn fingerprint(r: &msim::FtSimResult<RankOut>) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        r.per_rank,
        r.failed,
        r.clocks,
        r.tracer.events()
    )
}

fn run_campaign(seed: u64) -> Result<String, String> {
    let c = campaign(seed);
    let first = launch(&c, Duration::from_secs(5))?;
    let summary = check(&c, &first)?;
    let replay = launch(&c, Duration::from_secs(5))?;
    if fingerprint(&first) != fingerprint(&replay) {
        return Err(format!(
            "seed {seed} ({}) did not replay byte-identically",
            c.name
        ));
    }
    Ok(format!("{}: {summary}", c.name))
}

/// Arm the deliberate stale-grow bug and demand the oracle rejects the
/// campaign (via a failed invariant or an aborted run).
fn mutant_check() -> Result<(), String> {
    std::env::set_var("HMPI_MUTANT", "stale-grow");
    let c = campaign(0); // kill-grow-kill: the grow path is exercised
    let verdict = launch(&c, Duration::from_secs(2)).and_then(|r| check(&c, &r));
    std::env::remove_var("HMPI_MUTANT");
    match verdict {
        Err(e) => {
            println!("chaos: mutant caught: {e}");
            Ok(())
        }
        Ok(s) => Err(format!(
            "stale-grow mutant slipped past the invariant checker: {s}"
        )),
    }
}

/// `bench chaos`: the seed sweep, or with `--mutant-check` the
/// sensitivity probe.
pub fn run(args: &Args) -> Result<(), String> {
    let seeds: u64 = args.num("--seeds")?.unwrap_or(8);
    let budget_s: f64 = args.num("--budget")?.unwrap_or(60.0);
    if args.has("--mutant-check") {
        return mutant_check();
    }

    let t0 = Instant::now();
    let mut clean = 0u64;
    for seed in 0..seeds {
        if seed > 0 && t0.elapsed().as_secs_f64() > budget_s {
            println!(
                "chaos: budget of {budget_s}s exhausted after {clean} campaign(s); stopping early"
            );
            break;
        }
        let summary = run_campaign(seed).map_err(|e| format!("seed {seed} VIOLATION: {e}"))?;
        clean += 1;
        println!("chaos: seed {seed} clean: {summary}");
    }
    println!(
        "chaos: {clean} campaign(s) clean in {:.2}s",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
