//! Exhaustive model checking of the shipped collectives.
//!
//! Every `Hy*` family runs under `msim::explore` — DPOR over *all*
//! inequivalent schedules — with real data and the race detector armed,
//! for all three synchronization protocols, plus the k = 2 multi-leader
//! envelope. A small 2×2 cluster keeps the schedule space tractable
//! while still exercising both the intra-node (leader/children) and
//! inter-node (bridge) layers.
//!
//! The load-bearing assertion is double-ended:
//!
//! * **no certificate** — no schedule deadlocks, races, panics, or
//!   diverges; and
//! * **exactly one schedule explored** — the collectives are fully
//!   synchronized, so every pair of dependent operations is ordered by
//!   happens-before and DPOR proves there is nothing else to try. A
//!   count > 1 would mean a benign-but-real nondeterminism crept into
//!   an envelope; a count of 1 is the machine-checked determinism
//!   contract of `docs/model-checking.md`.

use std::time::Duration;

use collectives::testutil::run_cfg;
use collectives::{op::Sum, Tuning};
use hmpi::{
    HyAllgather, HyAllgatherv, HyAllreduce, HyAlltoall, HyBcast, HyGather, HyScatter, HybridComm,
    SyncMethod,
};
use msim::{explore, Ctx, ExploreOpts, SimConfig};
use simnet::{ClusterSpec, CostModel};

const COUNT: usize = 3;
const ROOT: usize = 1;
const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

fn base() -> SimConfig {
    SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_millis(500))
        .with_race_detect(true)
}

/// Explores every schedule of `prog` under every sync method and asserts
/// the search comes back clean after exactly one schedule.
fn check_exhaustive(name: &str, prog: fn(&mut Ctx, SyncMethod) -> Vec<f64>) {
    for sync in SYNCS {
        let report = explore(&base(), name, &ExploreOpts::default(), move |ctx| {
            prog(ctx, sync)
        });
        assert!(
            report.certificate.is_none(),
            "{name}/{sync:?}: {:?}",
            report.certificate
        );
        assert!(!report.stats.capped, "{name}/{sync:?}: {:?}", report.stats);
        assert_eq!(
            report.stats.schedules, 1,
            "{name}/{sync:?}: {:?}",
            report.stats
        );
    }
}

fn hy_allgather_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ag = HyAllgather::<f64>::new(ctx, &hc, COUNT);
    let data: Vec<f64> = (0..COUNT).map(|i| (ctx.rank() * 10 + i) as f64).collect();
    ag.write_my_block(ctx, &data);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_allgatherv_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let counts: Vec<usize> = (0..world.size()).map(|r| 1 + r % 3).collect();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::open_mpi(), sync);
    let ag = HyAllgatherv::<f64>::new(ctx, &hc, &counts);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_bcast_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let bc = HyBcast::<f64>::new(ctx, &hc, COUNT);
    bc.execute(ctx, ROOT);
    bc.read_message()
}

fn hy_allreduce_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ar = HyAllreduce::<f64>::new(ctx, &hc, COUNT);
    let contribution = ctx.buf_zeroed::<f64>(COUNT);
    ar.execute(ctx, &contribution, Sum);
    ar.read_result()
}

fn hy_alltoall_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let a2a = HyAlltoall::<f64>::new(ctx, &hc, COUNT);
    a2a.execute(ctx);
    (0..world.size())
        .flat_map(|src| a2a.read_block(src))
        .collect()
}

fn hy_gather_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let g = HyGather::<f64>::new(ctx, &hc, COUNT, ROOT);
    g.execute(ctx);
    if ctx.rank() == ROOT {
        (0..world.size()).flat_map(|r| g.read_block(r)).collect()
    } else {
        Vec::new()
    }
}

fn hy_scatter_prog(ctx: &mut Ctx, sync: SyncMethod) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let s = HyScatter::<f64>::new(ctx, &hc, COUNT, ROOT);
    ctx.oob_fence(&world);
    s.execute(ctx);
    s.read_my_block()
}

macro_rules! family {
    ($name:ident, $prog:path) => {
        mod $name {
            use super::*;

            #[test]
            fn explores_clean_in_one_schedule() {
                check_exhaustive(stringify!($name), $prog);
            }
        }
    };
}

family!(hy_allgather, hy_allgather_prog);
family!(hy_allgatherv, hy_allgatherv_prog);
family!(hy_bcast, hy_bcast_prog);
family!(hy_allreduce, hy_allreduce_prog);
family!(hy_alltoall, hy_alltoall_prog);
family!(hy_gather, hy_gather_prog);
family!(hy_scatter, hy_scatter_prog);

/// The k = 2 multi-leader envelope: both ranks of each node are leaders,
/// exercising the striped GO/QUIESCE envelope and the cooperative fill.
#[test]
fn multileader_k2_explores_clean_in_one_schedule() {
    for sync in SYNCS {
        for family in ["kag", "kar"] {
            let report = explore(
                &base(),
                &format!("{family}_k2"),
                &ExploreOpts::default(),
                move |ctx| {
                    let world = ctx.world();
                    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
                    match family {
                        "kag" => {
                            let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, 2);
                            ag.execute(ctx);
                            (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
                        }
                        _ => {
                            let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, 2);
                            let contribution = ctx.buf_zeroed::<f64>(COUNT);
                            ar.execute(ctx, &contribution, Sum);
                            ar.read_result()
                        }
                    }
                },
            );
            assert!(
                report.certificate.is_none(),
                "{family}/{sync:?}: {:?}",
                report.certificate
            );
            assert_eq!(
                report.stats.schedules, 1,
                "{family}/{sync:?}: {:?}",
                report.stats
            );
        }
    }
}

/// `run_cfg` is pulled in for parity with the other conformance walls;
/// keep the import exercised even if the helpers above construct their
/// own configs.
#[test]
fn base_config_runs_outside_the_checker() {
    let out = run_cfg(base(), |ctx| hy_allgather_prog(ctx, SyncMethod::P2p));
    assert_eq!(out.per_rank.len(), 4);
}
