//! The differential conformance wall for the event-calendar executor.
//!
//! Every `Hy*` collective family is run in phantom mode under all three
//! executors — `ExecMode::Events`, `ExecMode::Pooled`, and
//! `ExecMode::ThreadPerRank` — for **all three** synchronization
//! protocols (`Barrier`, `SharedFlags`, `P2p`), on a regular 4×6 cluster
//! and an irregular [1, 3, 4] cluster, at `leaders` ∈ {1, 2, 4} for the
//! families that take a leader count, across the standard fuzz seeds.
//! Results, virtual clocks, and canonical traces must be byte-identical:
//! the calendar's schedule, like the pool's, must be invisible to the
//! model. Phantom windows read back defaults, so the per-rank results
//! are degenerate — the load-bearing equalities are the clocks and the
//! traces, which encode every modeled send, copy, and sync of the
//! collective schedules.
//!
//! `MSIM_CONF_SEEDS=N` truncates the seed list (used by `ci.sh --quick`).

use collectives::testutil::{conf_seeds, run_cfg, vcounts};
use collectives::{op::Sum, Tuning};
use hmpi::{
    HyAllgather, HyAllgatherv, HyAllreduce, HyAlltoall, HyBcast, HyGather, HyScatter, HybridComm,
    SyncMethod,
};
use msim::{Ctx, ExecMode, FaultPlan, SimConfig, SimResult};
use simnet::{ClusterSpec, CostModel};

const COUNT: usize = 5;
const ROOT: usize = 1;

const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

/// Leader counts for the families that take one; the others run at
/// `[1]`.
const KS: [usize; 3] = [1, 2, 4];

type Prog = fn(&mut Ctx, SyncMethod, usize) -> Vec<f64>;

/// Every (sync method, leader count) cell of a family taking `ks`.
fn sync_k(ks: &[usize]) -> impl Iterator<Item = (SyncMethod, usize)> + '_ {
    SYNCS
        .into_iter()
        .flat_map(move |s| ks.iter().map(move |&k| (s, k)))
}

fn run_exec(
    spec: ClusterSpec,
    fault: FaultPlan,
    (sync, k): (SyncMethod, usize),
    exec: ExecMode,
    prog: Prog,
) -> SimResult<Vec<f64>> {
    let cfg = SimConfig::new(spec, CostModel::uniform_test())
        .with_fault(fault)
        .phantom()
        .traced()
        .with_exec(exec);
    run_cfg(cfg, move |ctx| prog(ctx, sync, k))
}

/// The wall itself: for every (sync, leaders, layout, seed) cell, the
/// three executors must agree bit-for-bit on results, clocks, and traces.
fn check_family_differential(name: &str, prog: Prog, ks: &[usize]) {
    for cell in sync_k(ks) {
        for spec in [
            ClusterSpec::regular(4, 6),
            ClusterSpec::irregular(vec![1, 3, 4]),
        ] {
            let p = spec.total_cores();
            // Baseline (no fuzz) plus every seeded plan.
            let plans: Vec<(u64, FaultPlan)> = std::iter::once((0, FaultPlan::none()))
                .chain(
                    conf_seeds()
                        .iter()
                        .map(|&s| (s, FaultPlan::from_seed(s, p))),
                )
                .collect();
            for (seed, plan) in plans {
                let threads = run_exec(
                    spec.clone(),
                    plan.clone(),
                    cell,
                    ExecMode::ThreadPerRank,
                    prog,
                );
                let pooled = run_exec(spec.clone(), plan.clone(), cell, ExecMode::pooled(), prog);
                let events = run_exec(spec.clone(), plan, cell, ExecMode::Events, prog);
                let tag = format!("{name}/{cell:?}: seed {seed}, p={p}");
                assert_eq!(events.per_rank, threads.per_rank, "{tag}: events/threads");
                assert_eq!(events.clocks, threads.clocks, "{tag}: clocks vs threads");
                assert_eq!(
                    events.tracer.events(),
                    threads.tracer.events(),
                    "{tag}: traces vs threads"
                );
                assert_eq!(events.per_rank, pooled.per_rank, "{tag}: events/pooled");
                assert_eq!(events.clocks, pooled.clocks, "{tag}: clocks vs pooled");
                assert_eq!(
                    events.tracer.events(),
                    pooled.tracer.events(),
                    "{tag}: traces vs pooled"
                );
            }
        }
    }
}

// ---------------------------------------------------------------- programs
//
// The same shapes as `tests/conformance.rs`, phantom-safe: window writes
// are bounds-checked no-ops and reads return defaults, so each program
// still drives the full collective schedule.

fn hy_allgather_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, k);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_allgatherv_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let hc = HybridComm::with_sync(ctx, &world, Tuning::open_mpi(), sync);
    let ag = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts, k);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_bcast_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let bc = HyBcast::<f64>::with_leaders(ctx, &hc, COUNT, k);
    bc.execute(ctx, ROOT);
    bc.read_message()
}

fn hy_allreduce_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let contribution = ctx.buf_zeroed::<f64>(COUNT);
    ar.execute(ctx, &contribution, Sum);
    ar.read_result()
}

fn hy_alltoall_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let a2a = HyAlltoall::<f64>::new(ctx, &hc, COUNT);
    a2a.execute(ctx);
    (0..world.size())
        .flat_map(|src| a2a.read_block(src))
        .collect()
}

fn hy_gather_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize) -> Vec<f64> {
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

fn hy_scatter_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let s = HyScatter::<f64>::new(ctx, &hc, COUNT, ROOT);
    ctx.oob_fence(&world);
    s.execute(ctx);
    s.read_my_block()
}

// ------------------------------------------------------------------ suite

macro_rules! family {
    ($name:ident, $prog:path, $ks:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn events_matches_pooled_and_threads() {
                check_family_differential(stringify!($name), $prog, &$ks);
            }
        }
    };
}

family!(hy_allgather, hy_allgather_prog, KS);
family!(hy_allgatherv, hy_allgatherv_prog, KS);
family!(hy_bcast, hy_bcast_prog, KS);
family!(hy_allreduce, hy_allreduce_prog, KS);
family!(hy_alltoall, hy_alltoall_prog, [1]);
family!(hy_gather, hy_gather_prog, [1]);
family!(hy_scatter, hy_scatter_prog, [1]);
