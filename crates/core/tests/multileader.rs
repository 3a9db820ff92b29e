//! What only a multi-leader run can show, beyond the leader-count axis
//! of the general walls (`conformance.rs`, `iconformance.rs`,
//! `events_conformance.rs` and `race_detect.rs` run every family that
//! takes a leader count at k ∈ {1, 2, 4}; `digests.rs` pins the numbers):
//!
//! * **uneven nodes** — an irregular [2, 3, 4] cluster, where k = 4
//!   clamps to 2 and the stripes cut node blocks of different sizes:
//!   results must match the analytic oracles under every sync method and
//!   fuzz seed, and the three executors must agree bit-for-bit on the
//!   k ≥ 2 schedules;
//! * **the bridge really is striped** — every slot of every node sends
//!   inter-node, and no payload byte moves inside a node;
//! * **repeated rounds under the race detector** — cooperative-fill
//!   allreduces and striped allgathers back to back: any missing
//!   happens-before edge in the go/quiesce/fill envelope panics the
//!   detector.
//!
//! `MSIM_CONF_SEEDS=N` truncates the seed list (used by `ci.sh --quick`).

use collectives::testutil::{
    assert_close, conf_seeds, datum, expected_allgather, expected_allgatherv,
    expected_allreduce_sum, expected_bcast, run_cfg, vcounts,
};
use collectives::{op::Sum, Tuning};
use hmpi::{HyAllgather, HyAllgatherv, HyAllreduce, HyBcast, HybridComm, SyncMethod};
use msim::{Ctx, ExecMode, FaultPlan, SimConfig, SimResult};
use simnet::{ClusterSpec, CostModel, EventKind};

const COUNT: usize = 5;
const ROOT: usize = 1;
const KS: [usize; 3] = [1, 2, 4];
const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

type Prog = fn(&mut Ctx, SyncMethod, usize) -> Vec<f64>;
type Oracle = fn(usize, usize) -> Vec<f64>;

fn uneven() -> ClusterSpec {
    ClusterSpec::irregular(vec![2, 3, 4])
}

fn run_real(
    spec: ClusterSpec,
    fault: FaultPlan,
    sync: SyncMethod,
    k: usize,
    prog: Prog,
) -> SimResult<Vec<f64>> {
    let cfg = SimConfig::new(spec, CostModel::uniform_test()).with_fault(fault);
    run_cfg(cfg, move |ctx| prog(ctx, sync, k))
}

/// Oracle conformance across the (k, sync, seed) grid.
fn check_family(name: &str, prog: Prog, oracle: Oracle) {
    let spec = uneven();
    let p = spec.total_cores();
    for k in KS {
        for sync in SYNCS {
            let tag = format!("{name}/k={k}/{sync:?}");
            let base = run_real(spec.clone(), FaultPlan::none(), sync, k, prog);
            for rank in 0..p {
                assert_close(
                    &base.per_rank[rank],
                    &oracle(rank, p),
                    &format!("{tag}: baseline, rank {rank}"),
                );
            }
            for &seed in conf_seeds() {
                let fuzzed = run_real(spec.clone(), FaultPlan::from_seed(seed, p), sync, k, prog);
                for rank in 0..p {
                    assert_close(
                        &fuzzed.per_rank[rank],
                        &oracle(rank, p),
                        &format!("{tag}: seed {seed}, rank {rank}"),
                    );
                }
                assert_eq!(
                    fuzzed.per_rank, base.per_rank,
                    "{tag}: seed {seed} changed results"
                );
            }
        }
    }
}

fn run_exec(
    spec: ClusterSpec,
    fault: FaultPlan,
    sync: SyncMethod,
    k: usize,
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

/// The three executors must agree bit-for-bit on the k ≥ 2 schedules.
fn check_executors(name: &str, prog: Prog) {
    let spec = uneven();
    let p = spec.total_cores();
    for k in [2, 4] {
        for sync in SYNCS {
            let plans = std::iter::once((0, FaultPlan::none())).chain(
                conf_seeds()
                    .iter()
                    .map(|&s| (s, FaultPlan::from_seed(s, p))),
            );
            for (seed, plan) in plans {
                let run =
                    |exec: ExecMode| run_exec(spec.clone(), plan.clone(), sync, k, exec, prog);
                let events = run(ExecMode::Events);
                for (other, what) in [
                    (run(ExecMode::ThreadPerRank), "threads"),
                    (run(ExecMode::pooled()), "pooled"),
                ] {
                    let tag = format!("{name}/k={k}/{sync:?}: seed {seed}, events vs {what}");
                    assert_eq!(events.per_rank, other.per_rank, "{tag}: results");
                    assert_eq!(events.clocks, other.clocks, "{tag}: clocks");
                    assert_eq!(
                        events.tracer.events(),
                        other.tracer.events(),
                        "{tag}: traces"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- programs

fn kag_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    ag.write_my_block(ctx, &mine);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn ag_oracle(_rank: usize, p: usize) -> Vec<f64> {
    expected_allgather(p, COUNT)
}

fn kagv_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let hc = HybridComm::with_sync(ctx, &world, Tuning::open_mpi(), sync);
    let ag = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts, k);
    let mine: Vec<f64> = (0..counts[ctx.rank()])
        .map(|i| datum(ctx.rank(), i))
        .collect();
    ag.write_my_block(ctx, &mine);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn agv_oracle(_rank: usize, p: usize) -> Vec<f64> {
    expected_allgatherv(&vcounts(p))
}

fn kbc_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let bc = HyBcast::<f64>::with_leaders(ctx, &hc, COUNT, k);
    if ctx.rank() == ROOT {
        let msg: Vec<f64> = (0..COUNT).map(|i| datum(ROOT, i)).collect();
        bc.write_message(ctx, &msg);
    }
    bc.execute(ctx, ROOT);
    bc.read_message()
}

fn bc_oracle(_rank: usize, _p: usize) -> Vec<f64> {
    expected_bcast(ROOT, COUNT)
}

fn kar_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let contribution = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    ar.execute(ctx, &contribution, Sum);
    ar.read_result()
}

fn ar_oracle(_rank: usize, p: usize) -> Vec<f64> {
    expected_allreduce_sum(p, COUNT)
}

// ------------------------------------------------------------------ suite

macro_rules! family {
    ($name:ident, $prog:path, $oracle:path) => {
        mod $name {
            use super::*;

            #[test]
            fn conforms_on_uneven_nodes() {
                check_family(stringify!($name), $prog, $oracle);
            }

            #[test]
            fn executors_agree_on_uneven_nodes() {
                check_executors(stringify!($name), $prog);
            }
        }
    };
}

family!(allgather, kag_prog, ag_oracle);
family!(allgatherv, kagv_prog, agv_oracle);
family!(bcast, kbc_prog, bc_oracle);
family!(allreduce, kar_prog, ar_oracle);

// ------------------------------------------------------ striped traffic

/// With k = 2 both slot ranks of every node send inter-node, and the
/// paper's zero-copy property survives: envelope signals are zero-byte,
/// the stripes move payload only across nodes.
#[test]
fn bridge_traffic_is_striped_across_the_slots() {
    for sync in SYNCS {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries()).traced();
        let r = run_cfg(cfg, move |ctx| kag_prog(ctx, sync, 2));
        let events = r.tracer.events();
        let mut senders: Vec<usize> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send { intra: false, .. } => Some(e.rank),
                _ => None,
            })
            .collect();
        senders.sort_unstable();
        senders.dedup();
        assert_eq!(
            senders,
            vec![0, 1, 4, 5],
            "{sync:?}: both slots of both nodes"
        );
        let intra_payload: usize = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send {
                    bytes, intra: true, ..
                } => Some(bytes),
                _ => None,
            })
            .sum();
        assert_eq!(
            intra_payload, 0,
            "{sync:?}: stripes must not move data intra-node"
        );
    }
}

// ------------------------------------------------------- race-armed tier

/// Back-to-back cooperative-fill allreduces and striped allgathers with
/// the happens-before race detector armed: every window access must be
/// ordered by the go/quiesce/fill/release envelope, under every sync
/// method, or the detector panics the run.
#[test]
fn race_detector_accepts_multi_leader_envelope() {
    for sync in SYNCS {
        for k in [2, 4] {
            let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
                .with_race_detect(true);
            let r = run_cfg(cfg, move |ctx| {
                let world = ctx.world();
                let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
                let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, 33, k);
                let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, 17, k);
                let mut out = Vec::new();
                for round in 0..2 {
                    let mine = ctx.buf_from_fn(33, |i| datum(ctx.rank(), round * 100 + i));
                    ar.execute(ctx, &mine, Sum);
                    out.extend(ar.read_result());
                    // Quiesce readers before the next round rewrites the
                    // contribution rows.
                    hc.fence(ctx);
                    let block: Vec<f64> = (0..17)
                        .map(|i| datum(ctx.rank(), round * 100 + i))
                        .collect();
                    ag.write_my_block(ctx, &block);
                    ag.execute(ctx);
                    out.extend(ag.read_block(world.size() - 1));
                    hc.fence(ctx);
                }
                out
            });
            let p = 8;
            for rank in 0..p {
                for round in 0..2 {
                    let rank_sum: f64 = (0..p).map(|r| datum(r, round * 100)).sum();
                    let got = r.per_rank[rank][round * 50];
                    assert_close(
                        &[got],
                        &[rank_sum],
                        &format!("race tier {sync:?} k={k} rank {rank} round {round}"),
                    );
                }
            }
        }
    }
}
