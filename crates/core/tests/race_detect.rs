//! The hybrid collectives run clean under the happens-before race
//! detector, for every synchronization protocol and leader count.
//!
//! This is the detector-side complement of the conformance suite: where
//! conformance checks *values* under adversarial schedules, this checks
//! that every release/acquire pair the `Hy*` implementations rely on is
//! actually visible to the detector as a happens-before edge — a missing
//! edge here would fail even when the values happen to be right.

use collectives::testutil::{assert_close, datum, expected_allgather, expected_allreduce_sum};
use collectives::{op::Sum, Tuning};
use hmpi::{HyAllgather, HyAllreduce, HyBcast, HybridComm, SyncMethod};
use msim::{Ctx, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel, EventKind};

const COUNT: usize = 5;
const KS: [usize; 3] = [1, 2, 4];
const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

fn cfg(spec: ClusterSpec) -> SimConfig {
    SimConfig::new(spec, CostModel::uniform_test()).with_race_detect(true)
}

fn allgather_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    ag.write_my_block(ctx, &mine);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn allreduce_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let contribution = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    ar.execute(ctx, &contribution, Sum);
    ar.read_result()
}

fn bcast_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let bc = HyBcast::<f64>::with_leaders(ctx, &hc, COUNT, k);
    if ctx.rank() == 0 {
        let msg: Vec<f64> = (0..COUNT).map(|i| datum(0, i)).collect();
        bc.write_message(ctx, &msg);
    }
    bc.execute(ctx, 0);
    bc.read_message()
}

#[test]
fn hybrid_collectives_are_race_free_under_every_sync_method() {
    for (sync, k) in SYNCS.into_iter().flat_map(|s| KS.map(|k| (s, k))) {
        for spec in [
            ClusterSpec::regular(2, 3),
            ClusterSpec::irregular(vec![1, 3, 4]),
        ] {
            let p = spec.total_cores();
            let r = Universe::run(cfg(spec.clone()), move |ctx| allgather_prog(ctx, sync, k))
                .unwrap_or_else(|e| panic!("allgather/{sync:?}/k={k}/p={p}: {e}"));
            for rank in 0..p {
                assert_close(
                    &r.per_rank[rank],
                    &expected_allgather(p, COUNT),
                    &format!("allgather/{sync:?} under detector, rank {rank}"),
                );
            }
            let r = Universe::run(cfg(spec.clone()), move |ctx| allreduce_prog(ctx, sync, k))
                .unwrap_or_else(|e| panic!("allreduce/{sync:?}/k={k}/p={p}: {e}"));
            for rank in 0..p {
                assert_close(
                    &r.per_rank[rank],
                    &expected_allreduce_sum(p, COUNT),
                    &format!("allreduce/{sync:?} under detector, rank {rank}"),
                );
            }
            Universe::run(cfg(spec), move |ctx| bcast_prog(ctx, sync, k))
                .unwrap_or_else(|e| panic!("bcast/{sync:?}/k={k}/p={p}: {e}"));
        }
    }
}

#[test]
fn detector_sweep_is_summarized_in_the_trace() {
    let r = Universe::run(cfg(ClusterSpec::regular(2, 3)).traced(), move |ctx| {
        allgather_prog(ctx, SyncMethod::SharedFlags, 2)
    })
    .unwrap();
    let check = r
        .tracer
        .events()
        .into_iter()
        .find(|e| matches!(e.kind, EventKind::RaceCheck { .. }))
        .expect("detector-on traced run records a RaceCheck summary");
    match check.kind {
        EventKind::RaceCheck { accesses, races } => {
            assert!(accesses > 0, "the allgather touches the window");
            assert_eq!(races, 0);
        }
        _ => unreachable!(),
    }
}
