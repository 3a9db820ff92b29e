//! Conformance suite for the split-phase (`iexecute`) hybrid collectives.
//!
//! The nonblocking contract: for every family that offers `iexecute`,
//! `iexecute + wait` with nothing in between must be **bit-identical** to
//! the blocking `execute` — same per-rank results, same virtual clocks,
//! and the same canonical trace once the `ReqStart`/`ReqComplete`
//! lifecycle markers (which only nonblocking entry points emit) are
//! stripped. Checked for all three synchronization protocols on a
//! regular 4×6 cluster and an irregular [1, 3, 4] cluster, at `leaders`
//! ∈ {1, 2, 4} for the families that take a leader count, under the
//! standard seeded fault plans, and — in phantom mode — on pools of one
//! and two workers, which must agree bit-for-bit with each other.
//!
//! The batch-completion property tests pin the deterministic ordering
//! semantics of [`msim::waitall`] (posting order, never arrival order)
//! and [`msim::testany`] (index-order scan). Polling is inherently
//! wall-clock sensitive — whether a message has *arrived* at poll time
//! depends on scheduling — so these tests force arrivals causally: a
//! message is either guaranteed-arrived (sent before an out-of-band
//! fence the poller also crossed) or guaranteed-absent (its sender waits
//! for a go-message the poller has not yet sent).
//!
//! `MSIM_CONF_SEEDS=N` truncates the seed list (used by `ci.sh --quick`;
//! the race tier re-runs this suite under the detector).

use collectives::testutil::{conf_seeds, datum, run_cfg, vcounts};
use collectives::{op::Sum, Tuning};
use hmpi::{
    HyAllgather, HyAllgatherv, HyAllreduce, HyAlltoall, HyAlltoallv, HyBcast, HyGather,
    HyReduceScatter, HyScatter, HybridComm, SyncMethod,
};
use msim::{testany, waitall, Bytes, Ctx, ExecMode, FaultPlan, Payload, Request, SimConfig};
use simnet::{ClusterSpec, CostModel, Event, EventKind};

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

/// A family program: runs the collective with `k` leaders per node,
/// blocking (`nonblocking = false`) or as `iexecute + wait` (`true`), and
/// returns what it read.
type Prog = fn(&mut Ctx, SyncMethod, usize, bool) -> Vec<f64>;

/// Every (sync method, leader count) cell of a family taking `ks`.
fn sync_k(ks: &[usize]) -> impl Iterator<Item = (SyncMethod, usize)> + '_ {
    SYNCS
        .into_iter()
        .flat_map(move |s| ks.iter().map(move |&k| (s, k)))
}

fn strip_req_markers(events: Vec<Event>) -> Vec<Event> {
    events
        .into_iter()
        .filter(|e| !e.kind.is_req_marker())
        .collect()
}

/// The i-vs-blocking wall for one family.
fn check_ifamily(name: &str, prog: Prog, ks: &[usize]) {
    for (sync, k) in sync_k(ks) {
        for spec in [
            ClusterSpec::regular(4, 6),
            ClusterSpec::irregular(vec![1, 3, 4]),
        ] {
            let p = spec.total_cores();
            let plans: Vec<(u64, FaultPlan)> = std::iter::once((0, FaultPlan::none()))
                .chain(
                    conf_seeds()
                        .iter()
                        .map(|&s| (s, FaultPlan::from_seed(s, p))),
                )
                .collect();
            for (seed, plan) in plans {
                let run = |nonblocking: bool, plan: FaultPlan| {
                    let cfg = SimConfig::new(spec.clone(), CostModel::uniform_test())
                        .with_fault(plan)
                        .traced();
                    run_cfg(cfg, move |ctx| prog(ctx, sync, k, nonblocking))
                };
                let b = run(false, plan.clone());
                let i = run(true, plan);
                let tag = format!("{name}/{sync:?}/k={k}: seed {seed}, p={p}");
                assert_eq!(i.per_rank, b.per_rank, "{tag}: results differ");
                assert_eq!(i.clocks, b.clocks, "{tag}: clocks differ");

                let bt = b.tracer.events();
                let it = i.tracer.events();
                assert!(
                    bt.iter().all(|e| !e.kind.is_req_marker()),
                    "{tag}: the blocking path must not emit Req markers"
                );
                let starts = it
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::ReqStart { .. }))
                    .count();
                let completes = it
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::ReqComplete { .. }))
                    .count();
                assert_eq!(starts, p, "{tag}: one ReqStart per rank");
                assert_eq!(completes, p, "{tag}: one ReqComplete per rank");
                assert_eq!(
                    strip_req_markers(it),
                    bt,
                    "{tag}: traces differ beyond the Req markers"
                );
            }
        }
    }
}

/// The width wall: in phantom mode, `iexecute + wait` must produce
/// bit-identical clocks and traces on one worker and on two.
fn check_ifamily_widths(name: &str, prog: Prog, ks: &[usize]) {
    for (sync, k) in sync_k(ks) {
        for spec in [
            ClusterSpec::regular(4, 6),
            ClusterSpec::irregular(vec![1, 3, 4]),
        ] {
            let p = spec.total_cores();
            let run = |exec: ExecMode| {
                let cfg = SimConfig::new(spec.clone(), CostModel::uniform_test())
                    .phantom()
                    .traced()
                    .with_exec(exec);
                run_cfg(cfg, move |ctx| prog(ctx, sync, k, true))
            };
            let one = run(ExecMode::Pooled { workers: Some(1) });
            let two = run(ExecMode::Pooled { workers: Some(2) });
            let tag = format!("{name}/{sync:?}/k={k}: p={p}");
            assert_eq!(two.clocks, one.clocks, "{tag}: clocks");
            assert_eq!(two.tracer.events(), one.tracer.events(), "{tag}: traces");
        }
    }
}

// ---------------------------------------------------------------- programs

fn hy_allgather_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    ag.write_my_block(ctx, &mine);
    if nonblocking {
        ag.iexecute(ctx).wait(ctx);
    } else {
        ag.execute(ctx);
    }
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_allgatherv_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let hc = HybridComm::with_sync(ctx, &world, Tuning::open_mpi(), sync);
    let ag = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts, k);
    let mine: Vec<f64> = (0..counts[ctx.rank()])
        .map(|i| datum(ctx.rank(), i))
        .collect();
    ag.write_my_block(ctx, &mine);
    if nonblocking {
        ag.iexecute(ctx).wait(ctx);
    } else {
        ag.execute(ctx);
    }
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_bcast_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let bc = HyBcast::<f64>::with_leaders(ctx, &hc, COUNT, k);
    if ctx.rank() == ROOT {
        let msg: Vec<f64> = (0..COUNT).map(|i| datum(ROOT, i)).collect();
        bc.write_message(ctx, &msg);
    }
    if nonblocking {
        bc.iexecute(ctx, ROOT).wait(ctx);
    } else {
        bc.execute(ctx, ROOT);
    }
    bc.read_message()
}

fn hy_allreduce_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let mine = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    if nonblocking {
        ar.iexecute(ctx, &mine, Sum).wait(ctx);
    } else {
        ar.execute(ctx, &mine, Sum);
    }
    ar.read_result()
}

fn hy_alltoall_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let a2a = HyAlltoall::<f64>::new(ctx, &hc, COUNT);
    let me = ctx.rank();
    for dest in 0..world.size() {
        let data: Vec<f64> = (0..COUNT).map(|k| datum(me, dest * COUNT + k)).collect();
        a2a.write_block(ctx, dest, &data);
    }
    if nonblocking {
        a2a.iexecute(ctx).wait(ctx);
    } else {
        a2a.execute(ctx);
    }
    (0..world.size())
        .flat_map(|src| a2a.read_block(src))
        .collect()
}

fn hy_alltoallv_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let p = world.size();
    // Irregular block sizes: (s + 2d) % 4 elements from s to d.
    let counts: Vec<usize> = (0..p * p).map(|i| (i / p + 2 * (i % p)) % 4).collect();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let a2av = HyAlltoallv::<f64>::new(ctx, &hc, &counts);
    let me = ctx.rank();
    for dest in 0..p {
        let data: Vec<f64> = (0..counts[me * p + dest])
            .map(|k| datum(me, dest * 8 + k))
            .collect();
        a2av.write_block(ctx, dest, &data);
    }
    if nonblocking {
        a2av.iexecute(ctx).wait(ctx);
    } else {
        a2av.execute(ctx);
    }
    (0..p).flat_map(|src| a2av.read_block(src)).collect()
}

fn hy_reduce_scatter_prog(
    ctx: &mut Ctx,
    sync: SyncMethod,
    _k: usize,
    nonblocking: bool,
) -> Vec<f64> {
    let world = ctx.world();
    // Non-uniform, never-zero segment lengths.
    let counts: Vec<usize> = (0..world.size()).map(|r| (r % 3) + 1).collect();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let rs = HyReduceScatter::<f64>::new(ctx, &hc, &counts);
    let total = rs.total();
    let mine = ctx.buf_from_fn(total, |j| datum(ctx.rank(), j));
    if nonblocking {
        rs.iexecute(ctx, &mine, Sum).wait(ctx);
    } else {
        rs.execute(ctx, &mine, Sum);
    }
    rs.read_result()
}

fn hy_gather_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let g = HyGather::<f64>::new(ctx, &hc, COUNT, ROOT);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    g.write_my_block(ctx, &mine);
    if nonblocking {
        g.iexecute(ctx).wait(ctx);
    } else {
        g.execute(ctx);
    }
    if ctx.rank() == ROOT {
        (0..world.size()).flat_map(|r| g.read_block(r)).collect()
    } else {
        Vec::new()
    }
}

fn hy_scatter_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let s = HyScatter::<f64>::new(ctx, &hc, COUNT, ROOT);
    if ctx.rank() == ROOT {
        for dest in 0..world.size() {
            let data: Vec<f64> = (0..COUNT).map(|i| datum(ROOT, dest * COUNT + i)).collect();
            s.write_block(ctx, dest, &data);
        }
    }
    if nonblocking {
        s.iexecute(ctx).wait(ctx);
    } else {
        s.execute(ctx);
    }
    s.read_my_block()
}

// ------------------------------------------------------------------ suite

macro_rules! ifamily {
    ($name:ident, $prog:path, $ks:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn iexecute_wait_is_bit_identical_to_execute() {
                check_ifamily(stringify!($name), $prog, &$ks);
            }

            #[test]
            fn iexecute_wait_is_width_invariant() {
                check_ifamily_widths(stringify!($name), $prog, &$ks);
            }
        }
    };
}

ifamily!(hy_allgather, hy_allgather_prog, KS);
ifamily!(hy_allgatherv, hy_allgatherv_prog, KS);
ifamily!(hy_bcast, hy_bcast_prog, KS);
ifamily!(hy_allreduce, hy_allreduce_prog, KS);
ifamily!(hy_alltoall, hy_alltoall_prog, [1]);
ifamily!(hy_alltoallv, hy_alltoallv_prog, [1]);
ifamily!(hy_reduce_scatter, hy_reduce_scatter_prog, [1]);
ifamily!(hy_gather, hy_gather_prog, [1]);
ifamily!(hy_scatter, hy_scatter_prog, [1]);

// --------------------------------------------- batch-completion ordering

fn payload(bytes: &[u8]) -> Payload {
    Payload::Real(Bytes::from(bytes.to_vec()))
}

/// `waitall` yields outputs in **posting order**, even when arrival order
/// is provably reversed: rank 2's message is sent eagerly, while rank 1
/// holds its send until rank 0 — who posted the rank-1 receive *first* —
/// releases it with a go-message.
#[test]
fn waitall_completes_in_posting_order() {
    let cfg = SimConfig::new(ClusterSpec::regular(1, 3), CostModel::uniform_test());
    let out = run_cfg(cfg, |ctx| {
        let world = ctx.world();
        match ctx.rank() {
            0 => {
                let r1 = ctx.irecv(&world, 1, 1);
                let r2 = ctx.irecv(&world, 2, 2);
                ctx.send(&world, 1, 7, Payload::empty());
                let outs = waitall(ctx, vec![r1, r2]);
                outs.iter().map(|m| m.len() as f64).collect()
            }
            1 => {
                // Send only once released, so the rank-1 message cannot
                // arrive before rank 2's.
                ctx.recv(&world, 0, 7);
                ctx.send(&world, 0, 1, payload(b"late"));
                Vec::new()
            }
            _ => {
                ctx.send(&world, 0, 2, payload(b"early"));
                Vec::new()
            }
        }
    });
    // Posting order: the 4-byte "late" message first, then "early".
    assert_eq!(out.per_rank[0], vec![4.0, 5.0]);
}

/// `testany` scans in **index order** and only takes what has provably
/// arrived: with request 0's sender parked on a go-message and request
/// 1's message fenced-in, the first `testany` must pick index 1 — and
/// after removal, the remaining request completes normally.
#[test]
fn testany_picks_the_lowest_ready_index() {
    let cfg = SimConfig::new(ClusterSpec::regular(1, 3), CostModel::uniform_test());
    let out = run_cfg(cfg, |ctx| {
        let world = ctx.world();
        match ctx.rank() {
            0 => {
                let r1 = ctx.irecv(&world, 1, 1);
                let r2 = ctx.irecv(&world, 2, 2);
                // After the fence, rank 2's eager send has arrived; rank
                // 1 has not even been released yet.
                ctx.oob_fence(&world);
                let mut reqs = vec![r1, r2];
                let (idx, msg) = testany(ctx, &mut reqs).expect("rank 2's message is in");
                assert_eq!(idx, 1, "index-order scan must find the fenced-in message");
                assert_eq!(msg.len(), 5);
                ctx.send(&world, 1, 7, Payload::empty());
                let rest = waitall(ctx, reqs);
                assert_eq!(rest.len(), 1);
                vec![idx as f64, msg.len() as f64, rest[0].len() as f64]
            }
            1 => {
                ctx.oob_fence(&world);
                ctx.recv(&world, 0, 7);
                ctx.send(&world, 0, 1, payload(b"late"));
                Vec::new()
            }
            _ => {
                ctx.send(&world, 0, 2, payload(b"early"));
                ctx.oob_fence(&world);
                Vec::new()
            }
        }
    });
    assert_eq!(out.per_rank[0], vec![1.0, 5.0, 4.0]);
}

/// A request that was started but never polled completes entirely at the
/// wait: `testany` on a guaranteed-empty mailbox finds nothing, returns
/// `None`, and — being claim-free — leaves clocks and traces exactly as
/// if it had never been called.
#[test]
fn testany_on_unarrived_requests_is_free_and_returns_none() {
    let run = |probe: bool| {
        let cfg = SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test()).traced();
        run_cfg(cfg, move |ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    let r1 = ctx.irecv(&world, 1, 1);
                    let mut reqs = vec![r1];
                    if probe {
                        // Rank 1 is parked on the go-message, so nothing
                        // can have arrived.
                        assert!(testany(ctx, &mut reqs).is_none());
                    }
                    ctx.send(&world, 1, 7, Payload::empty());
                    let outs = waitall(ctx, reqs);
                    outs[0].len() as f64
                }
                _ => {
                    ctx.recv(&world, 0, 7);
                    ctx.send(&world, 0, 1, payload(b"late"));
                    0.0
                }
            }
        })
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.per_rank, without.per_rank);
    assert_eq!(with.clocks, without.clocks, "a failed testany must be free");
    assert_eq!(with.tracer.events(), without.tracer.events());
}
