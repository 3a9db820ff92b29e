//! Pinned behaviour of every hybrid family, and the contract every
//! executor width reproduces: one FNV digest per cell of per-rank
//! results, final clock bits and the canonical trace (with the `Req*`
//! lifecycle markers stripped, so blocking and split-phase runs of one
//! schedule hash alike when — and only when — they are bit-identical).
//!
//! The grid is family × 3 sync methods × leader count k ∈ {1, 2, 4}
//! (where the family takes one) × `regular(4,6)`, `irregular([1,3,4])`
//! (k clamps to 1) and `irregular([2,3,4])` (k clamps to 2);
//! `fixtures/hybrid_digests.txt` holds one line per cell, and both the
//! blocking `execute` and `iexecute + wait` must reproduce it (gather and
//! scatter have no split-phase form and pin the blocking run only). The
//! table was generated from the implementation that had separate
//! single-leader and multi-leader handles (`HyK*`), so it is what keeps
//! the unified one honest: the digests cover window allocation,
//! leader-set construction and every modeled send, copy, fee and sync.
//!
//! Every line must come out the same on a pool of one worker (the
//! launching thread, node-affine FIFO picks), on a pool of two, and on a
//! pool of two drawing its picks by each adversarial schedule seed
//! (`MSIM_CONF_SEEDS=N` truncates the seed list): virtual time must not
//! see who ran when.
//!
//! A deliberate behaviour change regenerates the table: the failing run
//! writes the recomputed file next to the test binary's temp dir and
//! prints its path; review the diff, then copy it over the fixture.

use collectives::testutil::{conf_seeds, datum, run_cfg, vcounts};
use collectives::{op::Sum, Tuning};
use hmpi::{
    HyAllgather, HyAllgatherv, HyAllreduce, HyAlltoall, HyAlltoallv, HyBcast, HyGather,
    HyReduceScatter, HyScatter, HybridComm, SyncMethod,
};
use msim::mcheck::{fnv1a, outcome_digest};
use msim::{Ctx, ExecMode, FaultPlan, Request, SchedulePolicy, SimConfig};
use simnet::{ClusterSpec, CostModel};

const COUNT: usize = 5;
const KS: [usize; 3] = [1, 2, 4];
const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

/// One cell's knobs, as seen by a family program.
#[derive(Clone, Copy)]
struct Cell {
    sync: SyncMethod,
    k: usize,
    nonblocking: bool,
}

type Prog = fn(&mut Ctx, Cell) -> Vec<f64>;

fn specs() -> [(&'static str, ClusterSpec); 3] {
    [
        ("regular(4,6)", ClusterSpec::regular(4, 6)),
        ("irregular([1,3,4])", ClusterSpec::irregular(vec![1, 3, 4])),
        ("irregular([2,3,4])", ClusterSpec::irregular(vec![2, 3, 4])),
    ]
}

fn allgather(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, c.k);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    ag.write_my_block(ctx, &mine);
    if c.nonblocking {
        ag.iexecute(ctx).wait(ctx);
    } else {
        ag.execute(ctx);
    }
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn allgatherv(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let hc = HybridComm::with_sync(ctx, &world, Tuning::open_mpi(), c.sync);
    let ag = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts, c.k);
    let mine: Vec<f64> = (0..counts[ctx.rank()])
        .map(|i| datum(ctx.rank(), i))
        .collect();
    ag.write_my_block(ctx, &mine);
    if c.nonblocking {
        ag.iexecute(ctx).wait(ctx);
    } else {
        ag.execute(ctx);
    }
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn bcast(ctx: &mut Ctx, c: Cell, root: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let bc = HyBcast::<f64>::with_leaders(ctx, &hc, COUNT, c.k);
    if ctx.rank() == root {
        let msg: Vec<f64> = (0..COUNT).map(|i| datum(root, i)).collect();
        bc.write_message(ctx, &msg);
    }
    if c.nonblocking {
        bc.iexecute(ctx, root).wait(ctx);
    } else {
        bc.execute(ctx, root);
    }
    bc.read_message()
}

/// Root 0: the leader of node 0.
fn bcast_root0(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    bcast(ctx, c, 0)
}

/// Root 1: slot 1 of node 0, or the leader of node 1 on `[1,3,4]`.
fn bcast_root1(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    bcast(ctx, c, 1)
}

/// The last rank: never a leader, never a slot at k ≤ 4 on these specs.
fn bcast_rootlast(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let root = ctx.nranks() - 1;
    bcast(ctx, c, root)
}

fn allreduce(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, c.k);
    let mine = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    if c.nonblocking {
        ar.iexecute(ctx, &mine, Sum).wait(ctx);
    } else {
        ar.execute(ctx, &mine, Sum);
    }
    ar.read_result()
}

fn alltoall(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let a2a = HyAlltoall::<f64>::new(ctx, &hc, COUNT);
    let me = ctx.rank();
    for dest in 0..world.size() {
        let data: Vec<f64> = (0..COUNT).map(|i| datum(me, dest * COUNT + i)).collect();
        a2a.write_block(ctx, dest, &data);
    }
    if c.nonblocking {
        a2a.iexecute(ctx).wait(ctx);
    } else {
        a2a.execute(ctx);
    }
    (0..world.size())
        .flat_map(|src| a2a.read_block(src))
        .collect()
}

fn alltoallv(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let p = world.size();
    let counts: Vec<usize> = (0..p * p).map(|i| (i / p + 2 * (i % p)) % 4).collect();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let a2av = HyAlltoallv::<f64>::new(ctx, &hc, &counts);
    let me = ctx.rank();
    for dest in 0..p {
        let data: Vec<f64> = (0..counts[me * p + dest])
            .map(|i| datum(me, dest * 8 + i))
            .collect();
        a2av.write_block(ctx, dest, &data);
    }
    if c.nonblocking {
        a2av.iexecute(ctx).wait(ctx);
    } else {
        a2av.execute(ctx);
    }
    (0..p).flat_map(|src| a2av.read_block(src)).collect()
}

fn reduce_scatter(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let counts: Vec<usize> = (0..world.size()).map(|r| (r % 3) + 1).collect();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let rs = HyReduceScatter::<f64>::new(ctx, &hc, &counts);
    let mine = ctx.buf_from_fn(rs.total(), |j| datum(ctx.rank(), j));
    if c.nonblocking {
        rs.iexecute(ctx, &mine, Sum).wait(ctx);
    } else {
        rs.execute(ctx, &mine, Sum);
    }
    rs.read_result()
}

/// Root 1, as in the conformance suites. Blocking only: gather has no
/// split-phase form.
fn gather(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let g = HyGather::<f64>::new(ctx, &hc, COUNT, 1);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    g.write_my_block(ctx, &mine);
    g.execute(ctx);
    if ctx.rank() == 1 {
        (0..world.size()).flat_map(|r| g.read_block(r)).collect()
    } else {
        Vec::new()
    }
}

/// Root 1. Blocking only: scatter has no split-phase form.
fn scatter(ctx: &mut Ctx, c: Cell) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), c.sync);
    let s = HyScatter::<f64>::new(ctx, &hc, COUNT, 1);
    if ctx.rank() == 1 {
        for dest in 0..world.size() {
            let data: Vec<f64> = (0..COUNT).map(|i| datum(1, dest * COUNT + i)).collect();
            s.write_block(ctx, dest, &data);
        }
    }
    ctx.oob_fence(&world);
    s.execute(ctx);
    s.read_my_block()
}

/// `(name, program, takes a leader count, has a split-phase form)`.
const FAMILIES: [(&str, Prog, bool, bool); 11] = [
    ("allgather", allgather, true, true),
    ("allgatherv", allgatherv, true, true),
    ("bcast.root0", bcast_root0, true, true),
    ("bcast.root1", bcast_root1, true, true),
    ("bcast.rootlast", bcast_rootlast, true, true),
    ("allreduce", allreduce, true, true),
    ("alltoall", alltoall, false, true),
    ("alltoallv", alltoallv, false, true),
    ("reduce_scatter", reduce_scatter, false, true),
    ("gather", gather, false, false),
    ("scatter", scatter, false, false),
];

/// How one leg of the wall runs every cell: the pool width and the
/// schedule policy its picks follow.
#[derive(Clone, Copy)]
struct Leg {
    workers: usize,
    seed: Option<u64>,
}

fn digest(spec: ClusterSpec, prog: Prog, cell: Cell, leg: Leg) -> u64 {
    let schedule = leg
        .seed
        .map_or(SchedulePolicy::Fifo, SchedulePolicy::adversarial);
    let cfg = SimConfig::new(spec, CostModel::uniform_test())
        .traced()
        .with_exec(ExecMode::Pooled {
            workers: Some(leg.workers),
        })
        .with_fault(FaultPlan::none().with_schedule(schedule));
    let res = run_cfg(cfg, move |ctx| prog(ctx, cell));
    let trace: Vec<_> = res
        .tracer
        .events()
        .into_iter()
        .filter(|e| !e.kind.is_req_marker())
        .collect();
    fnv1a(outcome_digest(&res), format!("{trace:?}").as_bytes())
}

fn recompute(leg: Leg) -> String {
    let mut out = String::new();
    for (name, prog, takes_k, splits) in FAMILIES {
        for sync in SYNCS {
            for &k in if takes_k { &KS[..] } else { &KS[..1] } {
                for (spec_name, spec) in specs() {
                    let run = |nonblocking| {
                        let cell = Cell {
                            sync,
                            k,
                            nonblocking,
                        };
                        digest(spec.clone(), prog, cell, leg)
                    };
                    let blocking = run(false);
                    let line = format!("{name} {sync:?} k={k} {spec_name} {blocking:016x}");
                    if splits {
                        assert_eq!(
                            run(true),
                            blocking,
                            "{line}: iexecute + wait must hash like execute"
                        );
                    }
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Recompute the table on `leg`; on any difference write it to the test
/// binary's temp dir (as `hybrid_digests.<what>.txt`) and fail, naming
/// the differing lines.
fn check(what: &str, leg: Leg) {
    let want = include_str!("fixtures/hybrid_digests.txt");
    let got = recompute(leg);
    if got == want {
        return;
    }
    let path = format!("{}/hybrid_digests.{what}.txt", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, &got).expect("write the recomputed table");
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n   got {g}"))
        .collect();
    panic!(
        "{what}: {} of {} digest lines differ (recomputed table: {path}):\n{}",
        diffs.len() + want.lines().count().abs_diff(got.lines().count()),
        want.lines().count(),
        diffs[..diffs.len().min(12)].join("\n")
    );
}

#[test]
fn one_worker_reproduces_every_pinned_digest() {
    check(
        "one_worker",
        Leg {
            workers: 1,
            seed: None,
        },
    );
}

#[test]
fn two_workers_reproduce_every_pinned_digest() {
    check(
        "two_workers",
        Leg {
            workers: 2,
            seed: None,
        },
    );
}

/// The seeds run side by side: an adversarial schedule spends most of
/// its wall-clock time in the injected sleeps, not on a core.
#[test]
fn every_adversarial_seed_reproduces_every_pinned_digest() {
    std::thread::scope(|s| {
        for &seed in conf_seeds() {
            let leg = Leg {
                workers: 2,
                seed: Some(seed),
            };
            s.spawn(move || check(&format!("two_workers_seed{seed}"), leg));
        }
    });
}
