//! Pinned behaviour of every flat schedule, and the contract every
//! executor width reproduces: one FNV digest per cell of per-rank
//! results, final clock bits and the canonical trace (with the `Req*`
//! lifecycle markers stripped, so `dispatch` and `istart + wait` of one
//! schedule hash alike when, and only when, they are bit-identical).
//!
//! A cell is one flat [`Algo`] of a family with a `dispatch` (barrier
//! included) on one of `regular(2,4)`, `regular(4,6)` and
//! `irregular([1,3,4])`, wherever the registry calls the schedule
//! applicable to that communicator. Fixed-count families move 5
//! elements per rank (per block for alltoall); allgatherv, alltoallv and
//! reduce_scatter use [`vcounts`], which holds zeros.
//! `fixtures/flat_digests.txt` holds one line per cell, and both the
//! blocking `dispatch` and, where the family has one, `istart + wait`
//! must reproduce it. Without this table a schedule that selection only
//! reaches through a `tuned` pick (recursive doubling, alltoall Bruck,
//! every split-phase form) would have no pinned trace.
//!
//! Every line must come out the same on a pool of one worker, on a pool
//! of two, and on a pool of two drawing its picks by each adversarial
//! schedule seed (`MSIM_CONF_SEEDS=N` truncates the seed list).
//!
//! A deliberate behaviour change regenerates the table: the failing run
//! writes the recomputed file next to the test binary's temp dir and
//! prints its path; review the diff, then copy it over the fixture.

use collectives::testutil::{conf_seeds, datum, run_cfg, vcounts};
use collectives::{
    allgather, allgatherv, allreduce, alltoall, alltoallv, barrier, bcast, op::Sum, reduce_scatter,
    registry, Algo, CollectiveOp, CommCase,
};
use msim::mcheck::{fnv1a, outcome_digest};
use msim::{Ctx, ExecMode, FaultPlan, Request, SchedulePolicy, SimConfig};
use simnet::{ClusterSpec, CostModel};

const COUNT: usize = 5;
const ROOT: usize = 1;

/// A family program: run `algo`, blocking or as `istart + wait`, and
/// return this rank's result.
type Prog = fn(&mut Ctx, Algo, bool) -> Vec<f64>;

fn specs() -> [(&'static str, ClusterSpec); 3] {
    [
        ("regular(2,4)", ClusterSpec::regular(2, 4)),
        ("regular(4,6)", ClusterSpec::regular(4, 6)),
        ("irregular([1,3,4])", ClusterSpec::irregular(vec![1, 3, 4])),
    ]
}

fn out(buf: &msim::Buf<f64>) -> Vec<f64> {
    buf.as_slice().expect("real data").to_vec()
}

fn allgather(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let send = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    let mut recv = ctx.buf_zeroed(COUNT * world.size());
    if nonblocking {
        allgather::istart(ctx, &world, &send, &mut recv, algo).wait(ctx);
    } else {
        allgather::dispatch(ctx, &world, &send, &mut recv, algo);
    }
    out(&recv)
}

fn allgatherv(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let send = ctx.buf_from_fn(counts[ctx.rank()], |i| datum(ctx.rank(), i));
    let mut recv = ctx.buf_zeroed(counts.iter().sum());
    if nonblocking {
        allgatherv::istart(ctx, &world, &send, &counts, &mut recv, algo).wait(ctx);
    } else {
        allgatherv::dispatch(ctx, &world, &send, &counts, &mut recv, algo);
    }
    out(&recv)
}

fn bcast(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let mut buf = if ctx.rank() == ROOT {
        ctx.buf_from_fn(COUNT, |i| datum(ROOT, i))
    } else {
        ctx.buf_zeroed(COUNT)
    };
    if nonblocking {
        bcast::istart(ctx, &world, &mut buf, ROOT, algo).wait(ctx);
    } else {
        bcast::dispatch(ctx, &world, &mut buf, ROOT, algo);
    }
    out(&buf)
}

fn allreduce(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let send = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    let mut recv = ctx.buf_zeroed(COUNT);
    if nonblocking {
        allreduce::istart(ctx, &world, &send, &mut recv, Sum, algo).wait(ctx);
    } else {
        allreduce::dispatch(ctx, &world, &send, &mut recv, Sum, algo);
    }
    out(&recv)
}

fn alltoall(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let p = world.size();
    let send = ctx.buf_from_fn(p * COUNT, |i| datum(ctx.rank(), i));
    let mut recv = ctx.buf_zeroed(p * COUNT);
    if nonblocking {
        alltoall::istart(ctx, &world, &send, &mut recv, COUNT, algo).wait(ctx);
    } else {
        alltoall::dispatch(ctx, &world, &send, &mut recv, COUNT, algo);
    }
    out(&recv)
}

/// Every rank sends `vcounts(p)[d]` elements to rank `d`, so rank `r`
/// receives `vcounts(p)[r]` from everyone.
fn alltoallv(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let p = world.size();
    let scounts = vcounts(p);
    let rcounts = vec![scounts[ctx.rank()]; p];
    let send = ctx.buf_from_fn(scounts.iter().sum(), |i| datum(ctx.rank(), i));
    let mut recv = ctx.buf_zeroed(rcounts.iter().sum());
    if nonblocking {
        alltoallv::istart(ctx, &world, &send, &scounts, &mut recv, &rcounts, algo).wait(ctx);
    } else {
        alltoallv::dispatch(ctx, &world, &send, &scounts, &mut recv, &rcounts, algo);
    }
    out(&recv)
}

fn reduce_scatter(ctx: &mut Ctx, algo: Algo, nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let send = ctx.buf_from_fn(counts.iter().sum(), |i| datum(ctx.rank(), i));
    let mut recv = ctx.buf_zeroed(counts[ctx.rank()]);
    if nonblocking {
        reduce_scatter::istart(ctx, &world, &send, &counts, &mut recv, Sum, algo).wait(ctx);
    } else {
        reduce_scatter::dispatch(ctx, &world, &send, &counts, &mut recv, Sum, algo);
    }
    out(&recv)
}

/// The barrier has no nonblocking form.
fn barrier(ctx: &mut Ctx, algo: Algo, _nonblocking: bool) -> Vec<f64> {
    let world = ctx.world();
    barrier::dispatch(ctx, &world, algo);
    Vec::new()
}

/// `(operation, program, has an istart)`.
const FAMILIES: [(CollectiveOp, Prog, bool); 8] = [
    (CollectiveOp::Allgather, allgather, true),
    (CollectiveOp::Allgatherv, allgatherv, true),
    (CollectiveOp::Bcast, bcast, true),
    (CollectiveOp::Allreduce, allreduce, true),
    (CollectiveOp::Alltoall, alltoall, true),
    (CollectiveOp::Alltoallv, alltoallv, true),
    (CollectiveOp::ReduceScatter, reduce_scatter, true),
    (CollectiveOp::Barrier, barrier, false),
];

/// The flat schedules of `op` the registry deems applicable on `spec`'s
/// world communicator. Every flat predicate reads only the
/// communicator's shape, so the case carries no byte size; the hybrid
/// schedules need a window and never apply.
fn applicable(op: CollectiveOp, spec: &ClusterSpec) -> Vec<Algo> {
    let case = CommCase::new(op, spec.total_cores(), spec.num_nodes(), 0);
    registry::global()
        .applicable(&case)
        .map(|s| s.algo)
        .collect()
}

/// How one leg of the wall runs every cell: the pool width and the
/// schedule policy its picks follow.
#[derive(Clone, Copy)]
struct Leg {
    workers: usize,
    seed: Option<u64>,
}

fn digest(spec: ClusterSpec, prog: Prog, algo: Algo, nonblocking: bool, leg: Leg) -> u64 {
    let schedule = leg
        .seed
        .map_or(SchedulePolicy::Fifo, SchedulePolicy::adversarial);
    let cfg = SimConfig::new(spec, CostModel::uniform_test())
        .traced()
        .with_exec(ExecMode::Pooled {
            workers: Some(leg.workers),
        })
        .with_fault(FaultPlan::none().with_schedule(schedule));
    let res = run_cfg(cfg, move |ctx| prog(ctx, algo, nonblocking));
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
    for (op, prog, has_istart) in FAMILIES {
        for (spec_name, spec) in specs() {
            for algo in applicable(op, &spec) {
                let blocking = digest(spec.clone(), prog, algo, false, leg);
                let line = format!("{algo} {spec_name} {blocking:016x}");
                if has_istart {
                    assert_eq!(
                        digest(spec.clone(), prog, algo, true, leg),
                        blocking,
                        "{line}: istart + wait must hash like dispatch"
                    );
                }
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

/// Recompute the table on `leg`; on any difference write it to the test
/// binary's temp dir (as `flat_digests.<what>.txt`) and fail, naming the
/// differing lines.
fn check(what: &str, leg: Leg) {
    let want = include_str!("fixtures/flat_digests.txt");
    let got = recompute(leg);
    if got == want {
        return;
    }
    let path = format!("{}/flat_digests.{what}.txt", env!("CARGO_TARGET_TMPDIR"));
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
