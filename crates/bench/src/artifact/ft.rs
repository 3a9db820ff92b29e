//! Recovery-latency micro-benchmark, `BENCH_ft.json`: the virtual-time
//! cost of a ULFM-style leader failover (detect → agree → shrink →
//! rebuild → re-run) inside the fault-tolerant hybrid allgather, across
//! cluster sizes — the failure-free baseline, the failover makespan and
//! the recovery overhead per point — plus the elastic `grow_points`
//! ladder comparing shrink-only recovery against shrink+grow (a spare is
//! recruited back) and shrink+grow+rebalance (multi-leader layout
//! recomputed on the regrown world).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use collectives::json::Json;
use collectives::FaultPolicy;
use hmpi::{FtComm, Leaders, SyncMethod};
use msim::{Ctx, FaultPlan, SimConfig, Universe};
use simnet::ClusterSpec;

use super::{nonempty, round};
use crate::cli::Args;
use crate::Machine;

/// (nodes, ppn): small-to-mid scales — a recovery is dominated by the
/// re-setup of the hierarchy, so modest sizes already show the shape.
const LADDER: &[(usize, usize)] = &[(2, 4), (2, 8), (4, 8), (4, 16)];

/// Doubles per rank in the measured allgather.
const ELEMS: usize = 64;

struct Point {
    nodes: usize,
    ppn: usize,
    ranks: usize,
    baseline_us: f64,
    failover_us: f64,
    wall_s: f64,
}

/// Two protected allgather rounds; under the failover plan the node-0
/// leader (global rank 0) dies mid-round and the survivors recover.
fn body(ctx: &mut Ctx, machine: &Machine, fault: FaultPolicy) -> f64 {
    let world = ctx.world();
    let mut ft = FtComm::new(&world, machine.tuning.clone(), SyncMethod::Barrier).with_fault(fault);
    let mine = vec![0.0f64; ELEMS];
    let t = ctx.now();
    for _ in 0..2 {
        ft.allgather(ctx, &mine);
    }
    ctx.now() - t
}

fn run_point(nodes: usize, ppn: usize, machine: &Machine) -> Point {
    let ranks = nodes * ppn;
    let cfg = || {
        SimConfig::new(ClusterSpec::regular(nodes, ppn), machine.cost.clone())
            .phantom()
            .with_recv_timeout(Duration::from_secs(60))
    };
    let m = machine.clone();
    let baseline = Universe::run(cfg(), move |ctx| body(ctx, &m, FaultPolicy::Abort))
        .expect("baseline run must not fail")
        .per_rank
        .into_iter()
        .fold(0.0f64, f64::max);

    let m = machine.clone();
    let t0 = Instant::now();
    let failover = Universe::run_ft(
        cfg().with_fault(FaultPlan::none().with_kill(0, 1)),
        move |ctx| body(ctx, &m, FaultPolicy::Shrink),
    )
    .expect("failover run must recover");
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(failover.failed, vec![0], "the leader kill must land");
    let failover_us = failover
        .per_rank
        .into_iter()
        .flatten()
        .fold(0.0f64, f64::max);
    Point {
        nodes,
        ppn,
        ranks,
        baseline_us: baseline,
        failover_us,
        wall_s,
    }
}

struct GrowPoint {
    nodes: usize,
    ppn: usize,
    ranks: usize,
    shrink_us: f64,
    grow_us: f64,
    grow_rebalance_us: f64,
    wall_s: f64,
}

/// One elastic recovery run: `rounds` protected allgather rounds under
/// `run_elastic`, rank 1 killed in round 0. Returns the makespan (max
/// per-rank virtual span) and asserts the recruit really joined when a
/// spare was available.
fn elastic_makespan(
    spec: ClusterSpec,
    machine: &Machine,
    spares: Vec<usize>,
    leaders: Leaders,
) -> f64 {
    let cfg = SimConfig::new(spec, machine.cost.clone())
        .phantom()
        .with_recv_timeout(Duration::from_secs(60));
    let m = machine.clone();
    let want_grow = !spares.is_empty();
    let recruit = spares.first().copied();
    let r = Universe::run_ft(
        cfg.with_fault(FaultPlan::none().with_kill(1, 5)),
        move |ctx| {
            let world = ctx.world();
            let t = ctx.now();
            let rounds = FtComm::run_elastic(
                ctx,
                &world,
                &spares,
                m.tuning.clone(),
                SyncMethod::Barrier,
                FaultPolicy::Shrink,
                leaders,
                2,
                |ctx, ft, _round| {
                    let mine = vec![0.0f64; ELEMS];
                    ft.allgather(ctx, &mine);
                },
            );
            let joined = rounds.iter().filter(|r| r.is_some()).count();
            (ctx.now() - t, joined)
        },
    )
    .expect("elastic run must recover");
    assert_eq!(r.failed, vec![1], "the kill must land in round 0");
    if want_grow {
        let (_, joined) = r.per_rank[recruit.unwrap()].expect("spare must finish standby");
        assert_eq!(
            joined, 1,
            "the recruit must serve exactly the post-grow round"
        );
    }
    r.per_rank
        .into_iter()
        .flatten()
        .map(|(span, _)| span)
        .fold(0.0f64, f64::max)
}

/// Shrink-only vs shrink+grow vs shrink+grow+rebalance on one scale.
///
/// The grow variants run on a layout with one extra core on the last
/// node held back as the spare, so all three variants start the rounds
/// with the same `nodes * ppn` active ranks.
fn run_grow_point(nodes: usize, ppn: usize, machine: &Machine) -> GrowPoint {
    let ranks = nodes * ppn;
    let plain = ClusterSpec::regular(nodes, ppn);
    let mut cores = vec![ppn; nodes];
    cores[nodes - 1] += 1; // the parked spare
    let spare = ClusterSpec::irregular(cores);

    let t0 = Instant::now();
    let shrink_us = elastic_makespan(plain, machine, Vec::new(), Leaders::Fixed(1));
    let grow_us = elastic_makespan(spare.clone(), machine, vec![ranks], Leaders::Fixed(1));
    let grow_rebalance_us = elastic_makespan(spare, machine, vec![ranks], Leaders::Fixed(2));
    GrowPoint {
        nodes,
        ppn,
        ranks,
        shrink_us,
        grow_us,
        grow_rebalance_us,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn to_json(points: &[Point], grow: &[GrowPoint], total_wall_s: f64) -> Json {
    let us = |v: f64| Json::Num(round(v, 1e3));
    let wall = |s: f64| Json::Num(round(s, 1e6));
    let mut root = BTreeMap::new();
    root.insert("bench".into(), Json::Str("ft".into()));
    root.insert("cluster".into(), Json::Str("hazel_hen".into()));
    root.insert("elems_per_rank".into(), Json::Num(ELEMS as f64));
    let points = points.iter().map(|p| {
        let mut m = BTreeMap::new();
        m.insert("baseline_us".into(), us(p.baseline_us));
        m.insert("failover_us".into(), us(p.failover_us));
        m.insert("nodes".into(), Json::Num(p.nodes as f64));
        m.insert("ppn".into(), Json::Num(p.ppn as f64));
        m.insert("ranks".into(), Json::Num(p.ranks as f64));
        m.insert(
            "recovery_overhead_us".into(),
            us(p.failover_us - p.baseline_us),
        );
        m.insert("wall_s".into(), wall(p.wall_s));
        Json::Obj(m)
    });
    root.insert("points".into(), Json::Arr(points.collect()));
    let grow = grow.iter().map(|p| {
        let mut m = BTreeMap::new();
        m.insert("grow_overhead_us".into(), us(p.grow_us - p.shrink_us));
        m.insert("grow_rebalance_us".into(), us(p.grow_rebalance_us));
        m.insert("grow_us".into(), us(p.grow_us));
        m.insert("nodes".into(), Json::Num(p.nodes as f64));
        m.insert("ppn".into(), Json::Num(p.ppn as f64));
        m.insert("ranks".into(), Json::Num(p.ranks as f64));
        m.insert(
            "rebalance_overhead_us".into(),
            us(p.grow_rebalance_us - p.grow_us),
        );
        m.insert("shrink_us".into(), us(p.shrink_us));
        m.insert("wall_s".into(), wall(p.wall_s));
        Json::Obj(m)
    });
    root.insert("grow_points".into(), Json::Arr(grow.collect()));
    root.insert("total_wall_s".into(), wall(total_wall_s));
    Json::Obj(root)
}

pub fn build(_: &Args) -> Result<String, String> {
    let machine = Machine::hazel_hen();
    let mut points = Vec::with_capacity(LADDER.len());
    let t0 = Instant::now();
    for &(nodes, ppn) in LADDER {
        let p = run_point(nodes, ppn, &machine);
        println!(
            "ft: {} ranks ({}x{}): baseline {:.1} us, failover {:.1} us \
             (+{:.1} us recovery), {:.3} s wall",
            p.ranks,
            p.nodes,
            p.ppn,
            p.baseline_us,
            p.failover_us,
            p.failover_us - p.baseline_us,
            p.wall_s
        );
        points.push(p);
    }
    let mut grow = Vec::with_capacity(LADDER.len());
    for &(nodes, ppn) in LADDER {
        let p = run_grow_point(nodes, ppn, &machine);
        println!(
            "ft: {} ranks ({}x{}) elastic: shrink {:.1} us, +grow {:.1} us, \
             +rebalance(k=2) {:.1} us, {:.3} s wall",
            p.ranks, p.nodes, p.ppn, p.shrink_us, p.grow_us, p.grow_rebalance_us, p.wall_s
        );
        grow.push(p);
    }
    let total_wall_s = t0.elapsed().as_secs_f64();
    println!(
        "ft: {} point(s), {total_wall_s:.3} s total wall",
        points.len()
    );
    Ok(to_json(&points, &grow, total_wall_s).pretty())
}

/// Both ladders must be present.
pub fn check(doc: &Json) -> Result<String, String> {
    let points = nonempty(doc, "points")?.len();
    let grow = nonempty(doc, "grow_points")?.len();
    Ok(format!("{points} points, {grow} grow points"))
}
