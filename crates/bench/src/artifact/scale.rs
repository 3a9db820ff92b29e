//! Executor scaling sweep, `BENCH_scale.json`: the wall-clock cost of
//! simulating the paper's hybrid allgather as the rank count grows 48 →
//! 4096 on the default-width pool (the `pooled` ladder), then 8192 →
//! 262144 on a one-worker pool with small stacks (the `events` ladder,
//! named after the executor mode it used to run on). Each point
//! records wall-clock seconds, virtual latency, its ladder (`exec`), the
//! peak OS thread count and the executor's own counters (`resumes` and
//! `node_turns` — their quotient is the mean run of same-node resumes
//! the node-affine ready queue achieved; `node_turns` is 0 where a pool
//! wider than one worker pops a flat FIFO instead — and whether the
//! stack arena was `arena_reused` from the previous point, with its
//! `arena_mapped_bytes`): the repo's wall-clock performance trajectory,
//! gated by `ci.sh perf`.
//!
//! * `--ranks N` runs only the ladder point with exactly N ranks.
//! * `--exec` restricts the sweep to one ladder: `pooled` walks the
//!   48 → 4096 ladder, `events` the 8192 → 262144 one. Without it, the
//!   sweep is the pooled ladder followed by the events ladder, into one
//!   artifact.
//! * `--budget-s SECS` fails the run when its total wall-clock exceeds
//!   the stored budget by more than 25% (see the `ci.sh` header for the
//!   bump procedure).

use std::collections::BTreeMap;
use std::time::Instant;

use collectives::barrier;
use collectives::json::Json;
use hmpi::{HyAllgather, HybridComm, SyncMethod};
use msim::{ExecMode, SimConfig, SimStats, Universe};
use simnet::ClusterSpec;

use super::{nonempty, round};
use crate::cli::{Args, Flags};
use crate::Machine;

pub const FLAGS: Flags = &[
    ("--ranks", "N"),
    ("--max-ranks", "N"),
    ("--exec", "pooled|events"),
    ("--budget-s", "SECS"),
    ("--out", "PATH"),
    ("--verify", "PATH"),
];

/// The two ladders, by their `--exec` name and artifact label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ladder {
    /// [`POOLED_LADDER`] on the default-width pool.
    Pooled,
    /// [`EVENTS_LADDER`] on one worker, the launching thread.
    Events,
}

const LADDERS: &[(&str, Ladder)] = &[("pooled", Ladder::Pooled), ("events", Ladder::Events)];

impl Ladder {
    fn label(self) -> &'static str {
        match self {
            Ladder::Pooled => "pooled",
            Ladder::Events => "events",
        }
    }

    fn points(self) -> &'static [(usize, usize)] {
        match self {
            Ladder::Pooled => POOLED_LADDER,
            Ladder::Events => EVENTS_LADDER,
        }
    }

    fn exec(self) -> ExecMode {
        match self {
            Ladder::Pooled => ExecMode::pooled(),
            Ladder::Events => ExecMode::Pooled { workers: Some(1) },
        }
    }

    /// Coroutine stacks are the dominant memory cost at scale; the
    /// allgather keeps its data in windows/heap, so small stacks suffice.
    /// The arena commits stack pages lazily, so the large-rank ladder
    /// shrinks them further to 64 KiB reserved per rank.
    fn stack_size(self) -> usize {
        match self {
            Ladder::Pooled => 256 * 1024,
            Ladder::Events => 64 * 1024,
        }
    }
}

/// The pooled ladder: the paper's 24-ppn scales (Figs 7–12 live at 24
/// processes per node) up to 128 nodes, then a 4096-rank top end.
const POOLED_LADDER: &[(usize, usize)] = &[
    (2, 24),   // 48
    (4, 24),   // 96
    (8, 24),   // 192
    (16, 24),  // 384
    (32, 24),  // 768
    (64, 24),  // 1536
    (128, 24), // 3072
    (256, 16), // 4096
];

/// The events ladder: phantom-payload runs at 64 ppn (a modern
/// dual-socket node) reaching 262144 ranks on a single driver thread.
const EVENTS_LADDER: &[(usize, usize)] = &[
    (128, 64),  // 8192
    (256, 64),  // 16384
    (1024, 64), // 65536
    (4096, 64), // 262144
];

/// Doubles per rank in the measured allgather (phantom data, so this
/// sets modeled bytes, not host memory).
const ELEMS: usize = 64;

/// Allowed overshoot over the stored wall-clock budget before the CI
/// gate fails.
const BUDGET_SLACK: f64 = 1.25;

/// Timed collective calls per point: averaged over 3 below this rank
/// count, a single call at and above it (the big points dominate the
/// sweep's wall-clock; one call keeps the full ladder inside CI budgets).
const SINGLE_ITER_RANKS: usize = 32768;

struct Point {
    nodes: usize,
    ppn: usize,
    ranks: usize,
    ladder: Ladder,
    iters: usize,
    latency_us: f64,
    wall_s: f64,
    peak_threads: usize,
    stats: SimStats,
}

/// Simulate the hybrid allgather once at `nodes`×`ppn` and measure the
/// host-side wall-clock of the whole `Universe::run`.
fn run_point(nodes: usize, ppn: usize, ladder: Ladder, machine: &Machine) -> Point {
    let spec = ClusterSpec::regular(nodes, ppn);
    let ranks = nodes * ppn;
    let iters = if ranks >= SINGLE_ITER_RANKS { 1 } else { 3 };
    let cfg = SimConfig::new(spec, machine.cost.clone())
        .phantom()
        .with_stack_size(ladder.stack_size())
        .with_recv_timeout(std::time::Duration::from_secs(300))
        .with_exec(ladder.exec());
    let tuning = machine.tuning.clone();
    let t0 = Instant::now();
    let result = Universe::run(cfg, move |ctx| {
        let world = ctx.world();
        let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), SyncMethod::Barrier);
        let ag = HyAllgather::<f64>::new(ctx, &hc, ELEMS);
        barrier::tuned(ctx, &world);
        let t = ctx.now();
        for _ in 0..iters {
            ag.execute(ctx);
        }
        (ctx.now() - t) / iters as f64
    })
    .expect("scale sweep universe must not fail");
    let wall_s = t0.elapsed().as_secs_f64();
    Point {
        nodes,
        ppn,
        ranks,
        ladder,
        iters,
        wall_s,
        peak_threads: result.peak_threads,
        stats: result.stats,
        latency_us: result.per_rank.into_iter().fold(0.0f64, f64::max),
    }
}

fn to_json(points: &[Point], total_wall_s: f64) -> Json {
    let mut root = BTreeMap::new();
    root.insert("bench".into(), Json::Str("scale".into()));
    root.insert("cluster".into(), Json::Str("hazel_hen".into()));
    root.insert("elems_per_rank".into(), Json::Num(ELEMS as f64));
    let points = points.iter().map(|p| {
        let mut m = BTreeMap::new();
        m.insert(
            "arena_mapped_bytes".into(),
            Json::Num(p.stats.arena_mapped_bytes as f64),
        );
        m.insert("arena_reused".into(), Json::Bool(p.stats.arena_reused));
        m.insert("exec".into(), Json::Str(p.ladder.label().into()));
        m.insert("iters".into(), Json::Num(p.iters as f64));
        m.insert("latency_us".into(), Json::Num(p.latency_us));
        m.insert("node_turns".into(), Json::Num(p.stats.node_turns as f64));
        m.insert("nodes".into(), Json::Num(p.nodes as f64));
        m.insert("peak_threads".into(), Json::Num(p.peak_threads as f64));
        m.insert("ppn".into(), Json::Num(p.ppn as f64));
        m.insert("ranks".into(), Json::Num(p.ranks as f64));
        m.insert("resumes".into(), Json::Num(p.stats.resumes as f64));
        m.insert("wall_s".into(), Json::Num(round(p.wall_s, 1e6)));
        Json::Obj(m)
    });
    root.insert("points".into(), Json::Arr(points.collect()));
    root.insert("total_wall_s".into(), Json::Num(round(total_wall_s, 1e6)));
    Json::Obj(root)
}

pub fn build(args: &Args) -> Result<String, String> {
    let only_ranks: Option<usize> = args.num("--ranks")?;
    let max_ranks = args.num("--max-ranks")?.unwrap_or(usize::MAX);
    let budget_s: Option<f64> = args.num("--budget-s")?;
    // The work list: (nodes, ppn, ladder). Default = pooled ladder
    // followed by the events ladder; an explicit --exec restricts to one.
    let ladders = match args.pick("--exec", LADDERS)? {
        Some(ladder) => vec![ladder],
        None => vec![Ladder::Pooled, Ladder::Events],
    };
    let mut work: Vec<(usize, usize, Ladder)> = ladders
        .into_iter()
        .flat_map(|l| l.points().iter().map(move |&(n, p)| (n, p, l)))
        .collect();
    work.retain(|&(n, p, _)| n * p <= max_ranks && only_ranks.is_none_or(|want| want == n * p));
    if work.is_empty() {
        return Err(args.error(
            "no ladder point matches --ranks/--max-ranks (pooled ladder ranks: 48, 96, 192, 384, \
             768, 1536, 3072, 4096; events ladder ranks: 8192, 16384, 65536, 262144)",
        ));
    }

    let machine = Machine::hazel_hen();
    let mut points = Vec::with_capacity(work.len());
    let t0 = Instant::now();
    for (nodes, ppn, ladder) in work {
        let p = run_point(nodes, ppn, ladder, &machine);
        let per_turn = match p.stats.node_turns {
            0 => String::new(),
            turns => format!(
                ", {:.1} resumes per node turn",
                p.stats.resumes as f64 / turns as f64
            ),
        };
        println!(
            "scale: {} ranks ({}x{}, {}): {:.3} s wall, {:.1} us virtual, {} OS thread(s){per_turn}",
            p.ranks,
            p.nodes,
            p.ppn,
            p.ladder.label(),
            p.wall_s,
            p.latency_us,
            p.peak_threads
        );
        points.push(p);
    }
    let total_wall_s = t0.elapsed().as_secs_f64();
    println!(
        "scale: {} point(s), {total_wall_s:.3} s total wall",
        points.len()
    );
    if let Some(budget) = budget_s {
        let limit = budget * BUDGET_SLACK;
        if total_wall_s > limit {
            return Err(format!(
                "PERF GATE FAILED: {total_wall_s:.3} s wall exceeds {limit:.3} s (stored budget \
                 {budget:.3} s + 25% slack). If this slowdown is expected, bump the budget in \
                 ci.sh (see its header for the procedure)."
            ));
        }
        println!("scale: perf gate OK ({total_wall_s:.3} s <= {limit:.3} s limit)");
    }
    Ok(to_json(&points, total_wall_s).pretty())
}

/// Every point must carry a ladder label and the executor's counters.
pub fn check(doc: &Json) -> Result<String, String> {
    let points = nonempty(doc, "points")?;
    for (i, p) in points.iter().enumerate() {
        let exec = p.get("exec").and_then(|e| e.as_str());
        if !LADDERS.iter().any(|(label, _)| exec == Some(*label)) {
            return Err(format!("point {i} has no recognized \"exec\" label"));
        }
        for counter in ["resumes", "node_turns", "arena_mapped_bytes"] {
            if p.get(counter).and_then(|c| c.as_usize()).is_none() {
                return Err(format!("point {i} lacks the \"{counter}\" counter"));
            }
        }
    }
    Ok(format!("{} points", points.len()))
}
