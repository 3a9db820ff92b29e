//! `bench mcheck` — exhaustive schedule exploration of the shipped
//! collectives, and the workspace's one table of model-check programs.
//!
//! Drives every requested `Hy*` family through `msim::explore` (DPOR
//! with sleep sets) at a small configuration, with real data and the
//! race detector armed, and reports per-cell statistics: schedules
//! explored, branches pruned, decision points, max depth. A cell fails
//! on a violation (its shrunk replayable certificate is printed as
//! canonical JSON) and, when it runs plain DPOR (no `--naive`, no
//! `--preempt`), on a search that is capped or explores more than one
//! schedule: the collectives are fully synchronized, so exactly one
//! schedule is the determinism contract of `docs/model-checking.md`.
//! The command fails if any cell does; `tests/mcheck.rs` runs every
//! family × sync through [`run_family`] and [`verdict`].
//!
//! ```bash
//! cargo run --release -p bench -- mcheck --family all
//! cargo run --release -p bench -- mcheck --family allgather --sync flags
//! cargo run --release -p bench -- mcheck --family bcast --compare
//! ```
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--family F` | `all` | `allgather`, `allgatherv`, `bcast`, `allreduce`, `alltoall`, `gather`, `scatter`, `kleader` (allgather), `kallreduce`, `all` |
//! | `--sync S` | all three | `barrier`, `flags`, `p2p` |
//! | `--nodes N` / `--ppn P` | 2 / 2 | cluster layout |
//! | `--k K` | 2 | leaders per node for `kleader` and `kallreduce` |
//! | `--naive` | off | disable DPOR + sleep sets (full enumeration) |
//! | `--compare` | off | run DPOR and naive side by side, report the pruning ratio |
//! | `--max N` | 50000 | schedule budget per cell |
//! | `--preempt B` | unbounded | preemption bound |
//! | `--quick` | off | one family, one sync (CI smoke) |

use std::time::Duration;

use collectives::{op::Sum, Tuning};
use hmpi::{
    HyAllgather, HyAllgatherv, HyAllreduce, HyAlltoall, HyBcast, HyGather, HyScatter, HybridComm,
    SyncMethod,
};
use msim::{explore, Ctx, ExploreOpts, ExploreReport, SimConfig};
use simnet::{ClusterSpec, CostModel};

use crate::cli::{Args, Flags};

pub const FLAGS: Flags = &[
    ("--family", "F"),
    ("--sync", "barrier|flags|p2p"),
    ("--nodes", "N"),
    ("--ppn", "P"),
    ("--k", "K"),
    ("--naive", ""),
    ("--compare", ""),
    ("--max", "N"),
    ("--preempt", "B"),
    ("--quick", ""),
];

const COUNT: usize = 3;
const ROOT: usize = 1;

/// Every family `--family all` explores.
pub const FAMILIES: [&str; 9] = [
    "allgather",
    "allgatherv",
    "bcast",
    "allreduce",
    "alltoall",
    "gather",
    "scatter",
    "kleader",
    "kallreduce",
];

/// The three on-node synchronization methods, by their `--sync` name.
pub const SYNCS: [(&str, SyncMethod); 3] = [
    ("barrier", SyncMethod::Barrier),
    ("flags", SyncMethod::SharedFlags),
    ("p2p", SyncMethod::P2p),
];

/// The configuration every cell explores: `nodes` × `ppn` ranks, real
/// data, the race detector armed.
pub fn config(nodes: usize, ppn: usize) -> SimConfig {
    SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_millis(500))
        .with_race_detect(true)
}

/// Explore every schedule of `family` under `sync` (`k` leaders per node
/// for the multi-leader families).
pub fn run_family(
    family: &str,
    sync: SyncMethod,
    cfg: &SimConfig,
    k: usize,
    opts: &ExploreOpts,
) -> ExploreReport {
    let family = family.to_string();
    explore(cfg, &format!("{family}/{sync:?}"), opts, move |ctx| {
        collective(ctx, &family, sync, k)
    })
}

/// Whether a cell passes: no violation and, for a plain DPOR search (no
/// `naive`, no preemption bound), exactly one schedule, not capped.
pub fn verdict(report: &ExploreReport, opts: &ExploreOpts) -> Result<(), String> {
    if let Some(cert) = &report.certificate {
        return Err(format!(
            "violation, replayable certificate:\n{}",
            cert.to_json()
        ));
    }
    let s = &report.stats;
    let dpor = !opts.naive && opts.preemption_bound.is_none();
    if dpor && (s.capped || s.schedules != 1) {
        let capped = if s.capped { ", capped" } else { "" };
        return Err(format!(
            "{} schedules{capped}; DPOR must prove exactly one",
            s.schedules
        ));
    }
    Ok(())
}

fn collective(ctx: &mut Ctx, family: &str, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let tuning = match family {
        "allgatherv" => Tuning::open_mpi(),
        _ => Tuning::cray_mpich(),
    };
    let hc = HybridComm::with_sync(ctx, &world, tuning, sync);
    match family {
        "allgather" => {
            let ag = HyAllgather::<f64>::new(ctx, &hc, COUNT);
            let data: Vec<f64> = (0..COUNT).map(|i| (ctx.rank() * 10 + i) as f64).collect();
            ag.write_my_block(ctx, &data);
            ag.execute(ctx);
            (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
        }
        "allgatherv" => {
            let counts: Vec<usize> = (0..world.size()).map(|r| 1 + r % 3).collect();
            let ag = HyAllgatherv::<f64>::new(ctx, &hc, &counts);
            ag.execute(ctx);
            (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
        }
        "bcast" => {
            let bc = HyBcast::<f64>::new(ctx, &hc, COUNT);
            bc.execute(ctx, ROOT);
            bc.read_message()
        }
        "allreduce" => {
            let ar = HyAllreduce::<f64>::new(ctx, &hc, COUNT);
            let contribution = ctx.buf_zeroed::<f64>(COUNT);
            ar.execute(ctx, &contribution, Sum);
            ar.read_result()
        }
        "alltoall" => {
            let a2a = HyAlltoall::<f64>::new(ctx, &hc, COUNT);
            a2a.execute(ctx);
            (0..world.size())
                .flat_map(|src| a2a.read_block(src))
                .collect()
        }
        "gather" => {
            let g = HyGather::<f64>::new(ctx, &hc, COUNT, ROOT);
            let data: Vec<f64> = (0..COUNT).map(|i| (ctx.rank() * 10 + i) as f64).collect();
            g.write_my_block(ctx, &data);
            g.execute(ctx);
            if ctx.rank() == ROOT {
                (0..world.size()).flat_map(|r| g.read_block(r)).collect()
            } else {
                Vec::new()
            }
        }
        "scatter" => {
            let s = HyScatter::<f64>::new(ctx, &hc, COUNT, ROOT);
            ctx.oob_fence(&world);
            if ctx.rank() == ROOT {
                for dest in 0..world.size() {
                    let data: Vec<f64> = (0..COUNT).map(|i| (dest * 10 + i) as f64).collect();
                    s.write_block(ctx, dest, &data);
                }
            }
            s.execute(ctx);
            s.read_my_block()
        }
        "kleader" => {
            let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, k);
            ag.execute(ctx);
            (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
        }
        "kallreduce" => {
            let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, k);
            let contribution = ctx.buf_zeroed::<f64>(COUNT);
            ar.execute(ctx, &contribution, Sum);
            ar.read_result()
        }
        other => panic!("unknown family {other:?}"),
    }
}

/// `bench mcheck`: explore every requested (family, sync) cell.
pub fn run(args: &Args) -> Result<(), String> {
    let families: Vec<&str> = match args.value("--family") {
        None | Some("all") => FAMILIES.to_vec(),
        Some(f) => match FAMILIES.iter().find(|known| **known == f) {
            Some(known) => vec![*known],
            None => return Err(args.error(&format!("unknown family {f:?}"))),
        },
    };
    let syncs: Vec<SyncMethod> = match args.pick("--sync", &SYNCS)? {
        Some(s) => vec![s],
        None => SYNCS.map(|(_, s)| s).to_vec(),
    };
    let nodes = args.positive("--nodes")?.unwrap_or(2);
    let ppn = args.positive("--ppn")?.unwrap_or(2);
    let k = args.positive("--k")?.unwrap_or(2);
    let naive = args.has("--naive");
    let compare = args.has("--compare");
    let max_schedules = args.positive("--max")?.unwrap_or(50_000) as u64;
    let preempt: Option<u32> = args.num("--preempt")?;
    let (families, syncs) = if args.has("--quick") {
        (vec![families[0]], vec![syncs[0]])
    } else {
        (families, syncs)
    };

    let cfg = config(nodes, ppn);

    println!(
        "mcheck: {nodes}x{ppn} cluster, k={k}, max {max_schedules} schedules/cell{}",
        preempt.map_or(String::new(), |b| format!(", preemption bound {b}"))
    );

    let mut failed = 0u32;
    let mut total_schedules = 0u64;
    let mut total_pruned = 0u64;
    for f in &families {
        for &sync in &syncs {
            let opts = ExploreOpts {
                max_schedules,
                preemption_bound: preempt,
                naive,
            };
            let report = run_family(f, sync, &cfg, k, &opts);
            let s = &report.stats;
            let capped = if s.capped { " CAPPED" } else { "" };
            print!(
                "  {f:>10}/{sync:?}: {} schedule(s), {} decision points, depth {}, \
                 {} pruned, {} sleep-set skips{capped}",
                s.schedules, s.decision_points, s.max_depth, s.pruned_branches, s.sleep_skips
            );
            total_schedules += s.schedules;
            total_pruned += s.pruned_branches;
            if compare {
                let nopts = ExploreOpts {
                    naive: true,
                    ..opts
                };
                let nrep = run_family(f, sync, &cfg, k, &nopts);
                let ns = nrep.stats.schedules.max(1);
                let ds = s.schedules.max(1);
                print!(
                    " | naive {}{} ({}x pruning)",
                    nrep.stats.schedules,
                    if nrep.stats.capped { "+ (capped)" } else { "" },
                    ns / ds
                );
            }
            println!();
            if let Err(why) = verdict(&report, &opts) {
                failed += 1;
                eprintln!("  FAILED {f}/{sync:?}: {why}");
            }
        }
    }

    println!(
        "mcheck: {} cell(s), {total_schedules} schedule(s) explored, {total_pruned} redundant \
         branch(es) pruned, {failed} failing cell(s)",
        families.len() * syncs.len()
    );
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} failing cell(s)")),
    }
}
