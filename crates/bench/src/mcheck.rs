//! `bench mcheck` — exhaustive schedule exploration of the shipped
//! collectives.
//!
//! Drives every requested `Hy*` family through `msim::explore` (DPOR
//! with sleep sets) at a small configuration, with real data and the
//! race detector armed, and reports per-cell statistics: schedules
//! explored, branches pruned, decision points, max depth. Any violation
//! prints its shrunk replayable certificate (canonical JSON) and the
//! command fails.
//!
//! ```bash
//! cargo run --release -p bench -- mcheck --family all
//! cargo run --release -p bench -- mcheck --family allgather --sync flags
//! cargo run --release -p bench -- mcheck --family bcast --compare
//! ```
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--family F` | `all` | `allgather`, `allgatherv`, `bcast`, `allreduce`, `alltoall`, `gather`, `scatter`, `kleader`, `all` |
//! | `--sync S` | all three | `barrier`, `flags`, `p2p` |
//! | `--nodes N` / `--ppn P` | 2 / 2 | cluster layout |
//! | `--k K` | 2 | leaders per node for `kleader` |
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
const FAMILIES: [&str; 8] = [
    "allgather",
    "allgatherv",
    "bcast",
    "allreduce",
    "alltoall",
    "gather",
    "scatter",
    "kleader",
];

fn run_family(
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

fn collective(ctx: &mut Ctx, family: &str, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
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
    let all_syncs = [
        ("barrier", SyncMethod::Barrier),
        ("flags", SyncMethod::SharedFlags),
        ("p2p", SyncMethod::P2p),
    ];
    let syncs: Vec<SyncMethod> = match args.pick("--sync", &all_syncs)? {
        Some(s) => vec![s],
        None => all_syncs.map(|(_, s)| s).to_vec(),
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

    let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_millis(500))
        .with_race_detect(true);

    println!(
        "mcheck: {nodes}x{ppn} cluster, k={k}, max {max_schedules} schedules/cell{}",
        preempt.map_or(String::new(), |b| format!(", preemption bound {b}"))
    );

    let mut violations = 0u32;
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
            if let Some(cert) = report.certificate {
                violations += 1;
                eprintln!("  VIOLATION in {f}/{sync:?} — replayable certificate:");
                eprintln!("{}", cert.to_json());
            }
        }
    }

    println!(
        "mcheck: {} cell(s), {total_schedules} schedule(s) explored, {total_pruned} redundant \
         branch(es) pruned, {violations} violation(s)",
        families.len() * syncs.len()
    );
    match violations {
        0 => Ok(()),
        n => Err(format!("{n} violation(s)")),
    }
}
