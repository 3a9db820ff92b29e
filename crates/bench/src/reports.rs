//! The committed `results/*.txt` tables — the paper's §5 figures 7–12,
//! the §6 ablations and the extensions — one [`Report`] each, the
//! `results` command that rewrites or checks them all, and the `sweep`
//! tool that renders the same kind of table for any parameters.
//!
//! Every report runs in phantom data mode and prints only virtual times
//! and schedule-independent counts, so a fresh render reproduces its
//! committed file byte for byte.

use std::fs;
use std::path::{Path, PathBuf};

use bpmf::{hy_bpmf, ori_bpmf, BpmfConfig, Dataset, SyntheticSpec};
use cg::{hy_cg, ori_cg, CgSpec};
use collectives::{allreduce, alltoall, barrier, op::Sum, smp_aware::SmpAware};
use collectives::{SelectionPolicy, Tuning};
use hmpi::{HyAllgather, HyAllreduce, HyAlltoall, HybridComm, SyncMethod};
use msim::{Ctx, ExecMode, Payload, SimConfig, Universe};
use simnet::analysis::{node_traffic_matrix, TrafficStats};
use simnet::{ClusterSpec, EventKind, Placement};
use stencil::{hy_jacobi, ori_jacobi, StencilSpec};
use summa::{hy_summa, ori_summa, SummaReport, SummaSpec};

use crate::cli::{Args, Flags};
use crate::table::{ratio, render_table, us};
use crate::{allgather_latency, cluster_for, AllgatherVariant, Machine};

/// One committed results table.
#[derive(Clone, Copy)]
pub struct Report {
    /// The file stem under `results/`, and the subcommand that prints it.
    pub name: &'static str,
    /// Render the whole file.
    pub render: fn() -> String,
}

/// The reports rendered by the functions of the same names.
macro_rules! reports {
    ($($name:ident),* $(,)?) => {
        &[$(Report { name: stringify!($name), render: $name }),*]
    };
}

/// Every report, one per `results/<name>.txt`.
pub const REPORTS: &[Report] = reports![
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    ablation_sync,
    ablation_placement,
    ablation_multileader,
    ablation_pipeline,
    ablation_topology,
    ext_alltoall,
    ext_allreduce,
    ext_stencil,
    osu_p2p,
    trace_report,
];

/// `bench results`: rewrite every `results/<name>.txt` (run from the
/// repository root); with `--check`, compare instead and name every
/// file that differs.
pub fn results(args: &Args) -> Result<(), String> {
    let dir = Path::new("results");
    if args.has("--check") {
        let stale = stale(dir, REPORTS);
        for path in &stale {
            eprintln!("results: {} differs from a fresh render", path.display());
        }
        if !stale.is_empty() {
            return Err(format!(
                "{} of {} results files are stale (rewrite them with `bench results`)",
                stale.len(),
                REPORTS.len()
            ));
        }
        println!("results: all {} files match a fresh render", REPORTS.len());
        return Ok(());
    }
    for (report, text) in REPORTS.iter().zip(render_all(REPORTS)) {
        let path = dir.join(format!("{}.txt", report.name));
        fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("results: rewrote {} files", REPORTS.len());
    Ok(())
}

/// Render `reports` concurrently, one scoped thread each; the texts in
/// the order of `reports`.
pub fn render_all(reports: &[Report]) -> Vec<String> {
    std::thread::scope(|s| {
        let running: Vec<_> = reports.iter().map(|r| s.spawn(r.render)).collect();
        let joined = running.into_iter().map(|t| t.join());
        joined
            .map(|text| text.expect("a report panicked"))
            .collect()
    })
}

/// The files `dir/<name>.txt` that differ from a fresh render of their
/// report; a missing file differs too.
pub fn stale(dir: &Path, reports: &[Report]) -> Vec<PathBuf> {
    let fresh = reports.iter().zip(render_all(reports));
    let paths = fresh.map(|(r, text)| (dir.join(format!("{}.txt", r.name)), text));
    paths
        .filter(|(path, text)| fs::read(path).ok().as_deref() != Some(text.as_bytes()))
        .map(|(path, _)| path)
        .collect()
}

/// `2^p` for each `p`.
fn pows(ps: impl IntoIterator<Item = usize>) -> impl Iterator<Item = usize> {
    ps.into_iter().map(|p| 1usize << p)
}

/// The allgather latency (µs) of `v` at one grid point.
fn latency(
    spec: &ClusterSpec,
    m: &Machine,
    elems: usize,
    v: AllgatherVariant,
    p: &Placement,
) -> f64 {
    allgather_latency(spec.clone(), m, elems, v, p.clone(), ExecMode::default())
}

/// Push the hybrid and the pure SMP-aware allgather latency (µs) at one
/// grid point onto `row`, and return them: the comparison behind Figs.
/// 7–10 and the topology ablation.
fn hy_vs_pure(row: &mut Vec<String>, spec: &ClusterSpec, m: &Machine, elems: usize) -> (f64, f64) {
    let smp = Placement::SmpBlock;
    let hy = latency(spec, m, elems, AllgatherVariant::Hybrid, &smp);
    let pure = latency(spec, m, elems, AllgatherVariant::PureSmpAware, &smp);
    row.extend([us(hy), us(pure)]);
    (hy, pure)
}

/// Hy vs pure for both MPI flavors, one row per `(label, cluster, elems)`.
fn both_flavors(
    title: &str,
    key: &str,
    grid: impl Iterator<Item = (usize, ClusterSpec, usize)>,
) -> String {
    let machines = Machine::both();
    let rows: Vec<Vec<String>> = grid
        .map(|(label, spec, elems)| {
            let mut row = vec![label.to_string()];
            for m in &machines {
                hy_vs_pure(&mut row, &spec, m, elems);
            }
            row
        })
        .collect();
    let headers = [
        key,
        "Hy+OpenMPI",
        "All+OpenMPI",
        "Hy+CrayMPI",
        "All+CrayMPI",
    ];
    render_table(title, &headers, &rows)
}

/// One row per `elems`: the allgather latency of every variant, under
/// each placement in turn.
fn variant_rows(
    spec: &ClusterSpec,
    m: &Machine,
    elems: impl Iterator<Item = usize>,
    placements: &[Placement],
    variants: &[AllgatherVariant],
) -> Vec<Vec<String>> {
    let rows = elems.map(|elems| {
        let mut row = vec![elems.to_string()];
        for placement in placements {
            for &v in variants {
                row.push(us(latency(spec, m, elems, v, placement)));
            }
        }
        row
    });
    rows.collect()
}

/// Run `body` on every rank of a phantom universe on `spec` under `m`'s
/// cost model; the slowest rank's value.
fn slowest_rank(
    spec: ClusterSpec,
    m: &Machine,
    body: impl Fn(&mut Ctx) -> f64 + Send + Sync,
) -> f64 {
    let cfg = SimConfig::new(spec, m.cost.clone()).phantom();
    let r = Universe::run(cfg, body).expect("report universe must not fail");
    r.per_rank.into_iter().fold(0.0f64, f64::max)
}

/// Virtual µs per call of `op`, averaged over three calls after a
/// warm-up barrier (the OSU convention).
fn per_call<R>(ctx: &mut Ctx, mut op: impl FnMut(&mut Ctx) -> R) -> f64 {
    let world = ctx.world();
    barrier::tuned(ctx, &world);
    let t0 = ctx.now();
    for _ in 0..3 {
        op(ctx);
    }
    (ctx.now() - t0) / 3.0
}

/// Figure 7: Hy_Allgather vs Allgather within one full node (24
/// processes). The hybrid is flat in message size (one barrier) and
/// always below the pure-MPI Allgather.
fn fig7() -> String {
    let grid = pows(0..=15).map(|e| (e, ClusterSpec::single_node(24), e));
    both_flavors(
        "Fig. 7 — Allgather within one full node (24 ppn), time in µs",
        "elems",
        grid,
    )
}

/// Figure 8: one process per node across 4, 16 and 64 nodes — the
/// hybrid's worst case (Allgatherv vs Allgather on the bridge), slightly
/// worse than pure, the gap shrinking at 64 nodes and at large sizes.
fn fig8() -> String {
    let mut out = String::new();
    for m in Machine::both() {
        let rows: Vec<Vec<String>> = pows(0..=15)
            .map(|elems| {
                let mut row = vec![elems.to_string()];
                for nodes in [4, 16, 64] {
                    hy_vs_pure(&mut row, &ClusterSpec::regular(nodes, 1), &m, elems);
                }
                row
            })
            .collect();
        let title = format!(
            "Fig. 8 ({}) — Allgather, 1 process/node, time in µs",
            m.name
        );
        let headers = [
            "elems", "Hy_4", "All_4", "Hy_16", "All_16", "Hy_64", "All_64",
        ];
        out += &render_table(&title, &headers, &rows);
    }
    out
}

/// Figure 9: 64 nodes, 3..24 processes per node, 512 (a) and 16384 (b)
/// doubles; the hybrid advantage grows with processes per node.
fn fig9() -> String {
    let mut out = String::new();
    for elems in [512, 16384] {
        let grid = (3..=24)
            .step_by(3)
            .map(|ppn| (ppn, ClusterSpec::regular(64, ppn), elems));
        let title = format!("Fig. 9 — Allgather across 64 nodes, {elems} doubles, time in µs");
        out += &both_flavors(&title, "ppn", grid);
    }
    out
}

/// Figure 10: irregularly populated nodes (42 x 24 + 1 x 16 = 1024
/// ranks); the hybrid keeps a constant advantage.
fn fig10() -> String {
    let grid = pows(0..=15).map(|e| (e, ClusterSpec::fig10_irregular(), e));
    let title = "Fig. 10 — Allgather on irregular nodes (42x24 + 1x16 = 1024 cores), time in µs";
    both_flavors(title, "elems", grid)
}

/// Figure 11: Ori_SUMMA vs Hy_SUMMA for per-core blocks of 8², 64², 128²
/// and 256² as the core count grows. The ratio is above 1 everywhere,
/// up to ~5x for 8x8 blocks on one node, shrinking as compute dominates.
fn fig11() -> String {
    let m = Machine::hazel_hen(); // the paper runs SUMMA on Hazel Hen
    let mut out = String::new();
    for block in [8, 64, 128, 256] {
        let rows: Vec<Vec<String>> = [2, 4, 6, 8, 12, 16, 23, 32]
            .into_iter()
            .map(|q| {
                let spec = SummaSpec {
                    q,
                    block,
                    tuning: m.tuning.clone(),
                };
                let time = |kernel: fn(&mut Ctx, &SummaSpec) -> SummaReport| {
                    slowest_rank(cluster_for(q * q), &m, |ctx| kernel(ctx, &spec).elapsed_us)
                };
                let (ori, hy) = (time(ori_summa), time(hy_summa));
                vec![(q * q).to_string(), us(ori), us(hy), ratio(ori, hy)]
            })
            .collect();
        let title =
            format!("Fig. 11 — SUMMA, per-core block {block}x{block} (Cray MPI), time in µs");
        out += &render_table(&title, &["cores", "Ori_SUMMA", "Hy_SUMMA", "ratio"], &rows);
    }
    out
}

/// Figure 12: Ori_BPMF vs Hy_BPMF total time over 20 Gibbs iterations on
/// the chembl_20-like dataset; the ratio stays above 1 and rises slowly
/// with the core count.
fn fig12() -> String {
    let m = Machine::hazel_hen(); // the paper runs BPMF on Hazel Hen
    let data = Dataset::synthesize(&SyntheticSpec::chembl20_like(20));
    let cfg = BpmfConfig::paper(7, m.tuning.clone());
    let rows: Vec<Vec<String>> = [24, 120, 240, 360, 480, 1024]
        .into_iter()
        .map(|cores| {
            let ori = slowest_rank(cluster_for(cores), &m, |ctx| {
                ori_bpmf(ctx, &data, &cfg).elapsed_us
            });
            let hy = slowest_rank(cluster_for(cores), &m, |ctx| {
                hy_bpmf(ctx, &data, &cfg).elapsed_us
            });
            vec![cores.to_string(), us(ori), us(hy), ratio(ori, hy)]
        })
        .collect();
    render_table(
        "Fig. 12 — BPMF TotalTime of 20 Gibbs iterations (chembl_20-like, Cray MPI), µs",
        &["cores", "Ori_BPMF-TT", "Hy_BPMF-TT", "ratio"],
        &rows,
    )
}

/// §6 ablation: the hybrid allgather's on-node synchronization — full
/// `MPI_Barrier` (the paper's default), shared-cache flags, p2p pairs.
fn ablation_sync() -> String {
    let syncs = [
        SyncMethod::Barrier,
        SyncMethod::SharedFlags,
        SyncMethod::P2p,
    ];
    let variants = syncs.map(AllgatherVariant::HybridSync);
    let (spec, m) = (ClusterSpec::regular(64, 24), Machine::hazel_hen());
    let rows = variant_rows(
        &spec,
        &m,
        pows([0, 4, 8, 12, 14]),
        &[Placement::SmpBlock],
        &variants,
    );
    render_table(
        "Ablation (paper §6) — Hy_Allgather sync flavor, 64 nodes x 24 ppn (Cray MPI), µs",
        &["elems", "Barrier", "SharedFlags", "P2P"],
        &rows,
    )
}

/// §6 ablation: SMP-style block vs round-robin rank placement. The
/// hybrid indexes its window through the node-sorted rank array; the
/// pure baseline has to permute its node-sorted result into rank order.
fn ablation_placement() -> String {
    let placements = [Placement::SmpBlock, Placement::RoundRobin];
    let variants = [AllgatherVariant::Hybrid, AllgatherVariant::PureSmpAware];
    let (spec, m) = (ClusterSpec::regular(16, 24), Machine::hazel_hen());
    let rows = variant_rows(&spec, &m, pows([0, 4, 8, 12, 14]), &placements, &variants);
    render_table(
        "Ablation (paper §6) — rank placement, 16 nodes x 24 ppn (Cray MPI), µs",
        &["elems", "Hy/SMP", "Pure/SMP", "Hy/RR", "Pure/RR"],
        &rows,
    )
}

/// Related-work ablation (paper reference [14]): the multi-leader
/// SMP-aware allgather against the hybrid.
fn ablation_multileader() -> String {
    let leaders = [1, 2, 4].map(|leaders| AllgatherVariant::MultiLeader { leaders });
    let variants = [&[AllgatherVariant::Hybrid][..], &leaders].concat();
    let (spec, m) = (ClusterSpec::regular(16, 24), Machine::hazel_hen());
    let rows = variant_rows(
        &spec,
        &m,
        pows([0, 4, 8, 12, 14]),
        &[Placement::SmpBlock],
        &variants,
    );
    render_table(
        "Ablation ([14]) — multi-leader allgather, 16 nodes x 24 ppn (Cray MPI), µs",
        &["elems", "Hybrid", "1-leader", "2-leader", "4-leader"],
        &rows,
    )
}

/// Conclusion-section extension (paper reference [30]): the pipelined
/// hybrid allgather past the paper's 256 KiB (32 Ki .. 512 Ki doubles
/// per rank), to show where segmenting the bridge exchange pays.
fn ablation_pipeline() -> String {
    let segments = [1 << 12, 1 << 14, 1 << 16];
    let pipelined =
        segments.map(|segment_elems| AllgatherVariant::HybridPipelined { segment_elems });
    let variants = [&[AllgatherVariant::Hybrid][..], &pipelined].concat();
    let (spec, m) = (ClusterSpec::regular(16, 24), Machine::hazel_hen());
    let rows = variant_rows(&spec, &m, pows(15..=19), &[Placement::SmpBlock], &variants);
    render_table(
        "Extension ([30]) — pipelined hybrid allgather >256 KiB, 16 nodes x 24 ppn, µs",
        &["elems", "plain", "seg=4Ki", "seg=16Ki", "seg=64Ki"],
        &rows,
    )
}

/// Topology ablation: the Aries network of the paper's Cray XC40 is a
/// dragonfly. Both variants' bridge traffic crosses groups identically,
/// so the hybrid-vs-pure ratio holds as the group surcharge rises.
fn ablation_topology() -> String {
    let spec = ClusterSpec::regular(64, 24);
    let mut rows = Vec::new();
    for (label, extra) in [("flat", 0.0), ("df+0.4us", 0.4), ("df+1.0us", 1.0)] {
        let mut m = Machine::hazel_hen();
        if extra > 0.0 {
            m.cost = m.cost.with_dragonfly(16, extra);
        }
        for elems in [512, 16384] {
            let mut row = vec![label.to_string(), elems.to_string()];
            let (hy, pure) = hy_vs_pure(&mut row, &spec, &m, elems);
            row.push(ratio(pure, hy));
            rows.push(row);
        }
    }
    render_table(
        "Ablation — dragonfly topology (64 nodes x 24 ppn, groups of 16), µs",
        &["topology", "elems", "Hy_Allgather", "Allgather", "ratio"],
        &rows,
    )
}

/// Extension (paper reference [31]): the hybrid all-to-all, one
/// aggregated message per node pair, against the flat `MPI_Alltoall`.
fn ext_alltoall() -> String {
    let (spec, m) = (ClusterSpec::regular(8, 24), Machine::hazel_hen());
    let rows: Vec<Vec<String>> = pows([0, 3, 6, 9, 12])
        .map(|count| {
            let hy = slowest_rank(spec.clone(), &m, |ctx| {
                let world = ctx.world();
                let hc = HybridComm::new(ctx, &world, m.tuning.clone());
                let a2a = HyAlltoall::<f64>::new(ctx, &hc, count);
                per_call(ctx, |ctx| a2a.execute(ctx))
            });
            let flat = slowest_rank(spec.clone(), &m, |ctx| {
                let world = ctx.world();
                let send = ctx.buf_zeroed::<f64>(count * world.size());
                let mut recv = ctx.buf_zeroed::<f64>(count * world.size());
                per_call(ctx, |ctx| {
                    alltoall::tuned(ctx, &world, &send, &mut recv, count, &m.tuning)
                })
            });
            vec![
                count.to_string(),
                us(hy),
                us(flat),
                format!("{:.2}", flat / hy),
            ]
        })
        .collect();
    render_table(
        "Extension ([31]) — hybrid vs flat all-to-all, 8 nodes x 24 ppn (Cray MPI), µs",
        &["count", "Hy_Alltoall", "Alltoall", "speedup"],
        &rows,
    )
}

/// Extension: the hybrid allreduce (on-node reduce -> bridge allreduce
/// -> shared result window) against the library `MPI_Allreduce`, then
/// the CG application end to end (3 scalar allreduces per iteration).
fn ext_allreduce() -> String {
    let (spec, m) = (ClusterSpec::regular(16, 24), Machine::hazel_hen());
    let rows: Vec<Vec<String>> = pows([0, 4, 8, 12, 14])
        .map(|count| {
            let hy = slowest_rank(spec.clone(), &m, |ctx| {
                let world = ctx.world();
                let hc = HybridComm::new(ctx, &world, m.tuning.clone());
                let ar = HyAllreduce::<f64>::new(ctx, &hc, count);
                let send = ctx.buf_zeroed::<f64>(count);
                per_call(ctx, |ctx| ar.execute(ctx, &send, Sum))
            });
            let flat = slowest_rank(spec.clone(), &m, |ctx| {
                let world = ctx.world();
                let send = ctx.buf_zeroed::<f64>(count);
                let mut recv = ctx.buf_zeroed::<f64>(count);
                per_call(ctx, |ctx| {
                    allreduce::tuned(ctx, &world, &send, &mut recv, Sum, &m.tuning)
                })
            });
            vec![count.to_string(), us(hy), us(flat), ratio(flat, hy)]
        })
        .collect();
    let mut out = render_table(
        "Extension — hybrid vs library allreduce, 16 nodes x 24 ppn (Cray MPI), µs",
        &["count", "Hy_Allreduce", "Allreduce", "speedup"],
        &rows,
    );
    let cg = CgSpec {
        n: 1 << 18,
        iters: 25,
    };
    let rows: Vec<Vec<String>> = [48, 96, 192, 384]
        .into_iter()
        .map(|cores| {
            let ori = slowest_rank(cluster_for(cores), &m, |ctx| ori_cg(ctx, &cg).elapsed_us);
            let hy = slowest_rank(cluster_for(cores), &m, |ctx| hy_cg(ctx, &cg).elapsed_us);
            vec![cores.to_string(), us(ori), us(hy), ratio(ori, hy)]
        })
        .collect();
    out += &render_table(
        "Extension — CG Poisson solver (262144 unknowns, 25 iters), µs",
        &["cores", "Ori_CG", "Hy_CG", "ratio"],
        &rows,
    );
    out
}

/// Extension (the paper's conclusion, "p2p communications"): Jacobi halo
/// exchange on 8 nodes as processes per node grow. The hybrid drops
/// every intra-node halo message, so its advantage grows with ppn.
fn ext_stencil() -> String {
    let m = Machine::hazel_hen();
    let rows: Vec<Vec<String>> = [2, 4, 8, 16, 24]
        .into_iter()
        .map(|ppn| {
            // Keep ~48x48 cells per rank as ppn grows (weak-ish scaling).
            let n = (((8 * ppn) as f64).sqrt() * 48.0) as usize;
            let spec = StencilSpec { n, iters: 20 };
            let time = |kernel: fn(&mut Ctx, &StencilSpec) -> stencil::StencilReport| {
                slowest_rank(ClusterSpec::regular(8, ppn), &m, |ctx| {
                    kernel(ctx, &spec).elapsed_us
                })
            };
            let (ori, hy) = (time(ori_jacobi), time(hy_jacobi));
            vec![
                ppn.to_string(),
                n.to_string(),
                us(ori),
                us(hy),
                ratio(ori, hy),
            ]
        })
        .collect();
    render_table(
        "Extension — Jacobi halo exchange, 8 nodes, 20 iters (Cray MPI), µs",
        &["ppn", "grid", "Ori_Jacobi", "Hy_Jacobi", "ratio"],
        &rows,
    )
}

/// One-way ping-pong latency (µs) from rank 0 to a peer on its own node
/// or on the other node of a 2 x 2 cluster.
fn pingpong(m: &Machine, inter: bool, bytes: usize) -> f64 {
    let cfg = SimConfig::new(ClusterSpec::regular(2, 2), m.cost.clone()).phantom();
    let (peer, iters) = (if inter { 2 } else { 1 }, 10);
    let r = Universe::run(cfg, |ctx| {
        let world = ctx.world();
        match ctx.rank() {
            0 => {
                let t0 = ctx.now();
                for _ in 0..iters {
                    ctx.send(&world, peer, 0, Payload::Phantom(bytes));
                    ctx.recv(&world, peer, 1);
                }
                (ctx.now() - t0) / (2 * iters) as f64
            }
            me if me == peer => {
                for _ in 0..iters {
                    ctx.recv(&world, 0, 0);
                    ctx.send(&world, 0, 1, Payload::Phantom(bytes));
                }
                0.0
            }
            _ => 0.0,
        }
    });
    r.expect("pingpong").per_rank[0]
}

/// OSU-style point-to-point latency, intra- and inter-node, for both
/// machine models: the calibration anchor of docs/COSTMODEL.md.
fn osu_p2p() -> String {
    let mut out = String::new();
    for m in [Machine::hazel_hen(), Machine::vulcan()] {
        let rows: Vec<Vec<String>> = pows([0, 3, 6, 10, 13, 16, 20])
            .map(|b| {
                vec![
                    b.to_string(),
                    us(pingpong(&m, false, b)),
                    us(pingpong(&m, true, b)),
                ]
            })
            .collect();
        let title = format!("osu_latency ({}) — one-way ping-pong latency, µs", m.name);
        out += &render_table(&title, &["bytes", "intra-node", "inter-node"], &rows);
    }
    out
}

/// The paper's Fig. 3 as numbers: the structural difference between the
/// hybrid and the SMP-aware pure-MPI allgather, straight from the event
/// trace (message counts, volumes per link class, copies, node traffic),
/// the decision log of an autotuned run, and a race-detector sweep.
fn trace_report() -> String {
    let m = Machine::hazel_hen();
    let spec = ClusterSpec::regular(4, 8);
    let elems = 1024usize;
    let map = Placement::SmpBlock.build(&spec);

    let run_traced = |hybrid: bool| {
        let cfg = SimConfig::new(spec.clone(), m.cost.clone())
            .phantom()
            .traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            if hybrid {
                let hc = HybridComm::new(ctx, &world, m.tuning.clone());
                HyAllgather::<f64>::new(ctx, &hc, elems).execute(ctx);
            } else {
                let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * world.size());
                sa.allgather(ctx, &send, &mut recv);
            }
        });
        r.expect("traced run").tracer.events()
    };

    let mut rows = Vec::new();
    let mut matrices = Vec::new();
    for (name, hybrid) in [
        ("Allgather (pure, SMP-aware)", false),
        ("Hy_Allgather (hybrid)", true),
    ] {
        let events = run_traced(hybrid);
        let s = TrafficStats::of(&events);
        let counts = [
            s.intra_msgs,
            s.intra_bytes,
            s.inter_msgs,
            s.inter_bytes,
            s.copy_bytes,
            s.window_bytes,
        ];
        rows.push(
            [
                vec![name.to_string()],
                counts.map(|c| c.to_string()).to_vec(),
            ]
            .concat(),
        );
        matrices.push((name, node_traffic_matrix(&events, &map)));
    }
    let mut out = render_table(
        "Schedule structure — allgather of 1024 doubles/rank, 4 nodes x 8 ppn",
        &[
            "variant",
            "intra msgs",
            "intra B",
            "inter msgs",
            "inter B",
            "copied B",
            "window B",
        ],
        &rows,
    );
    for (name, matrix) in matrices {
        out += &format!("\nnode-to-node payload bytes — {name}:\n");
        for row in &matrix {
            let cells: Vec<String> = row.iter().map(|b| format!("{b:>9}")).collect();
            out += &format!("  {}\n", cells.join(" "));
        }
    }

    // Decision log: the same hybrid allgather under the autotune policy.
    // Each row is one distinct (op, algorithm) selection with the cost
    // estimate that justified it; the count says how many ranks recorded
    // it (also visible in the trace as `decisions` events). Only the rank
    // that selects first computes the estimate — the others hit the
    // policy's shared cache — and which rank that is depends on the
    // executor's resume order, so the row shows the estimate whoever
    // recorded it (the smallest, should one pair have several): the
    // report must not change with the schedule.
    let policy = SelectionPolicy::autotune(m.tuning.clone());
    let cfg = SimConfig::new(spec.clone(), m.cost.clone())
        .phantom()
        .traced();
    let r = Universe::run(cfg, |ctx| {
        let world = ctx.world();
        let hc = HybridComm::with_policy(ctx, &world, policy.clone());
        HyAllgather::<f64>::new(ctx, &hc, elems).execute(ctx);
    });
    let traced = TrafficStats::of(&r.expect("traced autotune run").tracer.events()).decisions;
    let mut rows: Vec<(String, String, String, usize)> = Vec::new();
    for d in policy.log().decisions() {
        match rows
            .iter_mut()
            .find(|(op, algo, _, _)| *op == d.op.key() && *algo == d.algo)
        {
            Some(row) => {
                row.3 += 1;
                let is_hit = |why: &str| why.contains("cache hit");
                if (is_hit(&d.why), &d.why) < (is_hit(&row.2), &row.2) {
                    row.2 = d.why;
                }
            }
            None => rows.push((d.op.key().to_string(), d.algo.to_string(), d.why, 1)),
        }
    }
    let title = format!(
        "Decision log — autotuned Hy_Allgather, {} decisions recorded ({traced} traced)",
        policy.log().len()
    );
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(op, algo, why, n)| vec![op, algo, why, n.to_string()])
        .collect();
    out += &render_table(&title, &["op", "algorithm", "why", "ranks"], &rows);

    // Race sweep: the same hybrid allgather once more in *real* data mode
    // with the happens-before detector armed (the traffic runs above are
    // phantom, where the detector is a documented non-goal — see
    // docs/race-detection.md). The RaceCheck trace event summarizes the
    // sweep; a non-zero race count would have failed the run outright.
    let cfg = SimConfig::new(spec.clone(), m.cost.clone())
        .traced()
        .with_race_detect(true);
    let r = Universe::run(cfg, |ctx| {
        let world = ctx.world();
        let hc = HybridComm::new(ctx, &world, m.tuning.clone());
        HyAllgather::<f64>::new(ctx, &hc, elems).execute(ctx);
    });
    let events = r
        .expect("race-checked run (a detected race fails here)")
        .tracer
        .events();
    let (accesses, races) = (events.iter())
        .find_map(|e| match e.kind {
            EventKind::RaceCheck { accesses, races } => Some((accesses, races)),
            _ => None,
        })
        .expect("detector-on traced run records a RaceCheck summary");
    out += &render_table(
        "Race sweep — Hy_Allgather, real mode, MSIM_RACE-equivalent run",
        &["window accesses swept", "races"],
        &[vec![accesses.to_string(), races.to_string()]],
    );
    out
}

/// `sweep`'s flags.
pub const SWEEP_FLAGS: Flags = &[
    ("--nodes", "N"),
    ("--ppn", "P"),
    ("--machine", "hazelhen|vulcan"),
    ("--variants", "hybrid,smp,flat,flags,pipelined,kleader"),
    ("--min-pow", "N"),
    ("--max-pow", "N"),
    ("--placement", "smp|rr"),
    ("--leaders", "K"),
];

/// `bench sweep`: explore your own parameter space without editing code
/// — the allgather latency of any variants on any regular cluster, for
/// 2^min-pow .. 2^max-pow doubles per rank (defaults: 16 nodes x 24
/// ppn, Hazel Hen, `hybrid,smp`, 2^0 .. 2^15, SMP placement). The
/// `kleader` variant is the multi-leader hybrid allgather with
/// `--leaders` slots per node (default 2).
pub fn sweep(args: &Args) -> Result<(), String> {
    let nodes = args.positive("--nodes")?.unwrap_or(16);
    let ppn = args.positive("--ppn")?.unwrap_or(24);
    let min_pow = args.num("--min-pow")?.unwrap_or(0);
    let max_pow = args.num("--max-pow")?.unwrap_or(15);
    let machines = [
        ("hazelhen", Machine::hazel_hen()),
        ("vulcan", Machine::vulcan()),
    ];
    let machine = args
        .pick("--machine", &machines)?
        .unwrap_or_else(Machine::hazel_hen);
    let placements = [("smp", Placement::SmpBlock), ("rr", Placement::RoundRobin)];
    let placement = args
        .pick("--placement", &placements)?
        .unwrap_or(Placement::SmpBlock);
    let leaders = args.positive("--leaders")?.unwrap_or(2);
    let known = [
        ("hybrid", AllgatherVariant::Hybrid),
        ("smp", AllgatherVariant::PureSmpAware),
        ("flat", AllgatherVariant::PureFlat),
        (
            "flags",
            AllgatherVariant::HybridSync(SyncMethod::SharedFlags),
        ),
        (
            "pipelined",
            AllgatherVariant::HybridPipelined {
                segment_elems: 1 << 14,
            },
        ),
        (
            "kleader",
            AllgatherVariant::HybridKLeader {
                leaders,
                sync: SyncMethod::SharedFlags,
            },
        ),
    ];
    let mut headers = vec!["elems".to_string()];
    let mut variants = Vec::new();
    for name in args.value("--variants").unwrap_or("hybrid,smp").split(',') {
        let Some(&(label, v)) = known.iter().find(|(n, _)| *n == name.trim()) else {
            return Err(args.error(&format!("unknown variant {name:?}")));
        };
        headers.push(match v {
            AllgatherVariant::HybridKLeader { .. } => format!("kleader{leaders}"),
            _ => label.to_string(),
        });
        variants.push(v);
    }
    let spec = ClusterSpec::regular(nodes, ppn);
    let rows = variant_rows(
        &spec,
        &machine,
        pows(min_pow..=max_pow),
        std::slice::from_ref(&placement),
        &variants,
    );
    let title = format!(
        "Allgather sweep — {nodes} nodes x {ppn} ppn, {} ({placement:?}), µs",
        machine.name
    );
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print!("{}", render_table(&title, &headers, &rows));
    Ok(())
}
