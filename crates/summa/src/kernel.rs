//! The SUMMA kernel: Ori_ (pure MPI) and Hy_ (hybrid MPI+MPI) variants.

use collectives::{barrier, bcast, run_blocking, DriveOp, IColl, Tuning};
use hmpi::{FtComm, HyAllgatherv, HybridComm, SyncSm};
use linalg::gemm::{gemm, gemm_flops, gemm_ref};
use linalg::{Mat, MatRef};
use msim::{Buf, Communicator, Ctx, DataMode, Drive, Request, WaitError};

use crate::grid::GridComms;

/// Parameters of one SUMMA run.
#[derive(Debug, Clone)]
pub struct SummaSpec {
    /// Grid edge length q (the run uses q² ranks; N = q·b).
    pub q: usize,
    /// Per-core block edge b (the paper sweeps 8, 64, 128, 256).
    pub block: usize,
    /// MPI library tuning for the broadcasts.
    pub tuning: Tuning,
}

/// Per-rank outcome of a SUMMA run.
#[derive(Debug, Clone)]
pub struct SummaReport {
    /// Whether this rank was part of the grid.
    pub active: bool,
    /// Virtual time spent in the timed region (µs); 0 for inactive ranks.
    pub elapsed_us: f64,
    /// The computed C block (real-data universes only).
    pub c_block: Option<Mat>,
}

/// Element (i, j) of the global matrix A (deterministic test pattern).
pub fn a_elem(i: usize, j: usize) -> f64 {
    ((i * 13 + j * 7) % 10) as f64 * 0.5 - 2.0
}

/// Element (i, j) of the global matrix B.
pub fn b_elem(i: usize, j: usize) -> f64 {
    ((i * 3 + j * 11) % 8) as f64 * 0.25 - 1.0
}

/// The expected C block at grid position (row, col) for block size b,
/// computed serially (test oracle).
pub fn expected_c_block(q: usize, b: usize, row: usize, col: usize) -> Mat {
    let n = q * b;
    Mat::from_fn(b, b, |r, c| {
        let (gi, gj) = (row * b + r, col * b + c);
        (0..n).map(|k| a_elem(gi, k) * b_elem(k, gj)).sum()
    })
}

fn my_block(ctx: &Ctx, g: &GridComms, b: usize, elem: fn(usize, usize) -> f64) -> Buf<f64> {
    let (row0, col0) = (g.my_row * b, g.my_col * b);
    // Column-major within the block: idx = c*b + r.
    ctx.buf_from_fn(b * b, move |idx| elem(row0 + idx % b, col0 + idx / b))
}

/// A received panel as a gemm operand, multiplied where it landed.
fn operand(b: usize, panel: &Buf<f64>) -> MatRef<'_> {
    MatRef::new(b, b, panel.as_slice().expect("real-mode buffer"))
}

/// The real-data half of a hybrid SUMMA rank: the C block it
/// accumulates and the one A and one B operand every step loads its
/// panels into — a window is shared storage, not a `&[f64]`, so the
/// load is the one copy a step makes, and it allocates nothing.
struct Product {
    a: Mat,
    b: Mat,
    c: Mat,
}

impl Product {
    /// Zero C and the operands in real mode, nothing in phantom mode.
    fn new(ctx: &Ctx, b: usize) -> Option<Self> {
        (ctx.mode() == DataMode::Real).then(|| Self {
            a: Mat::zeros(b, b),
            b: Mat::zeros(b, b),
            c: Mat::zeros(b, b),
        })
    }

    /// `C += A_k·B_k`, both panels direct loads from the node-shared
    /// panel windows.
    fn step(&mut self, a_panels: &HyAllgatherv<f64>, b_panels: &HyAllgatherv<f64>, k: usize) {
        a_panels.read_block_into(k, self.a.data_mut());
        b_panels.read_block_into(k, self.b.data_mut());
        gemm(1.0, &self.a, &self.b, 1.0, &mut self.c);
    }
}

/// **Ori_SUMMA** — the pure-MPI version: private panel buffers, library
/// `MPI_Bcast` on the row and column communicators.
pub fn ori_summa(ctx: &mut Ctx, spec: &SummaSpec) -> SummaReport {
    let world = ctx.world();
    let Some(g) = GridComms::build(ctx, &world, spec.q) else {
        return SummaReport {
            active: false,
            elapsed_us: 0.0,
            c_block: None,
        };
    };
    let b = spec.block;
    let a_block = my_block(ctx, &g, b, a_elem);
    let b_block = my_block(ctx, &g, b, b_elem);
    let mut c = (ctx.mode() == DataMode::Real).then(|| Mat::zeros(b, b));
    // The private panel buffers every broadcast lands in.
    let mut a_panel = ctx.buf_zeroed(b * b);
    let mut b_panel = ctx.buf_zeroed(b * b);

    barrier::tuned(ctx, &g.grid);
    let t0 = ctx.now();
    for k in 0..g.q {
        // A panel travels along the row; root is the column-k owner.
        if g.my_col == k {
            a_panel.copy_from(0, &a_block, 0, b * b);
        }
        bcast::tuned(ctx, &g.row, &mut a_panel, k, &spec.tuning);
        // B panel travels along the column; root is the row-k owner.
        if g.my_row == k {
            b_panel.copy_from(0, &b_block, 0, b * b);
        }
        bcast::tuned(ctx, &g.col, &mut b_panel, k, &spec.tuning);

        ctx.compute(gemm_flops(b, b, b));
        if let Some(c) = &mut c {
            gemm_ref(1.0, operand(b, &a_panel), operand(b, &b_panel), 1.0, c);
        }
    }
    SummaReport {
        active: true,
        elapsed_us: ctx.now() - t0,
        c_block: c,
    }
}

/// Broadcast panel slot `k` of a node-shared panel store across the
/// communicator's nodes: a leader-to-leader `MPI_Bcast` of that slot
/// (window-to-window) followed by the paper's barrier. On a single node
/// this is the barrier alone — "parallel computation without any data
/// movement in between" (§5.2.1).
fn panel_bcast(ctx: &mut Ctx, hc: &HybridComm, panels: &HyAllgatherv<f64>, k: usize) {
    let mut body = IPanelBcastBody::new(ctx, hc, panels, k);
    run_blocking(body.drive_op(ctx, Drive::Block));
}

/// Phase of an in-flight panel broadcast. The release machine is built
/// lazily so its signal operations land exactly where the blocking
/// call's would.
enum PanelPhase {
    /// Leaders: bridge broadcast of the panel slot, window to window.
    Bridge {
        sm: bcast::TunedSm,
        view: Buf<f64>,
        root_group: usize,
    },
    /// The paper's post-broadcast synchronization.
    Release(SyncSm),
    Done,
}

/// The body of an in-flight [`panel_bcast`] (the nonblocking form used
/// by [`hy_summa_overlap`] to prefetch the next panel during the gemm).
pub struct IPanelBcastBody {
    hc: HybridComm,
    phase: PanelPhase,
}

impl IPanelBcastBody {
    fn new(ctx: &mut Ctx, hc: &HybridComm, panels: &HyAllgatherv<f64>, k: usize) -> Self {
        let h = hc.hierarchy();
        let phase = match &h.bridge {
            Some(bridge) if !hc.single_node() => {
                let root_group = h.locate(k).0;
                let region = panels
                    .window()
                    .region(panels.block_offset(k), panels.block_len(k));
                let view = Buf::Shared(region);
                let sm = match hc.policy() {
                    Some(policy) => bcast::TunedSm::with_policy(ctx, bridge, &view, policy),
                    None => bcast::TunedSm::tuned(ctx, bridge, &view, hc.tuning()),
                };
                PanelPhase::Bridge {
                    sm,
                    view,
                    root_group,
                }
            }
            _ => PanelPhase::Release(SyncSm::release(ctx, hc.sync(), &h.shm)),
        };
        Self {
            hc: hc.clone(),
            phase,
        }
    }
}

impl DriveOp for IPanelBcastBody {
    const OP: &'static str = "ipanel_bcast";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        let h = self.hc.hierarchy();
        loop {
            match &mut self.phase {
                PanelPhase::Bridge {
                    sm,
                    view,
                    root_group,
                } => {
                    let bridge = h.bridge.as_ref().expect("bridge phase only on leaders");
                    if !sm.drive(ctx, bridge, view, *root_group, how)? {
                        return Ok(false);
                    }
                    self.phase = PanelPhase::Release(SyncSm::release(ctx, self.hc.sync(), &h.shm));
                }
                PanelPhase::Release(sm) => {
                    if !sm.drive(ctx, &h.shm, how)? {
                        return Ok(false);
                    }
                    self.phase = PanelPhase::Done;
                }
                PanelPhase::Done => return Ok(true),
            }
        }
    }
}

/// An in-flight panel broadcast.
pub type IPanelBcast = IColl<IPanelBcastBody>;

/// Start [`panel_bcast`] nonblocking; `ipanel_bcast(…) + wait` is
/// equivalent to the blocking call (modulo the `Req*` trace markers).
fn ipanel_bcast(
    ctx: &mut Ctx,
    hc: &HybridComm,
    panels: &HyAllgatherv<f64>,
    k: usize,
) -> IPanelBcast {
    let body = IPanelBcastBody::new(ctx, hc, panels, k);
    IColl::start(ctx, body)
}

/// The node-shared panel stores of a hybrid SUMMA rank.
struct PanelWindows {
    hc_row: HybridComm,
    a_panels: HyAllgatherv<f64>,
    hc_col: HybridComm,
    b_panels: HyAllgatherv<f64>,
}

impl PanelWindows {
    /// One-off setup, amortized over the q iterations (and in production
    /// over many multiplications on the same grid): per row/column
    /// communicator, a window with one b² slot per member holds the
    /// input panels — the matrices themselves are node-shared, which is
    /// the MPI+MPI programming model. This rank's blocks of A and B are
    /// written into their slots and not kept: the windows are the only
    /// copy from here on.
    fn build(ctx: &mut Ctx, g: &GridComms, spec: &SummaSpec) -> Self {
        let b = spec.block;
        let counts = vec![b * b; g.q];
        let hc_row = HybridComm::new(ctx, &g.row, spec.tuning.clone());
        let a_panels = HyAllgatherv::<f64>::new(ctx, &hc_row, &counts);
        let hc_col = HybridComm::new(ctx, &g.col, spec.tuning.clone());
        let b_panels = HyAllgatherv::<f64>::new(ctx, &hc_col, &counts);
        if let Some(s) = my_block(ctx, g, b, a_elem).as_slice() {
            a_panels.write_my_block(ctx, s);
        }
        if let Some(s) = my_block(ctx, g, b, b_elem).as_slice() {
            b_panels.write_my_block(ctx, s);
        }
        // Make the setup writes visible before leaders read them
        // (wall-clock only; setup is untimed).
        ctx.oob_fence(&g.grid);
        Self {
            hc_row,
            a_panels,
            hc_col,
            b_panels,
        }
    }
}

/// **Hy_SUMMA** — the hybrid MPI+MPI version. The A and B panels live in
/// node-shared windows over the row/column communicators (one copy per
/// node, written once at setup), so a SUMMA broadcast reduces to a
/// leader-to-leader bridge `MPI_Bcast` of the panel slot plus the
/// barrier the paper adds after each broadcast ([`panel_bcast`]).
pub fn hy_summa(ctx: &mut Ctx, spec: &SummaSpec) -> SummaReport {
    let world = ctx.world();
    hy_summa_on(ctx, &world, spec)
}

/// Hy_SUMMA over an explicit communicator (a shrunk world after
/// recovery): the q×q grid is carved out of `comm`'s lowest q² ranks;
/// the rest are inactive (but still participate in the setup splits).
pub fn hy_summa_on(ctx: &mut Ctx, comm: &Communicator, spec: &SummaSpec) -> SummaReport {
    let Some(g) = GridComms::build(ctx, comm, spec.q) else {
        return SummaReport {
            active: false,
            elapsed_us: 0.0,
            c_block: None,
        };
    };
    let b = spec.block;
    let mut product = Product::new(ctx, b);
    let PanelWindows {
        hc_row,
        a_panels,
        hc_col,
        b_panels,
    } = PanelWindows::build(ctx, &g, spec);

    barrier::tuned(ctx, &g.grid);
    let t0 = ctx.now();
    for k in 0..g.q {
        panel_bcast(ctx, &hc_row, &a_panels, k);
        panel_bcast(ctx, &hc_col, &b_panels, k);

        ctx.compute(gemm_flops(b, b, b));
        if let Some(product) = &mut product {
            product.step(&a_panels, &b_panels, k);
        }
    }
    SummaReport {
        active: true,
        elapsed_us: ctx.now() - t0,
        c_block: product.map(|p| p.c),
    }
}

/// **Hy_SUMMA with communication/computation overlap**: identical data
/// flow to [`hy_summa`], but the slot-`k+1` panel broadcasts *start*
/// (nonblocking, [`IPanelBcast`]) before iteration `k`'s gemm, so the
/// bridge transfer hides behind the multiply. The panels are written
/// once at setup, so prefetching slot `k+1` touches no data iteration
/// `k` reads; the release synchronization inside each request keeps the
/// usual safety order (children read a slot only after their wait, which
/// completes only after the leader's bridge exchange for that slot).
pub fn hy_summa_overlap(ctx: &mut Ctx, spec: &SummaSpec) -> SummaReport {
    let world = ctx.world();
    let Some(g) = GridComms::build(ctx, &world, spec.q) else {
        return SummaReport {
            active: false,
            elapsed_us: 0.0,
            c_block: None,
        };
    };
    let b = spec.block;
    let mut product = Product::new(ctx, b);
    let PanelWindows {
        hc_row,
        a_panels,
        hc_col,
        b_panels,
    } = PanelWindows::build(ctx, &g, spec);

    barrier::tuned(ctx, &g.grid);
    let t0 = ctx.now();
    let mut next = Some((
        ipanel_bcast(ctx, &hc_row, &a_panels, 0),
        ipanel_bcast(ctx, &hc_col, &b_panels, 0),
    ));
    for k in 0..g.q {
        let (req_a, req_b) = next.take().expect("slot-k panel requests are in flight");
        req_a.wait(ctx);
        req_b.wait(ctx);
        if k + 1 < g.q {
            next = Some((
                ipanel_bcast(ctx, &hc_row, &a_panels, k + 1),
                ipanel_bcast(ctx, &hc_col, &b_panels, k + 1),
            ));
        }

        ctx.compute(gemm_flops(b, b, b));
        if let Some(product) = &mut product {
            product.step(&a_panels, &b_panels, k);
        }
    }
    SummaReport {
        active: true,
        elapsed_us: ctx.now() - t0,
        c_block: product.map(|p| p.c),
    }
}

/// Fault-tolerant Hy_SUMMA: one protected round that sizes the grid to
/// the *current* world — q = ⌊√p⌋ over the surviving ranks — so a
/// recovery that shrinks the communicator restarts the multiplication
/// on the largest square grid the survivors can fill. Ranks left off
/// the grid return an inactive report but still take part in the
/// round's commit, keeping every survivor in lockstep.
pub fn ft_summa(ctx: &mut Ctx, ft: &mut FtComm, block: usize, tuning: &Tuning) -> SummaReport {
    ft.run_raw(ctx, "summa", |ctx, comm| {
        let p = comm.size();
        let mut q = 1;
        while (q + 1) * (q + 1) <= p {
            q += 1;
        }
        let spec = SummaSpec {
            q,
            block,
            tuning: tuning.clone(),
        };
        hy_summa_on(ctx, comm, &spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::FaultPolicy;
    use hmpi::SyncMethod;
    use msim::{FaultPlan, SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, EventKind};
    use std::time::Duration;

    type Kernel = fn(&mut Ctx, &SummaSpec) -> SummaReport;

    fn check_correct(nodes: usize, ppn: usize, q: usize, b: usize, kernel: Kernel) {
        let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
        let spec = SummaSpec {
            q,
            block: b,
            tuning: Tuning::cray_mpich(),
        };
        let r = Universe::run(cfg, move |ctx| kernel(ctx, &spec)).unwrap();
        for (rank, rep) in r.per_rank.iter().enumerate() {
            if rank < q * q {
                let got = rep.c_block.as_ref().expect("active rank computes C");
                let want = expected_c_block(q, b, rank / q, rank % q);
                assert!(
                    got.distance(&want) < 1e-9,
                    "rank {rank}: wrong C block (dist {})",
                    got.distance(&want)
                );
            } else {
                assert!(!rep.active);
            }
        }
    }

    #[test]
    fn ori_summa_computes_the_product() {
        check_correct(1, 4, 2, 3, ori_summa);
        check_correct(2, 3, 2, 4, ori_summa);
        check_correct(2, 5, 3, 2, ori_summa);
    }

    #[test]
    fn hy_summa_computes_the_product() {
        check_correct(1, 4, 2, 3, hy_summa);
        check_correct(2, 3, 2, 4, hy_summa);
        check_correct(2, 5, 3, 2, hy_summa);
    }

    #[test]
    fn ft_summa_recomputes_on_the_shrunk_grid_after_a_kill() {
        // 6 ranks, 2x2 grid. An active rank (the node-0 leader, or a
        // follower on the same node) dies mid-multiplication; the five
        // survivors shrink, re-carve a 2x2 grid out of their lowest four
        // ranks, and every active survivor ends with the exact C block
        // for its *new* grid position.
        let b = 3;
        for victim in [0usize, 2] {
            let plan = FaultPlan::none().with_kill(victim, 3);
            let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
                .with_fault(plan)
                .with_recv_timeout(Duration::from_secs(5));
            let r = Universe::run_ft(cfg, move |ctx| {
                let world = ctx.world();
                let mut ft = FtComm::new(&world, Tuning::cray_mpich(), SyncMethod::Barrier)
                    .with_fault(FaultPolicy::Shrink);
                ft_summa(ctx, &mut ft, b, &Tuning::cray_mpich())
            })
            .unwrap();
            assert_eq!(r.failed, vec![victim]);
            let survivors: Vec<usize> = (0..6).filter(|&g| g != victim).collect();
            for (rank, rep) in r.per_rank.iter().enumerate() {
                if rank == victim {
                    assert!(rep.is_none());
                    continue;
                }
                let rep = rep.as_ref().unwrap();
                let local = survivors.iter().position(|&g| g == rank).unwrap();
                if local < 4 {
                    let got = rep.c_block.as_ref().expect("active rank computes C");
                    let want = expected_c_block(2, b, local / 2, local % 2);
                    assert!(
                        got.distance(&want) < 1e-9,
                        "victim={victim} rank {rank} (grid slot {local}): wrong C block"
                    );
                } else {
                    assert!(!rep.active, "rank {rank} must be off the shrunk grid");
                }
            }
        }
    }

    #[test]
    fn ft_summa_regrows_back_to_the_full_grid() {
        // kill → shrink → grow → rerun: the actives {0,1,2,3} form a 2x2
        // grid; rank 2 dies in round 0, the three survivors shrink to a
        // 1x1 grid and finish the round, the roll-call recruits spare 4,
        // and round 1 multiplies on a full 2x2 grid again — each member
        // of the regrown world {0,1,3,4} owns the exact C block of its
        // new grid slot.
        let b = 3;
        let plan = FaultPlan::none().with_kill(2, 8);
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_fault(plan)
            .with_recv_timeout(Duration::from_secs(5));
        let r = Universe::run_ft(cfg, move |ctx| {
            let world = ctx.world();
            FtComm::run_elastic(
                ctx,
                &world,
                &[4, 5],
                Tuning::cray_mpich(),
                SyncMethod::Barrier,
                FaultPolicy::Shrink,
                hmpi::Leaders::Fixed(1),
                2,
                |ctx, ft, _round| ft_summa(ctx, ft, b, &Tuning::cray_mpich()),
            )
        })
        .unwrap();
        assert_eq!(r.failed, vec![2], "exactly the victim dies");
        let regrown = [0usize, 1, 3, 4];
        for (slot, &rank) in regrown.iter().enumerate() {
            let rounds = r.per_rank[rank].as_ref().unwrap();
            let rep = rounds[1].as_ref().expect("regrown-world round must run");
            let got = rep
                .c_block
                .as_ref()
                .expect("full grid: every rank is active");
            let want = expected_c_block(2, b, slot / 2, slot % 2);
            assert!(
                got.distance(&want) < 1e-9,
                "rank {rank} (grid slot {slot}): wrong C block on the regrown grid"
            );
        }
        assert!(
            r.per_rank[4].as_ref().unwrap()[0].is_none(),
            "the recruit sat out round 0"
        );
        assert!(
            r.per_rank[5].as_ref().unwrap().iter().all(|x| x.is_none()),
            "the unrecruited spare never runs"
        );
    }

    #[test]
    fn hy_summa_overlap_computes_the_product() {
        check_correct(1, 4, 2, 3, hy_summa_overlap);
        check_correct(2, 3, 2, 4, hy_summa_overlap);
        check_correct(2, 5, 3, 2, hy_summa_overlap);
    }

    #[test]
    fn race_detector_passes_both_hybrid_kernels() {
        // Panels are written once at setup and read from the node-shared
        // windows every step (by the gemm operands, and by the leaders'
        // bridge broadcasts — prefetched a step ahead in the overlapped
        // kernel); the detector must find every one of those reads
        // ordered after the write it depends on.
        // On 2 x 4 the 2 x 2 grid shares node 0 with four idle ranks on
        // node 1; on 2 x 2 its columns cross the bridge.
        let kernels = [
            ("hy_summa", hy_summa as Kernel),
            ("hy_summa_overlap", hy_summa_overlap),
        ];
        for ((name, kernel), ppn) in kernels.into_iter().flat_map(|k| [(k, 4), (k, 2)]) {
            let cfg = SimConfig::new(ClusterSpec::regular(2, ppn), CostModel::uniform_test())
                .with_race_detect(true)
                .traced();
            let spec = SummaSpec {
                q: 2,
                block: 4,
                tuning: Tuning::cray_mpich(),
            };
            let r = Universe::run(cfg, move |ctx| kernel(ctx, &spec))
                .unwrap_or_else(|e| panic!("{name} on 2 x {ppn} under the detector: {e}"));
            for (rank, rep) in r.per_rank.iter().take(4).enumerate() {
                let got = rep.c_block.as_ref().expect("active rank computes C");
                assert!(got.distance(&expected_c_block(2, 4, rank / 2, rank % 2)) < 1e-9);
            }
            let checked = r.tracer.events().into_iter().find_map(|e| match e.kind {
                EventKind::RaceCheck { accesses, races } => Some((accesses, races)),
                _ => None,
            });
            let (accesses, races) = checked.expect("an armed traced run records its verdict");
            assert!(accesses > 0, "{name}: the detector saw the window traffic");
            assert_eq!(races, 0, "{name} on 2 x {ppn}");
        }
    }

    #[test]
    fn overlap_hides_the_bridge_transfer() {
        // With panels prefetched during the gemm, the bridge transfer
        // leaves the critical path: the overlapped kernel must be
        // strictly faster than blocking Hy_SUMMA on a multi-node grid,
        // and bit-identical in its computed product (checked above).
        let time = |kernel: Kernel| {
            let cfg = SimConfig::new(ClusterSpec::regular(2, 8), CostModel::cray_aries()).phantom();
            let spec = SummaSpec {
                q: 4,
                block: 64,
                tuning: Tuning::cray_mpich(),
            };
            let r = Universe::run(cfg, move |ctx| kernel(ctx, &spec).elapsed_us).unwrap();
            r.per_rank.iter().copied().fold(0.0f64, f64::max)
        };
        let t_blocking = time(hy_summa);
        let t_overlap = time(hy_summa_overlap);
        assert!(
            t_overlap < t_blocking,
            "overlap ({t_overlap}) must beat blocking ({t_blocking})"
        );
    }

    #[test]
    fn hybrid_wins_on_a_single_node_with_small_blocks() {
        // The paper's headline SUMMA result: up to ~5x for 8x8 blocks when
        // all processes share one node.
        let time = |kernel: Kernel| {
            let cfg = SimConfig::new(ClusterSpec::single_node(16), CostModel::cray_aries());
            let spec = SummaSpec {
                q: 4,
                block: 8,
                tuning: Tuning::cray_mpich(),
            };
            let r = Universe::run(cfg, move |ctx| kernel(ctx, &spec).elapsed_us).unwrap();
            r.per_rank.iter().copied().fold(0.0f64, f64::max)
        };
        let t_ori = time(ori_summa);
        let t_hy = time(hy_summa);
        assert!(
            t_hy < t_ori,
            "Hy_SUMMA ({t_hy}) must beat Ori_SUMMA ({t_ori}) on one node"
        );
    }

    #[test]
    fn ratio_shrinks_with_block_size() {
        // Fig. 11: the advantage decreases as compute dominates.
        let ratio = |b: usize| {
            let run = |kernel: Kernel| {
                let cfg =
                    SimConfig::new(ClusterSpec::regular(2, 8), CostModel::cray_aries()).phantom();
                let spec = SummaSpec {
                    q: 4,
                    block: b,
                    tuning: Tuning::cray_mpich(),
                };
                let r = Universe::run(cfg, move |ctx| kernel(ctx, &spec).elapsed_us).unwrap();
                r.per_rank.iter().copied().fold(0.0f64, f64::max)
            };
            run(ori_summa) / run(hy_summa)
        };
        let r8 = ratio(8);
        let r128 = ratio(128);
        assert!(
            r8 > r128,
            "ratio must shrink with block size: r8={r8} r128={r128}"
        );
        assert!(
            r128 >= 0.95,
            "hybrid should stay at least comparable: r128={r128}"
        );
    }

    #[test]
    fn phantom_and_real_agree_on_time() {
        let run_mode = |phantom: bool, kernel: Kernel| {
            let mut cfg = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::cray_aries());
            if phantom {
                cfg = cfg.phantom();
            }
            let spec = SummaSpec {
                q: 2,
                block: 16,
                tuning: Tuning::cray_mpich(),
            };
            Universe::run(cfg, move |ctx| kernel(ctx, &spec).elapsed_us)
                .unwrap()
                .per_rank
        };
        assert_eq!(run_mode(false, ori_summa), run_mode(true, ori_summa));
        assert_eq!(run_mode(false, hy_summa), run_mode(true, hy_summa));
    }
}
