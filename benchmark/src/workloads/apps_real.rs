//! `apps_real` — the paper's two applications with data actually moved
//! and computed: SUMMA (q = 4, 96 × 96 blocks; `ori_summa`, `hy_summa`,
//! `hy_summa_overlap`) and BPMF (`ori_bpmf`, `hy_bpmf`; 8 ranks, two
//! Gibbs iterations over a seeded synthetic ratings matrix), five
//! real-payload universes per pass on the pooled executor. The `linalg`
//! kernels, real `Buf`/window memcpy and the race-detector-capable path
//! dominate, so a simulator-only gain shows ~0 here and a kernel or copy
//! gain shows only here.
//!
//! The seed drives the ratings matrix and the Gibbs chain.
//!
//! The apps own their set-up, so the ladder stops short of it from
//! outside: P1 is `GridComms::build` (SUMMA) and `HybridComm::new`
//! (Hy_BPMF), P2 adds the panel windows the SUMMA hybrids allocate, P3
//! adds the grid barrier and the zero-iteration BPMF runs.

use bpmf::{hy_bpmf, ori_bpmf, BpmfConfig, BpmfReport, Dataset, SyntheticSpec};
use collectives::{barrier, Tuning};
use hmpi::{HyAllgatherv, HybridComm};
use linalg::Mat;
use msim::{Ctx, SimConfig};
use simnet::{ClusterSpec, CostModel};
use summa::kernel::expected_c_block;
use summa::{hy_summa, hy_summa_overlap, ori_summa, GridComms, SummaReport, SummaSpec};

use super::{launch, max, Arm, PassOut, Rung, Traffic, Workload, POOLED_1};

type SummaKernel = fn(&mut Ctx, &SummaSpec) -> SummaReport;
type BpmfKernel = fn(&mut Ctx, &Dataset, &BpmfConfig) -> BpmfReport;

/// `(label, kernel, allocates panel windows)`, in canonical order.
const SUMMA: [(&str, SummaKernel, bool); 3] = [
    ("summa.ori", ori_summa, false),
    ("summa.hy", hy_summa, true),
    ("summa.hy_overlap", hy_summa_overlap, true),
];

/// `(label, kernel, hybrid)`, in canonical order.
const BPMF: [(&str, BpmfKernel, bool); 2] =
    [("bpmf.ori", ori_bpmf, false), ("bpmf.hy", hy_bpmf, true)];

/// The tolerance `tests/integration.rs` holds SUMMA to.
const C_BLOCK_TOL: f64 = 1e-9;

pub struct AppsReal {
    summa: SummaSpec,
    summa_cluster: ClusterSpec,
    ratings: SyntheticSpec,
    bpmf: BpmfConfig,
    bpmf_cluster: ClusterSpec,
    cost: CostModel,
}

impl AppsReal {
    pub fn new(q: usize, block: usize, ratings: SyntheticSpec, gibbs_iters: usize) -> Self {
        let tuning = Tuning::cray_mpich();
        Self {
            summa: SummaSpec {
                q,
                block,
                tuning: tuning.clone(),
            },
            summa_cluster: ClusterSpec::regular(2, q * q / 2),
            bpmf: BpmfConfig {
                iters: gibbs_iters,
                ..BpmfConfig::paper(ratings.seed, tuning)
            },
            ratings,
            bpmf_cluster: ClusterSpec::regular(2, 4),
            cost: CostModel::cray_aries(),
        }
    }

    pub fn standard(seed: u64) -> Self {
        let ratings = SyntheticSpec {
            users: 2000,
            items: 120,
            nnz: 12000,
            seed,
        };
        Self::new(4, 96, ratings, 2)
    }

    fn config(&self, cluster: &ClusterSpec) -> SimConfig {
        SimConfig::new(cluster.clone(), self.cost.clone()).with_exec(POOLED_1)
    }

    fn grid_ranks(&self) -> usize {
        self.summa.q * self.summa.q
    }

    /// One SUMMA universe up to `rung`: modeled time (max over ranks) and
    /// the C blocks in rank order (empty below [`Rung::Full`]).
    fn summa_universe(
        &self,
        variant: usize,
        rung: Rung,
        arm: Arm,
        traffic: &mut Traffic,
    ) -> Result<(f64, Vec<f64>), String> {
        let (label, kernel, windows) = SUMMA[variant];
        let spec = &self.summa;
        let reports = launch(
            label,
            self.config(&self.summa_cluster),
            arm,
            traffic,
            move |ctx| {
                if rung == Rung::Full {
                    return Some(kernel(ctx, spec));
                }
                if rung >= Rung::Comm {
                    summa_setup(
                        ctx,
                        spec,
                        windows && rung >= Rung::Window,
                        rung >= Rung::Setup,
                    );
                }
                None
            },
        )?;
        let elapsed: Vec<f64> = reports.iter().flatten().map(|r| r.elapsed_us).collect();
        let mut c = Vec::new();
        for report in reports.iter().flatten() {
            let block = report
                .c_block
                .as_ref()
                .ok_or(format!("{label}: a rank returned no C block"))?;
            c.extend_from_slice(block.data());
        }
        Ok((max(&elapsed), c))
    }

    /// One BPMF universe up to `rung`: modeled time (max over ranks) and
    /// rank 0's test RMSE (`None` below [`Rung::Setup`]).
    fn bpmf_universe(
        &self,
        variant: usize,
        data: &Dataset,
        rung: Rung,
        arm: Arm,
        traffic: &mut Traffic,
    ) -> Result<(f64, Option<f64>), String> {
        let (label, kernel, hybrid) = BPMF[variant];
        let cfg = BpmfConfig {
            iters: if rung == Rung::Full {
                self.bpmf.iters
            } else {
                0
            },
            ..self.bpmf.clone()
        };
        let reports = launch(
            label,
            self.config(&self.bpmf_cluster),
            arm,
            traffic,
            move |ctx| {
                if rung >= Rung::Setup {
                    return Some(kernel(ctx, data, &cfg));
                }
                if hybrid && rung >= Rung::Comm {
                    let world = ctx.world();
                    HybridComm::new(ctx, &world, cfg.tuning.clone());
                }
                None
            },
        )?;
        let elapsed: Vec<f64> = reports.iter().flatten().map(|r| r.elapsed_us).collect();
        Ok((
            max(&elapsed),
            reports.first().and_then(|r| r.as_ref()?.rmse),
        ))
    }

    /// Where the C blocks of SUMMA variant `v` sit in [`PassOut::data`].
    fn c_range(&self, v: usize) -> std::ops::Range<usize> {
        let len = self.grid_ranks() * self.summa.block * self.summa.block;
        v * len..(v + 1) * len
    }

    /// Where the RMSE of BPMF variant `v` sits in [`PassOut::data`].
    fn rmse_index(&self, v: usize) -> usize {
        self.c_range(SUMMA.len() - 1).end + v
    }
}

/// What the SUMMA kernels do before their timed region, as far as it can
/// be done from outside: the grid split, then (hybrids) the two panel
/// windows, then the grid barrier.
fn summa_setup(ctx: &mut Ctx, spec: &SummaSpec, windows: bool, sync: bool) {
    let world = ctx.world();
    let Some(g) = GridComms::build(ctx, &world, spec.q) else {
        return;
    };
    let counts = vec![spec.block * spec.block; g.q];
    let panels = windows.then(|| {
        [&g.row, &g.col].map(|comm| {
            let hc = HybridComm::new(ctx, comm, spec.tuning.clone());
            HyAllgatherv::<f64>::new(ctx, &hc, &counts)
        })
    });
    if sync {
        barrier::tuned(ctx, &g.grid);
    }
    drop(panels);
}

impl Workload for AppsReal {
    fn name(&self) -> &'static str {
        "apps_real"
    }

    fn op_unit(&self) -> &'static str {
        "one rank finishing one SUMMA panel step or one Gibbs iteration"
    }

    fn ops_per_pass(&self) -> u64 {
        let summa = SUMMA.len() * self.grid_ranks() * self.summa.q;
        let bpmf = BPMF.len() * self.bpmf_cluster.total_cores() * self.bpmf.iters;
        (summa + bpmf) as u64
    }

    fn pass(&self, rung: Rung, arm: Arm) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        for variant in 0..SUMMA.len() {
            let (elapsed, c) = self.summa_universe(variant, rung, arm, &mut out.traffic)?;
            out.clocks.push(elapsed);
            out.data.extend(c);
        }
        let data = crate::spans::span("bpmf.synthesize", || Dataset::synthesize(&self.ratings));
        for variant in 0..BPMF.len() {
            let (elapsed, rmse) =
                self.bpmf_universe(variant, &data, rung, arm, &mut out.traffic)?;
            out.clocks.push(elapsed);
            out.data.extend(rmse.filter(|_| rung == Rung::Full));
        }
        out.virt_us = out.clocks.iter().sum();
        Ok(out)
    }

    /// Every C block against the serial product, the overlapped SUMMA
    /// against the blocking one bit for bit, and one factorization from
    /// both BPMF variants.
    fn verify(&self, full: &PassOut) -> Result<(), String> {
        let (q, b) = (self.summa.q, self.summa.block);
        if full.data.len() != self.rmse_index(BPMF.len()) {
            return Err(format!("a full pass returned {} values", full.data.len()));
        }
        for (v, (label, ..)) in SUMMA.iter().enumerate() {
            let blocks = full.data[self.c_range(v)].chunks(b * b);
            for (rank, got) in blocks.enumerate() {
                let got = Mat::from_col_major(b, b, got.to_vec());
                let distance = got.distance(&expected_c_block(q, b, rank / q, rank % q));
                if distance.is_nan() || distance >= C_BLOCK_TOL {
                    return Err(format!(
                        "{label}: C block of rank {rank} is {distance:e} from the serial product"
                    ));
                }
            }
        }
        let bits = |v: usize| {
            full.data[self.c_range(v)]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        if bits(1) != bits(2) {
            return Err("hy_summa_overlap and hy_summa computed different C blocks".into());
        }
        let (ori, hy) = (full.data[self.rmse_index(0)], full.data[self.rmse_index(1)]);
        if ori.to_bits() != hy.to_bits() || !ori.is_finite() {
            return Err(format!(
                "Hy_BPMF RMSE {hy} differs from Ori_BPMF RMSE {ori}"
            ));
        }
        Ok(())
    }
}
