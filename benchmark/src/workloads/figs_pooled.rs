//! `figs_pooled` — the many-short-universes use of the same layers:
//! eight 96-rank phantom universes per pass, one per cell of {hybrid,
//! pure SMP-aware, hybrid 2-leader, hybrid autotuned} × {512, 16384
//! doubles}, three timed calls each, on the pooled executor with the
//! default 1 MiB stacks — what `fig7`–`fig9` do per table cell. Launch,
//! stack allocation, `Communicator::split`, registry/policy selection
//! and the single-/k-leader handles dominate; about 70 % of a pass is
//! set-up.
//!
//! The rank programs mirror the arms of `bench::micro::allgather_latency`
//! (which has no zero-call form); `verify` pins them to it bit for bit.
//! The seed shuffles the order in which the cells run.

use bench::{allgather_latency, AllgatherVariant, Machine};
use collectives::smp_aware::SmpAware;
use collectives::{allgather, barrier, SelectionPolicy};
use hmpi::{HyAllgather, HyKAllgather, HybridComm, SyncMethod};
use msim::{Ctx, ExecMode, SimConfig};
use simnet::rng::Rng64;
use simnet::{ClusterSpec, Placement};

use super::{launch, max, Arm, PassOut, Rung, Traffic, Workload, POOLED_1};

/// Timed calls per cell, as in `allgather_latency`.
const CALLS: usize = 3;

const VARIANTS: [AllgatherVariant; 4] = [
    AllgatherVariant::Hybrid,
    AllgatherVariant::PureSmpAware,
    AllgatherVariant::HybridKLeader {
        leaders: 2,
        sync: SyncMethod::Barrier,
    },
    AllgatherVariant::HybridAuto,
];

pub struct FigsPooled {
    spec: ClusterSpec,
    machine: Machine,
    /// `(variant, doubles per rank)`, in canonical order.
    cells: Vec<(AllgatherVariant, usize)>,
    /// Seeded order in which a pass runs the cells.
    order: Vec<usize>,
}

impl FigsPooled {
    pub fn new(nodes: usize, ppn: usize, sizes: &[usize], seed: u64) -> Self {
        let cells: Vec<_> = VARIANTS
            .iter()
            .flat_map(|&v| sizes.iter().map(move |&n| (v, n)))
            .collect();
        let mut order: Vec<usize> = (0..cells.len()).collect();
        Rng64::new(seed).shuffle(&mut order);
        Self {
            spec: ClusterSpec::regular(nodes, ppn),
            machine: Machine::hazel_hen(),
            cells,
            order,
        }
    }

    pub fn standard(seed: u64) -> Self {
        Self::new(4, 24, &[512, 16384], seed)
    }

    /// Latency per call (µs, max over ranks) of one cell; 0 below
    /// [`Rung::Full`].
    fn cell(&self, idx: usize, rung: Rung, arm: Arm, traffic: &mut Traffic) -> Result<f64, String> {
        let (variant, elems) = self.cells[idx];
        let cfg = SimConfig::new(self.spec.clone(), self.machine.cost.clone())
            .phantom()
            .with_exec(POOLED_1);
        let tuning = self.machine.tuning.clone();
        let per_rank = launch(&format!("cell{idx}"), cfg, arm, traffic, move |ctx| {
            if rung < Rung::Comm {
                return 0.0;
            }
            let world = ctx.world();
            let p = world.size();
            // Each arm: build its communicator layer (P1), its handle or
            // buffers (P2), then hand `timed` the one collective call.
            match variant {
                AllgatherVariant::Hybrid => {
                    let hc =
                        HybridComm::with_sync(ctx, &world, tuning.clone(), SyncMethod::Barrier);
                    if rung < Rung::Window {
                        return 0.0;
                    }
                    let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
                    timed(ctx, rung, |ctx| ag.execute(ctx))
                }
                AllgatherVariant::HybridKLeader { leaders, sync } => {
                    let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), sync);
                    if rung < Rung::Window {
                        return 0.0;
                    }
                    let ag = HyKAllgather::<f64>::new(ctx, &hc, elems, leaders);
                    timed(ctx, rung, |ctx| ag.execute(ctx))
                }
                AllgatherVariant::PureSmpAware => {
                    let sa = SmpAware::new(ctx, &world, tuning.clone());
                    if rung < Rung::Window {
                        return 0.0;
                    }
                    let send = ctx.buf_zeroed::<f64>(elems);
                    let mut recv = ctx.buf_zeroed::<f64>(elems * p);
                    timed(ctx, rung, |ctx| sa.allgather(ctx, &send, &mut recv))
                }
                AllgatherVariant::HybridAuto => {
                    let hc = HybridComm::with_policy(
                        ctx,
                        &world,
                        SelectionPolicy::autotune(tuning.clone()),
                    );
                    if rung < Rung::Window {
                        return 0.0;
                    }
                    if hc.use_windowed_allgather(ctx, elems * 8 * p) {
                        let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
                        timed(ctx, rung, |ctx| ag.execute(ctx))
                    } else {
                        let send = ctx.buf_zeroed::<f64>(elems);
                        let mut recv = ctx.buf_zeroed::<f64>(elems * p);
                        let policy = hc.policy().expect("built with a policy");
                        timed(ctx, rung, |ctx| {
                            allgather::with_policy(ctx, &world, &send, &mut recv, policy)
                        })
                    }
                }
                other => unreachable!("{other:?} is not a figs_pooled cell"),
            }
        })?;
        Ok(max(&per_rank))
    }
}

/// P3 and P4 of every arm: the barrier, then `CALLS` calls of `call`.
fn timed(ctx: &mut Ctx, rung: Rung, mut call: impl FnMut(&mut Ctx)) -> f64 {
    if rung < Rung::Setup {
        return 0.0;
    }
    let world = ctx.world();
    barrier::tuned(ctx, &world);
    if rung < Rung::Full {
        return 0.0;
    }
    let t0 = ctx.now();
    for _ in 0..CALLS {
        call(ctx);
    }
    (ctx.now() - t0) / CALLS as f64
}

impl Workload for FigsPooled {
    fn name(&self) -> &'static str {
        "figs_pooled"
    }

    fn op_unit(&self) -> &'static str {
        "one rank completing one collective"
    }

    fn ops_per_pass(&self) -> u64 {
        (self.cells.len() * self.spec.total_cores() * CALLS) as u64
    }

    fn pass(&self, rung: Rung, arm: Arm) -> Result<PassOut, String> {
        let mut out = PassOut {
            clocks: vec![0.0; self.cells.len()],
            ..PassOut::default()
        };
        for &idx in &self.order {
            out.clocks[idx] = self.cell(idx, rung, arm, &mut out.traffic)?;
        }
        out.virt_us = out.clocks.iter().sum();
        Ok(out)
    }

    /// Every cell must read what `bench::allgather_latency` reads under
    /// the event calendar, and the paper's claim must hold at the large
    /// size: hybrid no slower than the pure SMP-aware baseline.
    fn verify(&self, full: &PassOut) -> Result<(), String> {
        for (idx, &(variant, elems)) in self.cells.iter().enumerate() {
            let want = allgather_latency(
                self.spec.clone(),
                &self.machine,
                elems,
                variant,
                Placement::SmpBlock,
                ExecMode::Events,
            );
            let got = full.clocks[idx];
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "{variant:?} x {elems}: {got:e} us, allgather_latency reads {want:e}"
                ));
            }
        }
        let largest = self.cells.iter().map(|c| c.1).max().expect("cells exist");
        let at = |v: AllgatherVariant| {
            let idx = self
                .cells
                .iter()
                .position(|&c| c == (v, largest))
                .expect("cell exists");
            full.clocks[idx]
        };
        let (hy, pure) = (
            at(AllgatherVariant::Hybrid),
            at(AllgatherVariant::PureSmpAware),
        );
        if hy > pure {
            return Err(format!(
                "hybrid {hy} us slower than pure {pure} us at {largest} doubles"
            ));
        }
        Ok(())
    }
}
