//! `scale_events` — the many-ranks / few-ops use of `msim`: 64 nodes ×
//! 64 cores = 4096 phantom ranks on the event calendar, each building
//! the hybrid context and one allgather handle and then calling it six
//! times (the rank program of `crates/bench/src/bin/scale.rs`). The
//! calendar heap, park/wake, `setup_exchange`, the `Hierarchy` build and
//! the arena stacks dominate — where ROADMAP item 1's fixes land.
//!
//! Nothing here depends on the seed: the inputs are the cluster shape.

use bench::Machine;
use collectives::barrier;
use hmpi::{HyAllgather, HybridComm, SyncMethod};
use msim::{ExecMode, SimConfig};
use simnet::ClusterSpec;

use super::{expect_same_bits, launch, max, Arm, PassOut, Rung, Traffic, Workload, POOLED_1};

/// Doubles per rank in the allgather (phantom: modeled bytes only).
const ELEMS: usize = 64;
/// Timed collective calls per rank.
const CALLS: usize = 6;
/// The calendar commits stack pages lazily; the program keeps its data
/// in windows, so 64 KiB reserved per rank suffices (as `scale` does).
const STACK: usize = 64 << 10;

pub struct ScaleEvents {
    pub nodes: usize,
    pub ppn: usize,
    machine: Machine,
}

impl ScaleEvents {
    pub fn new(nodes: usize, ppn: usize) -> Self {
        Self {
            nodes,
            ppn,
            machine: Machine::hazel_hen(),
        }
    }

    pub fn standard() -> Self {
        Self::new(64, 64)
    }

    fn ranks(&self) -> usize {
        self.nodes * self.ppn
    }

    /// Per-rank modeled time of the `CALLS` collectives under `exec`.
    pub fn run(
        &self,
        exec: ExecMode,
        rung: Rung,
        arm: Arm,
        traffic: &mut Traffic,
    ) -> Result<Vec<f64>, String> {
        let cfg = SimConfig::new(
            ClusterSpec::regular(self.nodes, self.ppn),
            self.machine.cost.clone(),
        )
        .phantom()
        .with_stack_size(STACK)
        .with_exec(exec);
        let tuning = self.machine.tuning.clone();
        launch("universe", cfg, arm, traffic, move |ctx| {
            if rung < Rung::Comm {
                return 0.0;
            }
            let world = ctx.world();
            let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), SyncMethod::Barrier);
            if rung < Rung::Window {
                return 0.0;
            }
            let ag = HyAllgather::<f64>::new(ctx, &hc, ELEMS);
            if rung < Rung::Setup {
                return 0.0;
            }
            barrier::tuned(ctx, &world);
            let t = ctx.now();
            if rung == Rung::Full {
                for _ in 0..CALLS {
                    ag.execute(ctx);
                }
            }
            ctx.now() - t
        })
    }
}

impl Workload for ScaleEvents {
    fn name(&self) -> &'static str {
        "scale_events"
    }

    fn op_unit(&self) -> &'static str {
        "one rank completing one collective"
    }

    fn ops_per_pass(&self) -> u64 {
        (self.ranks() * CALLS) as u64
    }

    fn pass(&self, rung: Rung, arm: Arm) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        out.clocks = self.run(ExecMode::Events, rung, arm, &mut out.traffic)?;
        out.virt_us = max(&out.clocks);
        Ok(out)
    }

    /// The calendar must model exactly what the pooled executor models.
    fn verify(&self, full: &PassOut) -> Result<(), String> {
        let pooled = self.run(POOLED_1, Rung::Full, Arm::Plain, &mut Traffic::default())?;
        expect_same_bits("events vs pooled clocks", &full.clocks, &pooled)
    }
}
