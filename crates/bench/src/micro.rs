//! OSU-style allgather latency measurement (the micro-benchmark of the
//! paper's §5.1, "modified from the OSU benchmark").
//!
//! The measured region is `iters` back-to-back collective calls after a
//! warm-up barrier; the reported latency is the per-call average,
//! maximized over ranks — the OSU convention. Setup (communicator
//! splitting, window allocation, counts/displs) happens before the timed
//! region, matching the paper's "extra one-off activities are not
//! evaluated".

use collectives::{allgather, barrier, smp_aware::SmpAware, SelectionPolicy};
use hmpi::{pipeline::HyAllgatherPipelined, HyAllgather, HybridComm, SyncMethod};
use msim::{ExecMode, SimConfig, Universe};
use simnet::{ClusterSpec, Placement};

use crate::machines::Machine;

/// Which allgather implementation to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherVariant {
    /// The paper's hybrid allgather (barrier / bridge Allgatherv /
    /// barrier), default barrier synchronization.
    Hybrid,
    /// The hybrid allgather with an explicit synchronization flavor
    /// (§6 ablation).
    HybridSync(SyncMethod),
    /// The hybrid allgather with the pipelined bridge exchange (large
    /// messages; the paper's reference \[30\]).
    HybridPipelined {
        /// Ring segment size in elements.
        segment_elems: usize,
    },
    /// The hybrid allgather with autotuned selection: the
    /// [`SelectionPolicy`] picks the sync flavor and the bridge algorithm
    /// from cost-model estimates instead of the legacy thresholds.
    HybridAuto,
    /// The naive pure-MPI baseline: SMP-aware hierarchical allgather
    /// (paper Fig. 3a).
    PureSmpAware,
    /// The flat library algorithm (no node awareness), for reference.
    PureFlat,
    /// The multi-leader SMP-aware variant (paper reference \[14\]).
    MultiLeader {
        /// Leaders per node.
        leaders: usize,
    },
    /// The multi-leader *hybrid* allgather: bridge traffic striped over
    /// `k` leader slots per node, straight from and into the shared
    /// window (`allgather.hy_kleader`). `leaders == 1` is the plain
    /// hybrid allgather: the same handle, the same measurement arm.
    HybridKLeader {
        /// Leader slots per node.
        leaders: usize,
        /// On-node synchronization flavor.
        sync: SyncMethod,
    },
}

/// Measure the allgather latency (µs per call, max over ranks) for
/// `elems` doubles per rank on the given cluster/machine, in phantom
/// mode, on the given pool width. Virtual times are width-invariant by
/// construction — the regression goldens *prove* it by pinning the same
/// numbers on one worker and at the default width — so most callers
/// just pass `ExecMode::default()`.
pub fn allgather_latency(
    spec: ClusterSpec,
    machine: &Machine,
    elems: usize,
    variant: AllgatherVariant,
    placement: Placement,
    exec: ExecMode,
) -> f64 {
    let cfg = SimConfig::new(spec, machine.cost.clone())
        .phantom()
        .with_placement(placement)
        .with_exec(exec);
    let tuning = machine.tuning.clone();
    let iters = 3usize;
    let result = Universe::run(cfg, move |ctx| {
        let world = ctx.world();
        let p = world.size();
        match variant {
            AllgatherVariant::Hybrid
            | AllgatherVariant::HybridSync(_)
            | AllgatherVariant::HybridKLeader { .. } => {
                let (leaders, sync) = match variant {
                    AllgatherVariant::HybridSync(sync) => (1, sync),
                    AllgatherVariant::HybridKLeader { leaders, sync } => (leaders, sync),
                    _ => (1, SyncMethod::Barrier),
                };
                let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), sync);
                let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, elems, leaders);
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                for _ in 0..iters {
                    ag.execute(ctx);
                }
                (ctx.now() - t0) / iters as f64
            }
            AllgatherVariant::HybridAuto => {
                let policy = SelectionPolicy::autotune(tuning.clone());
                let hc = HybridComm::with_policy(ctx, &world, policy);
                // Hybrid-vs-flat goes through the same policy interface as
                // every other selection (windowed schedule vs library
                // algorithms over the parent communicator).
                if hc.use_windowed_allgather(ctx, elems * 8 * p) {
                    let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
                    barrier::tuned(ctx, &world);
                    let t0 = ctx.now();
                    for _ in 0..iters {
                        ag.execute(ctx);
                    }
                    (ctx.now() - t0) / iters as f64
                } else {
                    let send = ctx.buf_zeroed::<f64>(elems);
                    let mut recv = ctx.buf_zeroed::<f64>(elems * p);
                    barrier::tuned(ctx, &world);
                    let t0 = ctx.now();
                    for _ in 0..iters {
                        allgather::tuned(ctx, &world, &send, &mut recv, hc.select());
                    }
                    (ctx.now() - t0) / iters as f64
                }
            }
            AllgatherVariant::HybridPipelined { segment_elems } => {
                let hc = HybridComm::new(ctx, &world, tuning.clone());
                let ag = HyAllgatherPipelined::<f64>::new(ctx, &hc, elems, segment_elems);
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                for _ in 0..iters {
                    ag.execute(ctx);
                }
                (ctx.now() - t0) / iters as f64
            }
            AllgatherVariant::PureSmpAware => {
                let sa = SmpAware::new(ctx, &world, tuning.clone());
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * p);
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                for _ in 0..iters {
                    sa.allgather(ctx, &send, &mut recv);
                }
                (ctx.now() - t0) / iters as f64
            }
            AllgatherVariant::PureFlat => {
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * p);
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                for _ in 0..iters {
                    allgather::tuned(ctx, &world, &send, &mut recv, &tuning);
                }
                (ctx.now() - t0) / iters as f64
            }
            AllgatherVariant::MultiLeader { leaders } => {
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * p);
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                for _ in 0..iters {
                    collectives::smp_aware::multi_leader_allgather(
                        ctx, &world, &send, &mut recv, leaders, &tuning,
                    );
                }
                (ctx.now() - t0) / iters as f64
            }
        }
    })
    .expect("benchmark universe must not fail");
    result.per_rank.into_iter().fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::cluster_for;

    #[test]
    fn single_node_hybrid_is_flat_in_message_size() {
        let m = Machine::hazel_hen();
        let t_small = allgather_latency(
            ClusterSpec::single_node(8),
            &m,
            1,
            AllgatherVariant::Hybrid,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        let t_big = allgather_latency(
            ClusterSpec::single_node(8),
            &m,
            1 << 14,
            AllgatherVariant::Hybrid,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        assert!(
            (t_big - t_small).abs() < 1e-9,
            "hybrid single-node latency must not depend on size: {t_small} vs {t_big}"
        );
    }

    #[test]
    fn pure_grows_with_message_size() {
        let m = Machine::vulcan();
        let spec = ClusterSpec::single_node(8);
        let t_small = allgather_latency(
            spec.clone(),
            &m,
            1,
            AllgatherVariant::PureSmpAware,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        let t_big = allgather_latency(
            spec,
            &m,
            1 << 14,
            AllgatherVariant::PureSmpAware,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        assert!(t_big > t_small * 5.0, "{t_small} -> {t_big}");
    }

    #[test]
    fn hybrid_wins_on_multi_node_multi_ppn() {
        let m = Machine::hazel_hen();
        let spec = cluster_for(4 * 24);
        let hy = allgather_latency(
            spec.clone(),
            &m,
            512,
            AllgatherVariant::Hybrid,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        let pure = allgather_latency(
            spec,
            &m,
            512,
            AllgatherVariant::PureSmpAware,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        assert!(hy < pure, "hybrid {hy} vs pure {pure}");
    }
}
