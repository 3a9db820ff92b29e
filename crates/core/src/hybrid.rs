//! The one-off hybrid setup: hierarchical splitting + tuning + sync
//! choice, amortized over all subsequent collective calls (paper §4.1:
//! "the hierarchical communicator splitting and the allocation of the
//! shared-memory segment are one-offs").

use collectives::{
    CollectiveOp, CommCase, FaultPolicy, Hierarchy, Select, SelectionPolicy, Tuning,
};
use msim::{Communicator, Ctx};

use crate::sync::SyncMethod;

/// A communicator prepared for hybrid MPI+MPI collectives.
///
/// Holds the two-level communicator hierarchy (shared-memory + bridge) of
/// the paper's Figs. 1–2, the MPI-library tuning used for the bridge
/// exchanges, and the on-node synchronization method. Built through
/// [`HybridComm::with_policy`], it additionally carries a
/// [`SelectionPolicy`] that picked the sync flavor and that the hybrid
/// collectives consult for their bridge algorithms.
#[derive(Debug, Clone)]
pub struct HybridComm {
    comm: Communicator,
    h: Hierarchy,
    tuning: Tuning,
    sync: SyncMethod,
    policy: Option<SelectionPolicy>,
}

impl HybridComm {
    /// Collectively build the hybrid context over `comm` with the paper's
    /// default synchronization (`MPI_Barrier`).
    pub fn new(ctx: &mut Ctx, comm: &Communicator, tuning: Tuning) -> Self {
        Self::with_sync(ctx, comm, tuning, SyncMethod::Barrier)
    }

    /// Collectively build with an explicit synchronization flavor.
    pub fn with_sync(ctx: &mut Ctx, comm: &Communicator, tuning: Tuning, sync: SyncMethod) -> Self {
        let h = Hierarchy::build(ctx, comm);
        Self {
            comm: comm.clone(),
            h,
            tuning,
            sync,
            policy: None,
        }
    }

    /// Collectively build with a [`SelectionPolicy`]: the policy picks the
    /// on-node synchronization flavor here (one decision per communicator,
    /// the paper's one-off setup) and is consulted again by each hybrid
    /// collective for its bridge algorithm.
    pub fn with_policy(ctx: &mut Ctx, comm: &Communicator, policy: SelectionPolicy) -> Self {
        let h = Hierarchy::build(ctx, comm);
        let case = CommCase::new(CollectiveOp::Sync, h.shm.size(), 1, 0);
        let sync = match policy.choose(ctx, &case) {
            "sync.shared_flags" => SyncMethod::SharedFlags,
            "sync.p2p" => SyncMethod::P2p,
            _ => SyncMethod::Barrier,
        };
        Self {
            comm: comm.clone(),
            h,
            tuning: policy.tuning().clone(),
            sync,
            policy: Some(policy),
        }
    }

    /// The selection policy, when built through
    /// [`HybridComm::with_policy`].
    pub fn policy(&self) -> Option<&SelectionPolicy> {
        self.policy.as_ref()
    }

    /// How the flat collectives inside the hybrid ones (the bridge
    /// exchanges) pick their algorithm: the policy, which records why,
    /// when built through [`HybridComm::with_policy`]; the legacy
    /// thresholds of the tuning otherwise. The fees are the same either
    /// way.
    pub fn select(&self) -> Select<'_> {
        match &self.policy {
            Some(policy) => Select::Policy(policy),
            None => Select::Legacy(&self.tuning),
        }
    }

    /// Policy-driven hybrid-vs-flat choice for an allgather of
    /// `total_bytes` result bytes over this communicator: presents the
    /// *windowed* case (shared-window schedule applicable) and reports
    /// whether the policy picked it over the flat algorithms. Without a
    /// policy the legacy behavior applies — a window, once available, is
    /// always used.
    pub fn use_windowed_allgather(&self, ctx: &mut Ctx, total_bytes: usize) -> bool {
        let case = CommCase::new(
            CollectiveOp::Allgather,
            self.comm.size(),
            self.h.num_groups(),
            total_bytes,
        )
        .windowed();
        match &self.policy {
            Some(policy) => policy.choose(ctx, &case) == "allgather.hy_shared_window",
            None => true,
        }
    }

    /// Estimated-best leader count for a handle on this communicator:
    /// prices the k-leader schedule of `op` at `total_bytes` for k = 1,
    /// 2, 4, … up to `max_k` on the cost model and returns the argmin.
    /// Feed the answer to [`crate::HyAllgather::with_leaders`] and
    /// friends to pick up the ppn- and size-dependent k > 1 crossovers
    /// without sweeping the simulator.
    pub fn recommended_leaders(
        &self,
        ctx: &Ctx,
        op: CollectiveOp,
        total_bytes: usize,
        max_k: usize,
    ) -> usize {
        let case = CommCase::new(op, self.comm.size(), self.h.num_groups(), total_bytes).windowed();
        collectives::registry::recommended_leaders(ctx.cost(), &case, max_k)
    }

    /// The fault policy a fault-aware driver should apply to operations
    /// over this communicator: the one attached to the selection policy,
    /// or [`FaultPolicy::Abort`] when built without a policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.policy
            .as_ref()
            .map(|p| p.fault_policy())
            .unwrap_or_default()
    }

    /// The parent communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// The communicator hierarchy (shared-memory + bridge).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// The MPI tuning used on the bridge.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// The on-node synchronization flavor.
    pub fn sync(&self) -> SyncMethod {
        self.sync
    }

    /// Whether this rank leads its node group.
    pub fn is_leader(&self) -> bool {
        self.h.is_leader()
    }

    /// Number of node groups (bridge size).
    pub fn num_nodes(&self) -> usize {
        self.h.num_groups()
    }

    /// True when the whole communicator lives on one node — the paper's
    /// first extreme case, where the collectives reduce to a single
    /// barrier.
    pub fn single_node(&self) -> bool {
        self.h.num_groups() == 1
    }

    /// Wall-clock-only rendezvous over the parent communicator; charges
    /// **no virtual time**. Call before rewriting a shared window that
    /// other ranks may still be reading from the previous collective —
    /// see [`msim::Ctx::oob_fence`] for why the simulator needs this.
    pub fn fence(&self, ctx: &mut Ctx) {
        ctx.oob_fence(&self.comm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel};

    #[test]
    fn builds_on_multi_node_cluster() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 2), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            (hc.num_nodes(), hc.single_node(), hc.is_leader(), hc.sync())
        })
        .unwrap();
        assert_eq!(r.per_rank[0], (3, false, true, SyncMethod::Barrier));
        assert_eq!(r.per_rank[1], (3, false, false, SyncMethod::Barrier));
    }

    #[test]
    fn policy_steers_hybrid_vs_flat_choice() {
        use collectives::{SelectionPolicy, TableEntry, TuningTable};
        let cfg = || SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries()).phantom();
        // Autotune: the windowed schedule's estimate (two on-node
        // synchronizations plus the bridge rounds) undercuts every flat
        // algorithm, so the policy keeps the hybrid path.
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let hc = HybridComm::with_policy(
                ctx,
                &world,
                SelectionPolicy::autotune(Tuning::cray_mpich()),
            );
            hc.use_windowed_allgather(ctx, 4096)
        })
        .unwrap();
        assert!(
            r.per_rank.iter().all(|&w| w),
            "autotune should keep the windowed schedule"
        );
        // A table pinning allgather to the flat ring overrides it — the
        // hybrid-vs-flat decision flows through the same policy interface.
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let mut table = TuningTable::new("pin-flat");
            table.entries.push(TableEntry {
                op: CollectiveOp::Allgather,
                comm_le: usize::MAX,
                bytes_le: usize::MAX,
                algo: "allgather.ring".to_string(),
            });
            let hc = HybridComm::with_policy(
                ctx,
                &world,
                SelectionPolicy::table(Tuning::cray_mpich(), table),
            );
            hc.use_windowed_allgather(ctx, 4096)
        })
        .unwrap();
        assert!(
            r.per_rank.iter().all(|&w| !w),
            "table row must force the flat algorithm"
        );
    }

    #[test]
    fn single_node_detection() {
        let cfg = SimConfig::new(ClusterSpec::single_node(4), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::open_mpi());
            hc.single_node()
        })
        .unwrap();
        assert!(r.per_rank.iter().all(|&s| s));
    }
}
