//! Hybrid reduce-scatter — the same recipe as [`crate::HyAllreduce`],
//! but each rank keeps only its own segment of the reduced vector
//! (`MPI_Reduce_scatter`), so the per-node window holds just the node's
//! slice instead of the full result.
//!
//! The global vector is laid out in *node-sorted* rank order (as in the
//! hybrid allgather): rank `r`'s result segment of `counts[r]` elements
//! sits at [`HyReduceScatter::segment_offset`]`(r)`. That makes every
//! node's aggregate segment contiguous, so the leaders can run a flat
//! `reduce_scatter` on the bridge communicator with one count per node —
//! selected through the registry (`tuned` thresholds or a
//! [`collectives::SelectionPolicy`], with decision-log attribution) —
//! straight into the node-shared window.

use collectives::op::ReduceOp;
use collectives::{reduce as coll_reduce, reduce_scatter as coll_rs};
use collectives::{IColl, LeaderSet};
use msim::{Buf, Ctx, Drive, SharedWindow, ShmElem, WaitError};

use crate::envelope::{HyOp, Open, Stage};
use crate::hybrid::HybridComm;

/// A hybrid reduce-scatter handle: rank `r` receives the reduction of
/// its `counts[r]`-element segment.
#[derive(Debug, Clone)]
pub struct HyReduceScatter<T> {
    hc: HybridComm,
    ls: LeaderSet,
    /// Result segment length per parent rank.
    counts: Vec<usize>,
    /// Global element offset of each parent rank's segment (node-sorted
    /// layout).
    offsets: Vec<usize>,
    /// Aggregate segment length per node group (bridge exchange counts).
    group_sums: Vec<usize>,
    /// Global offset of the own group's slab.
    group_start: usize,
    /// Total vector length.
    total: usize,
    /// Node-shared window holding the node's reduced slab.
    win: SharedWindow<T>,
}

impl<T: ShmElem> HyReduceScatter<T> {
    /// One-off setup: the node leader allocates a window for the node's
    /// aggregate segment; children address it through the shared handle.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, counts: &[usize]) -> Self {
        let h = hc.hierarchy();
        let p = hc.comm().size();
        assert_eq!(counts.len(), p, "one count per rank required");

        // Node-sorted layout: group 0's members first, then group 1's, …
        let mut offsets = vec![0usize; p];
        let mut acc = 0usize;
        for &r in h.node_sorted.iter() {
            offsets[r] = acc;
            acc += counts[r];
        }
        let total = acc;
        let group_sums: Vec<usize> = h
            .group_members
            .iter()
            .map(|members| members.iter().map(|&r| counts[r]).sum())
            .collect();
        let group_start: usize = group_sums[..h.node_index].iter().sum();

        let my_len = if hc.is_leader() {
            group_sums[h.node_index]
        } else {
            0
        };
        let win = SharedWindow::allocate(ctx, &h.shm, my_len);

        Self {
            hc: hc.clone(),
            ls: LeaderSet::build(ctx, hc.comm(), h, 1),
            counts: counts.to_vec(),
            offsets,
            group_sums,
            group_start,
            total,
            win,
        }
    }

    /// Total vector length (`sum(counts)`). Contributions must be laid
    /// out in node-sorted segment order.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Global element offset of parent rank `r`'s segment inside the
    /// node-sorted vector — where `r`'s contribution slice starts.
    pub fn segment_offset(&self, r: usize) -> usize {
        self.offsets[r]
    }

    /// Element count of parent rank `r`'s result segment.
    pub fn segment_len(&self, r: usize) -> usize {
        self.counts[r]
    }

    /// The node-shared window holding this node's reduced slab.
    pub fn window(&self) -> &SharedWindow<T> {
        &self.win
    }

    /// Read this rank's reduced segment (direct load from the window).
    pub fn read_result(&self) -> Vec<T> {
        let me = self.hc.comm().rank();
        let mut out = vec![T::default(); self.counts[me]];
        self.win
            .read_into(self.offsets[me] - self.group_start, &mut out);
        out
    }

    /// Perform the reduce-scatter over every rank's full-vector
    /// `contribution` (node-sorted layout, [`HyReduceScatter::total`]
    /// elements): intra-node reduce to the leader, leaders reduce-scatter
    /// across the bridge straight into the windows, one release.
    pub fn execute<O: ReduceOp<T>>(&self, ctx: &mut Ctx, contribution: &Buf<T>, op: O) {
        let stage = RsStage::new(ctx, self, contribution, op);
        HyOp::run(ctx, stage);
    }

    /// Start the reduce-scatter nonblocking. As with
    /// [`crate::HyAllreduce`], the intra-node reduce (a rooted tree)
    /// runs at start; the bridge exchange and the release advance on
    /// [`msim::Request`] polls. `iexecute(…) + wait` is bit-identical to
    /// [`HyReduceScatter::execute`] modulo the `Req*` trace markers.
    pub fn iexecute<'a, O: ReduceOp<T>>(
        &'a self,
        ctx: &mut Ctx,
        contribution: &Buf<T>,
        op: O,
    ) -> IHyReduceScatter<'a, T, O> {
        let stage = RsStage::new(ctx, self, contribution, op);
        HyOp::start(ctx, stage)
    }
}

/// The reduce-scatter bridge stage (see [`HyReduceScatter::iexecute`]):
/// leaders reduce-scatter the node accumulations across the bridge, one
/// segment per node, straight into the windows.
pub struct RsStage<'a, T: ShmElem, O: ReduceOp<T>> {
    rs: &'a HyReduceScatter<T>,
    node_acc: Buf<T>,
    op: O,
}

impl<'a, T: ShmElem, O: ReduceOp<T>> RsStage<'a, T, O> {
    fn new(ctx: &mut Ctx, rs: &'a HyReduceScatter<T>, contribution: &Buf<T>, op: O) -> Self {
        assert_eq!(contribution.len(), rs.total, "contribution length mismatch");
        let shm = &rs.hc.hierarchy().shm;
        // On-node reduction of the full vector to the leader (rooted
        // tree, runs blocking even under `iexecute`).
        let len = if shm.rank() == 0 { rs.total } else { 0 };
        let mut node_acc = ctx.buf_zeroed::<T>(len);
        coll_reduce::binomial(ctx, shm, contribution, &mut node_acc, 0, op);
        Self { rs, node_acc, op }
    }
}

impl<T: ShmElem, O: ReduceOp<T>> Stage for RsStage<'_, T, O> {
    const OP: &'static str = "ihyreduce_scatter";
    type Bridge = (coll_rs::TunedSm<T>, Buf<T>);

    fn hc(&self) -> &HybridComm {
        &self.rs.hc
    }

    fn leaders(&self) -> &LeaderSet {
        &self.rs.ls
    }

    fn open(&self) -> Open {
        Open::Bridge
    }

    fn start(&mut self, ctx: &mut Ctx) -> Self::Bridge {
        let rs = self.rs;
        let bridge = rs.ls.bridge.as_ref().expect("leaders carry the bridge");
        let sm = coll_rs::TunedSm::new(ctx, bridge, &rs.group_sums, rs.hc.select());
        (sm, Buf::Shared(rs.win.clone()))
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        (sm, view): &mut Self::Bridge,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let rs = self.rs;
        let bridge = rs.ls.bridge.as_ref().expect("leaders carry the bridge");
        sm.drive(
            ctx,
            bridge,
            &self.node_acc,
            &rs.group_sums,
            view,
            self.op,
            how,
        )
    }
}

/// An in-flight hybrid reduce-scatter.
pub type IHyReduceScatter<'a, T, O> = IColl<HyOp<RsStage<'a, T, O>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::op::Sum;
    use collectives::{CollectiveOp, SelectionPolicy, Tuning};
    use msim::{Request, SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel};

    fn seg_len(r: usize) -> usize {
        (r % 3) + 1
    }

    fn check_sum(cfg: SimConfig, nonblocking: bool) {
        let p = cfg.spec.total_cores();
        let counts: Vec<usize> = (0..p).map(seg_len).collect();
        let out = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let rs = HyReduceScatter::<f64>::new(ctx, &hc, &counts);
            let total = rs.total();
            // Contribution in node-sorted layout: element j of rank r's
            // vector is (r+1) * (j+1).
            let mine = ctx.buf_from_fn(total, |j| ((ctx.rank() + 1) * (j + 1)) as f64);
            if nonblocking {
                let req = rs.iexecute(ctx, &mine, Sum);
                req.wait(ctx);
            } else {
                rs.execute(ctx, &mine, Sum);
            }
            (rs.segment_offset(ctx.rank()), rs.read_result())
        })
        .unwrap();
        let rank_sum: f64 = (1..=p).map(|x| x as f64).sum();
        for (rank, (off, got)) in out.per_rank.iter().enumerate() {
            assert_eq!(got.len(), seg_len(rank), "rank {rank} segment length");
            for (i, v) in got.iter().enumerate() {
                let expected = rank_sum * (off + i + 1) as f64;
                assert!(
                    (v - expected).abs() < 1e-9,
                    "rank {rank} elem {i}: {v} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn sum_on_various_clusters() {
        for (nodes, ppn) in [(1, 1), (1, 4), (2, 3), (4, 2), (3, 3)] {
            let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
            check_sum(cfg, false);
        }
    }

    #[test]
    fn nonblocking_matches_blocking_semantics() {
        for (nodes, ppn) in [(1, 2), (2, 2), (4, 2), (3, 3)] {
            let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
            check_sum(cfg, true);
        }
    }

    #[test]
    fn policy_records_bridge_decision() {
        // A policy-carrying hybrid communicator must attribute the bridge
        // reduce-scatter choice in its decision log.
        let cfg = SimConfig::new(ClusterSpec::regular(4, 2), CostModel::uniform_test());
        let decided = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let policy = SelectionPolicy::legacy(Tuning::cray_mpich());
            let hc = HybridComm::with_policy(ctx, &world, policy);
            let counts: Vec<usize> = (0..world.size()).map(seg_len).collect();
            let rs = HyReduceScatter::<f64>::new(ctx, &hc, &counts);
            let mine = ctx.buf_zeroed::<f64>(rs.total());
            rs.execute(ctx, &mine, Sum);
            hc.policy().map_or(0, |p| {
                p.log()
                    .decisions()
                    .iter()
                    .filter(|d| d.algo.op() == CollectiveOp::ReduceScatter)
                    .count()
            })
        })
        .unwrap();
        // Every leader of the 4-node run records exactly one decision.
        let total: usize = decided.per_rank.iter().sum();
        assert_eq!(total, 4, "one bridge decision per leader");
    }

    #[test]
    fn window_memory_is_one_slab_per_node() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::cray_aries()).traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let counts = vec![4usize; world.size()];
            let _rs = HyReduceScatter::<f64>::new(ctx, &hc, &counts);
        })
        .unwrap();
        // Each node's window holds only its 3 ranks' segments: 12 doubles.
        assert_eq!(r.tracer.total_window_bytes(), 2 * 12 * 8);
    }
}
