//! Regular hybrid all-to-all: the uniform-count layout of
//! [`HyAlltoallv`], the way [`crate::HyAllgather`] is of
//! [`crate::HyAllgatherv`]. Block offsets stay arithmetic — no p×p table
//! is ever built — and the exchange is the irregular one's (see
//! [`crate::alltoallv`] for the window layout and the schedule).

use msim::{Ctx, ShmElem};
use std::ops::Deref;

use crate::alltoallv::{HyAlltoallv, IHyAlltoallv};
use crate::hybrid::HybridComm;

/// A hybrid all-to-all handle for `count` elements per (source,
/// destination) pair. Dereferences to its [`HyAlltoallv`] for everything
/// but construction.
#[derive(Debug, Clone)]
pub struct HyAlltoall<T> {
    inner: HyAlltoallv<T>,
    count: usize,
}

impl<T: ShmElem> HyAlltoall<T> {
    /// One-off setup over the hybrid communicator.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize) -> Self {
        Self {
            inner: HyAlltoallv::uniform(ctx, hc, count),
            count,
        }
    }

    /// Elements per (source, destination) block.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl<T> Deref for HyAlltoall<T> {
    type Target = HyAlltoallv<T>;

    fn deref(&self) -> &HyAlltoallv<T> {
        &self.inner
    }
}

/// An in-flight hybrid all-to-all.
pub type IHyAlltoall<'a, T> = IHyAlltoallv<'a, T>;

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Tuning;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, Placement};

    /// Block from source s to destination d carries s*100 + d + k/1000.
    fn blockval(s: usize, d: usize, k: usize) -> f64 {
        (s * 100 + d) as f64 + k as f64 / 1000.0
    }

    fn check(cfg: SimConfig, count: usize) {
        let p = cfg.spec.total_cores();
        let out = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let a2a = HyAlltoall::<f64>::new(ctx, &hc, count);
            let me = ctx.rank();
            for dest in 0..world.size() {
                let data: Vec<f64> = (0..count).map(|k| blockval(me, dest, k)).collect();
                a2a.write_block(ctx, dest, &data);
            }
            a2a.execute(ctx);
            (0..world.size())
                .flat_map(|src| a2a.read_block(src))
                .collect::<Vec<f64>>()
        })
        .unwrap();
        for (rank, got) in out.per_rank.iter().enumerate() {
            let expected: Vec<f64> = (0..p)
                .flat_map(|src| (0..count).map(move |k| blockval(src, rank, k)))
                .collect();
            assert_eq!(got, &expected, "rank {rank}");
        }
    }

    #[test]
    fn correct_on_regular_clusters() {
        for (nodes, ppn) in [(1, 4), (2, 3), (3, 2), (2, 4)] {
            let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
            check(cfg, 3);
        }
    }

    #[test]
    fn correct_on_irregular_cluster_and_round_robin() {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![3, 1, 4]),
            CostModel::uniform_test(),
        );
        check(cfg, 2);
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        check(cfg, 2);
    }

    #[test]
    fn one_message_per_node_pair() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 4), CostModel::cray_aries())
            .phantom()
            .traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let a2a = HyAlltoall::<f64>::new(ctx, &hc, 16);
            a2a.execute(ctx);
        })
        .unwrap();
        // Inter-node data messages: exactly nodes*(nodes-1) = 6.
        let inter_payload_msgs = r
            .tracer
            .events()
            .iter()
            .filter(|e| {
                matches!(e.kind, simnet::EventKind::Send { bytes, intra: false, .. } if bytes > 0)
            })
            .count();
        assert_eq!(inter_payload_msgs, 6);
        // And zero intra-node payload traffic.
        let intra_payload: usize = r
            .tracer
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                simnet::EventKind::Send {
                    bytes, intra: true, ..
                } => Some(bytes),
                _ => None,
            })
            .sum();
        assert_eq!(intra_payload, 0);
    }

    #[test]
    fn beats_flat_alltoall_on_multi_core_nodes() {
        let count = 256usize;
        let hy = {
            let cfg = SimConfig::new(ClusterSpec::regular(4, 8), CostModel::cray_aries()).phantom();
            Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
                let a2a = HyAlltoall::<f64>::new(ctx, &hc, count);
                collectives::barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                a2a.execute(ctx);
                ctx.now() - t0
            })
            .unwrap()
            .per_rank
            .into_iter()
            .fold(0.0f64, f64::max)
        };
        let flat = {
            let cfg = SimConfig::new(ClusterSpec::regular(4, 8), CostModel::cray_aries()).phantom();
            Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let send = ctx.buf_zeroed::<f64>(count * world.size());
                let mut recv = ctx.buf_zeroed::<f64>(count * world.size());
                collectives::barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                collectives::alltoall::tuned(
                    ctx,
                    &world,
                    &send,
                    &mut recv,
                    count,
                    &Tuning::cray_mpich(),
                );
                ctx.now() - t0
            })
            .unwrap()
            .per_rank
            .into_iter()
            .fold(0.0f64, f64::max)
        };
        assert!(
            hy < flat,
            "hybrid all-to-all ({hy}) must beat flat ({flat})"
        );
    }
}
