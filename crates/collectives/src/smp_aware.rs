//! SMP-aware (hierarchical) pure-MPI collectives — the paper's baseline.
//!
//! This is the "naive approach for the pure MPI version" of the paper's
//! Fig. 3a: every rank keeps a private copy of the full result buffer, and
//! the implementation is node-aware:
//!
//! 1. **aggregate** — each node's ranks gather their blocks at the node
//!    leader (intra-node memory copies),
//! 2. **exchange** — the leaders allgather the node aggregates over the
//!    bridge communicator,
//! 3. **broadcast** — each leader broadcasts the full buffer to its node's
//!    ranks (more intra-node copies).
//!
//! Steps 1 and 3 are exactly the on-node copies the paper's hybrid
//! approach eliminates.
//!
//! [`multi_leader_allgather`] is the multi-leader variant of the paper's
//! reference \[14\] (Kandalla et al.), provided for the ablation benches.

use msim::{Buf, Communicator, Ctx, ShmElem};

use crate::hierarchy::Hierarchy;
use crate::selection::Tuning;
use crate::{allgather, allgatherv, bcast, gather};

/// Precomputed state for SMP-aware collectives on one communicator
/// (hierarchy splitting is a one-off, as in the paper).
#[derive(Debug, Clone)]
pub struct SmpAware {
    comm: Communicator,
    h: Hierarchy,
    tuning: Tuning,
}

impl SmpAware {
    /// Collectively build over `comm`.
    pub fn new(ctx: &mut Ctx, comm: &Communicator, tuning: Tuning) -> Self {
        let h = Hierarchy::build(ctx, comm);
        Self {
            comm: comm.clone(),
            h,
            tuning,
        }
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// SMP-aware allgather: every rank contributes `send.len()` elements
    /// and receives the full result (comm.size() blocks, in rank order)
    /// in its **private** `recv` buffer.
    pub fn allgather<T: ShmElem>(&self, ctx: &mut Ctx, send: &Buf<T>, recv: &mut Buf<T>) {
        let p = self.comm.size();
        let count = send.len();
        assert_eq!(recv.len(), p * count, "recv must hold p blocks");
        // One MPI call, one entry fee; the stages below are internal.
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);

        // One process per node everywhere: the intra-node phases are
        // no-ops, so the library runs the flat algorithm directly (as
        // real SMP-aware implementations do).
        if self.h.group_members.iter().all(|m| m.len() == 1) {
            if let Some(bridge) = &self.h.bridge {
                allgather::tuned_uncharged(ctx, bridge, send, recv, &self.tuning);
            }
            return;
        }

        // 1. Aggregate at the node leader.
        let node_size = self.h.shm.size();
        let mut node_buf = if self.h.is_leader() {
            ctx.buf_zeroed::<T>(node_size * count)
        } else {
            ctx.buf_zeroed::<T>(0)
        };
        gather::binomial(ctx, &self.h.shm, send, &mut node_buf, 0);

        // 2. Exchange aggregates across the bridge (into node-sorted
        // order, which equals rank order for SMP placements).
        if let Some(bridge) = &self.h.bridge {
            let counts: Vec<usize> = (0..self.h.num_groups())
                .map(|g| self.h.group_size(g) * count)
                .collect();
            if counts.windows(2).all(|w| w[0] == w[1]) {
                allgather::tuned_uncharged(ctx, bridge, &node_buf, recv, &self.tuning);
            } else {
                allgatherv::tuned_uncharged(ctx, bridge, &node_buf, &counts, recv, &self.tuning);
            }
        }

        // 3. Broadcast the full buffer within the node.
        bcast::tuned_uncharged(ctx, &self.h.shm, recv, 0, &self.tuning);

        // 4. Permute node-sorted → rank order when the placement is not
        // SMP-style (§6 of the paper: derived datatypes / node-sorted rank
        // array, at a packing cost).
        if !self.h.is_rank_contiguous() {
            let mut tmp = ctx.buf_zeroed::<T>(p * count);
            tmp.copy_from(0, recv, 0, p * count);
            for (pos, &parent_rank) in self.h.node_sorted.iter().enumerate() {
                recv.copy_from(parent_rank * count, &tmp, pos * count, count);
            }
            ctx.charge_copy(2 * p * count * T::SIZE);
        }
    }

    /// SMP-aware broadcast: root → its node leader → leaders over the
    /// bridge → intra-node broadcast. Every rank has a private `buf`.
    pub fn bcast<T: ShmElem>(&self, ctx: &mut Ctx, buf: &mut Buf<T>, root: usize) {
        let p = self.comm.size();
        assert!(root < p, "bcast root {root} out of range");
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        if p == 1 {
            return;
        }
        let me = self.comm.rank();
        let len = buf.len();

        // Locate the root's node group and its leader.
        let root_group = self.h.locate(root).0;
        let root_leader = self.h.group_members[root_group][0];

        // Hop 1: root hands the message to its node leader (intra-node).
        if root != root_leader {
            if me == root {
                ctx.send_region(
                    &self.comm,
                    root_leader,
                    crate::tags::BCAST + 16,
                    buf,
                    0,
                    len,
                );
            } else if me == root_leader {
                let payload = ctx.recv(&self.comm, root, crate::tags::BCAST + 16);
                buf.write_payload(0, &payload);
            }
        }

        // Hop 2: leaders broadcast over the bridge (rooted at the root's
        // group, which is bridge rank == group index).
        if let Some(bridge) = &self.h.bridge {
            bcast::tuned_uncharged(ctx, bridge, buf, root_group, &self.tuning);
        }

        // Hop 3: intra-node broadcast from each leader.
        bcast::tuned_uncharged(ctx, &self.h.shm, buf, 0, &self.tuning);
    }
}

impl SmpAware {
    /// SMP-aware allreduce: reduce to the node leader, allreduce over the
    /// bridge, broadcast the result within the node. Every rank ends with
    /// a private copy of the reduced vector, as pure MPI semantics
    /// require.
    pub fn allreduce<T: ShmElem, O: crate::op::ReduceOp<T>>(
        &self,
        ctx: &mut Ctx,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        op: O,
    ) {
        let count = send.len();
        assert_eq!(recv.len(), count, "recv must match send length");
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);

        // 1. Reduce within the node (result in `recv` at the leader).
        crate::reduce::binomial(ctx, &self.h.shm, send, recv, 0, op);

        // 2. Leaders allreduce across nodes.
        if let Some(bridge) = &self.h.bridge {
            let mut tmp = ctx.buf_zeroed::<T>(count);
            tmp.copy_from(0, recv, 0, count);
            crate::allreduce::recursive_doubling(ctx, bridge, &tmp, recv, op);
        }

        // 3. Broadcast the result within the node.
        bcast::tuned_uncharged(ctx, &self.h.shm, recv, 0, &self.tuning);
    }
}

/// Multi-leader SMP-aware allgather (paper reference \[14\]): each node is
/// split into `leaders_per_node` contiguous sub-groups, each with its own
/// leader; all sub-group leaders exchange over one bridge, reducing the
/// single-leader aggregation bottleneck.
///
/// Requires an SMP-style (rank-contiguous) placement.
pub fn multi_leader_allgather<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    leaders_per_node: usize,
    tuning: &Tuning,
) {
    assert!(leaders_per_node >= 1, "need at least one leader per node");
    let p = comm.size();
    let count = send.len();
    assert_eq!(recv.len(), p * count, "recv must hold p blocks");

    let h = Hierarchy::build(ctx, comm);
    assert!(
        h.is_rank_contiguous(),
        "multi-leader allgather requires SMP-style placement"
    );

    // Split each node into contiguous sub-groups.
    let node_size = h.shm.size();
    let l = leaders_per_node.min(node_size);
    let sub_id = h.shm.rank() * l / node_size;
    let sub = h
        .shm
        .split(ctx, Some(sub_id as i64), 0)
        .expect("subgroup split is total");

    // One bridge over all sub-group leaders (ordered by parent rank, so
    // sub-group blocks stay rank-contiguous).
    let is_sub_leader = sub.rank() == 0;
    let multi_bridge = comm.split(ctx, if is_sub_leader { Some(0) } else { None }, 0);

    // 1. Aggregate within the sub-group.
    let mut sub_buf = if is_sub_leader {
        ctx.buf_zeroed::<T>(sub.size() * count)
    } else {
        ctx.buf_zeroed::<T>(0)
    };
    gather::binomial(ctx, &sub, send, &mut sub_buf, 0);

    // 2. Exchange across all sub-group leaders.
    if let Some(mb) = &multi_bridge {
        // Sub-group sizes can differ (node_size not divisible by l).
        let counts = sub_group_counts(ctx, mb, sub.size() * count);
        if counts.windows(2).all(|w| w[0] == w[1]) {
            allgather::tuned(ctx, mb, &sub_buf, recv, tuning);
        } else {
            allgatherv::tuned(ctx, mb, &sub_buf, &counts, recv, tuning);
        }
    }

    // 3. Broadcast the full buffer within the sub-group.
    bcast::tuned(ctx, &sub, recv, 0, tuning);
}

/// Leaders exchange their aggregate sizes (tiny allgather of one u64) so
/// the irregular exchange knows its counts.
fn sub_group_counts(ctx: &mut Ctx, mb: &Communicator, my_count: usize) -> Vec<usize> {
    let send = match ctx.mode() {
        msim::DataMode::Real => Buf::Real(vec![my_count as u64]),
        msim::DataMode::Phantom => Buf::Phantom(1),
    };
    let mut recv = ctx.buf_zeroed::<u64>(mb.size());
    allgather::ring(ctx, mb, &send, &mut recv);
    match ctx.mode() {
        msim::DataMode::Real => recv
            .as_slice()
            .unwrap()
            .iter()
            .map(|&c| c as usize)
            .collect(),
        // Phantom runs cannot read data back; recompute deterministically
        // is impossible here, so phantom callers must have equal counts.
        msim::DataMode::Phantom => vec![my_count; mb.size()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, expected_allgather, run, run_irregular};

    #[test]
    fn smp_allgather_regular_cluster() {
        for (nodes, ppn) in [(1, 4), (2, 3), (4, 2), (2, 4)] {
            let r = run(nodes, ppn, |ctx| {
                let world = ctx.world();
                let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
                let send = ctx.buf_from_fn(3, |i| datum(ctx.rank(), i));
                let mut recv = ctx.buf_zeroed(3 * world.size());
                sa.allgather(ctx, &send, &mut recv);
                recv.as_slice().unwrap().to_vec()
            });
            let expected = expected_allgather(nodes * ppn, 3);
            for (rank, got) in r.per_rank.iter().enumerate() {
                assert_eq!(got, &expected, "rank {rank} ({nodes}x{ppn})");
            }
        }
    }

    #[test]
    fn smp_allgather_irregular_cluster() {
        let r = run_irregular(vec![3, 1, 4], |ctx| {
            let world = ctx.world();
            let sa = SmpAware::new(ctx, &world, Tuning::open_mpi());
            let send = ctx.buf_from_fn(2, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(2 * world.size());
            sa.allgather(ctx, &send, &mut recv);
            recv.as_slice().unwrap().to_vec()
        });
        let expected = expected_allgather(8, 2);
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank}");
        }
    }

    #[test]
    fn smp_allgather_non_smp_placement() {
        let cfg = msim::SimConfig::new(
            simnet::ClusterSpec::regular(2, 2),
            simnet::CostModel::uniform_test(),
        )
        .with_placement(simnet::Placement::RoundRobin);
        let r = msim::Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
            let send = ctx.buf_from_fn(2, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(2 * world.size());
            sa.allgather(ctx, &send, &mut recv);
            recv.as_slice().unwrap().to_vec()
        })
        .unwrap();
        let expected = expected_allgather(4, 2);
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank} under round-robin placement");
        }
    }

    #[test]
    fn smp_bcast_all_roots() {
        for root in 0..6 {
            let r = run(2, 3, move |ctx| {
                let world = ctx.world();
                let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
                let mut buf = if ctx.rank() == root {
                    ctx.buf_from_fn(5, |i| datum(root, i))
                } else {
                    ctx.buf_zeroed(5)
                };
                sa.bcast(ctx, &mut buf, root);
                buf.as_slice().unwrap().to_vec()
            });
            let expected: Vec<f64> = (0..5).map(|i| datum(root, i)).collect();
            for (rank, got) in r.per_rank.iter().enumerate() {
                assert_eq!(got, &expected, "rank {rank} root {root}");
            }
        }
    }

    #[test]
    fn multi_leader_allgather_correct() {
        for l in [1, 2, 3] {
            let r = run(2, 4, move |ctx| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(2, |i| datum(ctx.rank(), i));
                let mut recv = ctx.buf_zeroed(2 * world.size());
                multi_leader_allgather(ctx, &world, &send, &mut recv, l, &Tuning::cray_mpich());
                recv.as_slice().unwrap().to_vec()
            });
            let expected = expected_allgather(8, 2);
            for (rank, got) in r.per_rank.iter().enumerate() {
                assert_eq!(got, &expected, "rank {rank} with {l} leaders");
            }
        }
    }

    #[test]
    fn smp_allreduce_sums_correctly() {
        use crate::op::Sum;
        for (nodes, ppn) in [(1, 4), (2, 3), (3, 2), (2, 4)] {
            let p = nodes * ppn;
            let r = run(nodes, ppn, move |ctx| {
                let world = ctx.world();
                let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
                let send = ctx.buf_from_fn(3, |i| (ctx.rank() + 1) as f64 * (i + 1) as f64);
                let mut recv = ctx.buf_zeroed(3);
                sa.allreduce(ctx, &send, &mut recv, Sum);
                recv.as_slice().unwrap().to_vec()
            });
            let rank_sum: f64 = (1..=p).map(|x| x as f64).sum();
            for (rank, got) in r.per_rank.iter().enumerate() {
                for (i, v) in got.iter().enumerate() {
                    let want = rank_sum * (i + 1) as f64;
                    assert!((v - want).abs() < 1e-9, "rank {rank}: {v} vs {want}");
                }
            }
        }
    }

    #[test]
    fn smp_allgather_does_intra_node_copies() {
        // The baseline must move data inside the node (gather + bcast):
        // that's what the hybrid approach will eliminate.
        let cfg = msim::SimConfig::new(
            simnet::ClusterSpec::regular(2, 4),
            simnet::CostModel::uniform_test(),
        )
        .traced();
        let r = msim::Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
            let send = ctx.buf_from_fn(8, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(8 * world.size());
            sa.allgather(ctx, &send, &mut recv);
        })
        .unwrap();
        assert!(
            r.tracer.intra_node_sends() > 0,
            "SMP-aware baseline must use intra-node messages"
        );
    }
}
