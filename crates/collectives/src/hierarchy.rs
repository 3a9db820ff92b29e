//! Two-level communicator splitting (paper §3, Figs. 1–2).
//!
//! [`Hierarchy::build`] splits any communicator into per-node
//! *shared-memory* sub-communicators plus the *bridge* communicator of
//! node leaders, and precomputes the node-group layout that both the
//! SMP-aware baseline and the hybrid collectives need — including the
//! "node-sorted global rank array" of the paper's §6, which makes the
//! algorithms correct for arbitrary (non-SMP) rank placements.

use msim::{Communicator, Ctx};
use std::sync::Arc;

/// The result of hierarchical splitting on a communicator.
///
/// The layout arrays (`group_members`, `node_sorted`, `sorted_pos`) are
/// O(p) in the communicator size but are computed **once** per
/// communicator and shared by all members through `Arc`s — building a
/// hierarchy costs each rank O(1) memory, which is what lets phantom
/// sweeps reach hundreds of thousands of ranks.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// This rank's on-node sub-communicator (ordered by parent rank, so
    /// local rank 0 is the node leader).
    pub shm: Communicator,
    /// The leaders' communicator; `None` on non-leader ranks.
    pub bridge: Option<Communicator>,
    /// Index of this rank's node group (in bridge rank order).
    pub node_index: usize,
    /// Parent-communicator ranks of each node group, ascending, indexed by
    /// node group (bridge rank order). Shared by all members of `comm`.
    pub group_members: Arc<Vec<Vec<usize>>>,
    /// Parent ranks sorted by (node group, parent rank): the node-sorted
    /// global rank array of §6. Equals `0..size` iff the placement is
    /// rank-contiguous ("SMP-style"). Shared by all members of `comm`.
    pub node_sorted: Arc<Vec<usize>>,
    /// For each parent rank, its position in `node_sorted`. Shared by all
    /// members of `comm`.
    pub sorted_pos: Arc<Vec<usize>>,
}

/// The shared node-group layout, computed once per communicator by the
/// last rank to arrive at the setup exchange.
type NodeLayout = (Arc<Vec<Vec<usize>>>, Arc<Vec<usize>>, Arc<Vec<usize>>);

impl Hierarchy {
    /// Collectively build the hierarchy over `comm`.
    ///
    /// Node membership is derived from the physical rank→node map; group
    /// order is the bridge communicator's rank order (groups sorted by
    /// their leader's — i.e. their minimum — parent rank, which is how
    /// `MPI_Comm_split` orders the leaders).
    pub fn build(ctx: &mut Ctx, comm: &Communicator) -> Self {
        // Every rank deposits only its own node id (O(1)); the last rank
        // to arrive groups the deposits by node, once per communicator.
        // Deposits arrive sorted by parent rank, so members are pushed in
        // ascending parent-rank order.
        let my_node = ctx.map().node_of(comm.global_of(comm.rank()));
        let layout: Arc<NodeLayout> = ctx.setup_exchange(comm, my_node, |deposits| {
            let size = deposits.len();
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (parent_rank, node) in deposits {
                match groups.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, members)) => members.push(parent_rank),
                    None => groups.push((node, vec![parent_rank])),
                }
            }
            // Bridge order: by leader parent rank (= min member, since
            // members were pushed in ascending parent-rank order).
            groups.sort_by_key(|(_, members)| members[0]);
            let group_members: Vec<Vec<usize>> = groups.into_iter().map(|(_, m)| m).collect();
            let node_sorted: Vec<usize> = group_members.iter().flatten().copied().collect();
            let mut sorted_pos = vec![0usize; size];
            for (pos, &parent_rank) in node_sorted.iter().enumerate() {
                sorted_pos[parent_rank] = pos;
            }
            (
                Arc::new(group_members),
                Arc::new(node_sorted),
                Arc::new(sorted_pos),
            )
        });
        let (group_members, node_sorted, sorted_pos) = (
            Arc::clone(&layout.0),
            Arc::clone(&layout.1),
            Arc::clone(&layout.2),
        );

        let node_index = locate(&group_members, sorted_pos[comm.rank()]).0;

        let shm = comm
            .split(ctx, Some(my_node as i64), 0)
            .expect("node split never returns UNDEFINED");
        let bridge = comm.split_bridge(ctx, &shm);

        Self {
            shm,
            bridge,
            node_index,
            group_members,
            node_sorted,
            sorted_pos,
        }
    }

    /// Node group of parent rank `rank` and its index within that group
    /// (= its on-node rank, groups being ordered like `shm`). O(nodes):
    /// the rank's node-sorted position walked over the group sizes.
    pub fn locate(&self, rank: usize) -> (usize, usize) {
        locate(&self.group_members, self.sorted_pos[rank])
    }

    /// Whether this rank is its node group's leader.
    pub fn is_leader(&self) -> bool {
        self.shm.rank() == 0
    }

    /// Number of node groups (= bridge communicator size).
    pub fn num_groups(&self) -> usize {
        self.group_members.len()
    }

    /// Number of parent ranks in node group `g`.
    pub fn group_size(&self, g: usize) -> usize {
        self.group_members[g].len()
    }

    /// True when parent ranks are contiguous per node in rank order
    /// (SMP-style placement): the node-sorted array is the identity and no
    /// data reordering is ever needed.
    pub fn is_rank_contiguous(&self) -> bool {
        self.node_sorted.iter().enumerate().all(|(i, &r)| i == r)
    }

    /// Element offset (in units of per-rank blocks) of node group `g`
    /// within the node-sorted order.
    pub fn group_block_offset(&self, g: usize) -> usize {
        self.group_members[..g].iter().map(|m| m.len()).sum()
    }
}

/// `(group, index in group)` of node-sorted position `pos`.
fn locate(groups: &[Vec<usize>], mut pos: usize) -> (usize, usize) {
    for (g, members) in groups.iter().enumerate() {
        if pos < members.len() {
            return (g, pos);
        }
        pos -= members.len();
    }
    unreachable!("node-sorted position past the last node group")
}

/// Contiguous k-way split of `len` items: bounds `(offset, length)` of
/// part `j` of `k`. The first `len % k` parts are one longer, so parts
/// cover `0..len` exactly and differ in size by at most one.
pub fn seg_bounds(len: usize, j: usize, k: usize) -> (usize, usize) {
    debug_assert!(k > 0 && j < k);
    let base = len / k;
    let rem = len % k;
    let off = j * base + j.min(rem);
    (off, base + usize::from(j < rem))
}

/// k leaders per node, with one *stripe bridge* communicator per leader
/// slot (multi-leader hierarchies, PAPERS.md arXiv 2305.10612 /
/// 1910.09650). Slot `j` on every node joins stripe bridge `j`; bridge
/// traffic is striped across the slots so no single leader serializes a
/// node's inter-node bandwidth.
///
/// With `k == 1` construction performs **zero** simulator operations —
/// it reuses the [`Hierarchy`]'s own bridge — so a k=1 `LeaderSet` is
/// bit-identical (results, clocks, traces) to the single-leader design
/// by construction.
#[derive(Debug, Clone)]
pub struct LeaderSet {
    /// Effective leader count: the requested k clamped to the smallest
    /// node group (every node fills every slot), and 1 on a single-node
    /// communicator (no bridge traffic to stripe).
    pub k: usize,
    /// This rank's leader slot (`Some(j)` iff `shm.rank() == j < k`).
    pub slot: Option<usize>,
    /// The stripe bridge of this rank's slot; `None` on non-leaders.
    pub bridge: Option<Communicator>,
}

impl LeaderSet {
    /// Collectively build a leader set over `comm` (the same communicator
    /// `h` was built from). Every rank of `comm` must call this, with the
    /// same `k`.
    ///
    /// Stripe bridge `j` contains slot-`j` ranks of every node, ordered
    /// by node group (split key = node index), so stripe-bridge rank `g`
    /// is node group `g`'s slot-`j` leader regardless of placement.
    pub fn build(ctx: &mut Ctx, comm: &Communicator, h: &Hierarchy, k: usize) -> Self {
        let min_group = h.group_members.iter().map(Vec::len).min().unwrap_or(1);
        let k_eff = if h.num_groups() == 1 {
            1
        } else {
            k.clamp(1, min_group)
        };
        if k_eff == 1 {
            // Single-leader: the hierarchy's bridge *is* stripe 0. No
            // splits, no fences — identical to not having a LeaderSet.
            return Self {
                k: 1,
                slot: h.is_leader().then_some(0),
                bridge: h.bridge.clone(),
            };
        }
        let my_slot = (h.shm.rank() < k_eff).then_some(h.shm.rank());
        let mut bridge = None;
        for j in 0..k_eff {
            let color = (my_slot == Some(j)).then_some(j as i64);
            let b = comm.split(ctx, color, h.node_index as i64);
            if my_slot == Some(j) {
                bridge = b;
            }
        }
        Self {
            k: k_eff,
            slot: my_slot,
            bridge,
        }
    }

    /// Whether this rank holds a leader slot.
    pub fn is_leader(&self) -> bool {
        self.slot.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, Placement};

    #[test]
    fn smp_placement_is_contiguous() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            (
                h.is_rank_contiguous(),
                h.node_index,
                h.is_leader(),
                (*h.node_sorted).clone(),
            )
        })
        .unwrap();
        assert_eq!(r.per_rank[0], (true, 0, true, (0..6).collect()));
        assert_eq!(r.per_rank[4], (true, 1, false, (0..6).collect()));
    }

    #[test]
    fn round_robin_placement_is_not_contiguous() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            (
                h.is_rank_contiguous(),
                (*h.node_sorted).clone(),
                (*h.sorted_pos).clone(),
            )
        })
        .unwrap();
        // node0 = {0,2}, node1 = {1,3} -> node_sorted = [0,2,1,3]
        let (contig, sorted, pos) = &r.per_rank[0];
        assert!(!contig);
        assert_eq!(sorted, &vec![0, 2, 1, 3]);
        assert_eq!(pos, &vec![0, 2, 1, 3]);
    }

    #[test]
    fn hierarchy_on_a_subcommunicator() {
        // Build the hierarchy on a row communicator that spans nodes
        // unevenly: ranks {0,1,2} of a 2x2-node cluster (nodes sized 2+1).
        let cfg = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let color = if ctx.rank() <= 2 { Some(0) } else { Some(1) };
            let sub = world.split(ctx, color, 0).unwrap();
            if ctx.rank() <= 2 {
                let h = Hierarchy::build(ctx, &sub);
                Some((
                    h.num_groups(),
                    h.group_size(0),
                    h.group_size(1),
                    h.is_leader(),
                ))
            } else {
                None
            }
        })
        .unwrap();
        assert_eq!(r.per_rank[0], Some((2, 2, 1, true)));
        assert_eq!(r.per_rank[1], Some((2, 2, 1, false)));
        assert_eq!(r.per_rank[2], Some((2, 2, 1, true)));
    }

    #[test]
    fn group_block_offsets_are_prefix_sums() {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![3, 2, 4]),
            CostModel::uniform_test(),
        );
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            (0..h.num_groups())
                .map(|g| h.group_block_offset(g))
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(r.per_rank[0], vec![0, 3, 5]);
    }

    #[test]
    fn locate_matches_the_group_tables_on_every_layout() {
        for cfg in [
            SimConfig::new(ClusterSpec::regular(3, 4), CostModel::uniform_test()),
            SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
                .with_placement(Placement::RoundRobin),
            SimConfig::new(
                ClusterSpec::irregular(vec![1, 3, 4]),
                CostModel::uniform_test(),
            ),
        ] {
            Universe::run(cfg, |ctx| {
                let world = ctx.world();
                let h = Hierarchy::build(ctx, &world);
                for (g, members) in h.group_members.iter().enumerate() {
                    for (i, &r) in members.iter().enumerate() {
                        assert_eq!(h.locate(r), (g, i), "rank {r}");
                    }
                }
                assert_eq!(h.locate(world.rank()), (h.node_index, h.shm.rank()));
            })
            .unwrap();
        }
    }

    #[test]
    fn bridge_exists_only_on_leaders() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 2), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            h.bridge.as_ref().map(|b| (b.rank(), b.size()))
        })
        .unwrap();
        assert_eq!(r.per_rank[0], Some((0, 3)));
        assert_eq!(r.per_rank[1], None);
        assert_eq!(r.per_rank[2], Some((1, 3)));
        assert_eq!(r.per_rank[4], Some((2, 3)));
    }

    #[test]
    fn seg_bounds_cover_exactly() {
        for len in [0usize, 1, 5, 12, 13] {
            for k in [1usize, 2, 3, 4, 7] {
                let mut next = 0;
                for j in 0..k {
                    let (off, l) = seg_bounds(len, j, k);
                    assert_eq!(off, next, "len={len} k={k} j={j}");
                    next += l;
                }
                assert_eq!(next, len, "len={len} k={k}");
                // Parts differ by at most one element.
                let sizes: Vec<_> = (0..k).map(|j| seg_bounds(len, j, k).1).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "len={len} k={k} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn leader_set_stripes_every_slot_across_nodes() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 4), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            let ls = LeaderSet::build(ctx, &world, &h, 2);
            (
                ls.k,
                ls.slot,
                ls.bridge.as_ref().map(|b| (b.rank(), b.size())),
            )
        })
        .unwrap();
        // On-node ranks 0 and 1 of every node hold slots; stripe-bridge
        // rank == node index on both stripes.
        assert_eq!(r.per_rank[0], (2, Some(0), Some((0, 3))));
        assert_eq!(r.per_rank[1], (2, Some(1), Some((0, 3))));
        assert_eq!(r.per_rank[2], (2, None, None));
        assert_eq!(r.per_rank[4], (2, Some(0), Some((1, 3))));
        assert_eq!(r.per_rank[5], (2, Some(1), Some((1, 3))));
        assert_eq!(r.per_rank[9], (2, Some(1), Some((2, 3))));
    }

    #[test]
    fn leader_set_clamps_k_to_smallest_group() {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![1, 3, 4]),
            CostModel::uniform_test(),
        );
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            let ls = LeaderSet::build(ctx, &world, &h, 4);
            ls.k
        })
        .unwrap();
        // Smallest node has a single rank: k collapses to 1 everywhere.
        assert!(r.per_rank.iter().all(|&k| k == 1));
    }

    #[test]
    fn leader_set_k1_reuses_the_hierarchy_bridge() {
        // Requested k = 1 on two nodes, and requested k = 2 on a single
        // node (nothing to stripe): both are the free k = 1 set.
        for (spec, k) in [
            (ClusterSpec::regular(2, 3), 1),
            (ClusterSpec::single_node(3), 2),
        ] {
            let cfg = SimConfig::new(spec, CostModel::uniform_test());
            let r = Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let h = Hierarchy::build(ctx, &world);
                let after_h = ctx.now();
                let ls = LeaderSet::build(ctx, &world, &h, k);
                // Construction must be free: no clock movement at all.
                assert_eq!(ctx.now(), after_h);
                (
                    ls.k,
                    ls.slot,
                    ls.bridge.map(|b| (b.rank(), b.size()))
                        == h.bridge.map(|b| (b.rank(), b.size())),
                )
            })
            .unwrap();
            assert_eq!(r.per_rank[0], (1, Some(0), true));
            assert_eq!(r.per_rank[1], (1, None, true));
        }
    }

    #[test]
    fn leader_set_round_robin_placement() {
        // Round-robin 2x4: node0 = {0,2,4,6}, node1 = {1,3,5,7}. Slot 1
        // on node0 is parent rank 2; on node1 it is parent rank 3.
        let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let h = Hierarchy::build(ctx, &world);
            let ls = LeaderSet::build(ctx, &world, &h, 2);
            (ls.slot, ls.bridge.as_ref().map(|b| (b.rank(), b.size())))
        })
        .unwrap();
        assert_eq!(r.per_rank[0], (Some(0), Some((0, 2))));
        assert_eq!(r.per_rank[1], (Some(0), Some((1, 2))));
        assert_eq!(r.per_rank[2], (Some(1), Some((0, 2))));
        assert_eq!(r.per_rank[3], (Some(1), Some((1, 2))));
        assert_eq!(r.per_rank[4], (None, None));
    }
}
