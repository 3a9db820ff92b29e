//! Hybrid gather and scatter — further "more experiences" extensions.
//!
//! **HyGather**: on-node ranks write their blocks into a node staging
//! window; leaders send node aggregates to the root's leader; the root
//! reads the result straight out of its node's result window. Only the
//! root's node ever holds the full result (the pure-MPI gather stages
//! through private buffers on every path).
//!
//! **HyScatter**: the root writes the full payload into its node's
//! window; leaders forward each node its slice; every rank reads its own
//! block from its node window — one copy per node instead of one per
//! rank at the root plus one per rank at the destinations.

use collectives::tags;
use collectives::util::displs_of;
use msim::{Ctx, SharedWindow, ShmElem};

use crate::hybrid::HybridComm;

/// Hybrid gather handle for `count` elements per rank.
#[derive(Debug, Clone)]
pub struct HyGather<T> {
    hc: HybridComm,
    /// This node's contributions: `[s_local] * count`.
    stage_win: SharedWindow<T>,
    /// The full result, allocated on the root's node only (empty
    /// elsewhere).
    result_win: SharedWindow<T>,
    count: usize,
    root: usize,
}

impl<T: ShmElem> HyGather<T> {
    /// One-off setup for gathering to parent rank `root`.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, root: usize) -> Self {
        let p = hc.comm().size();
        assert!(root < p, "gather root {root} out of range");
        let h = hc.hierarchy();
        let my_size = h.shm.size();
        let root_group = h.locate(root).0;

        let stage_len = if hc.is_leader() { my_size * count } else { 0 };
        let stage_win = SharedWindow::allocate(ctx, &h.shm, stage_len);
        let result_len = if hc.is_leader() && h.node_index == root_group {
            p * count
        } else {
            0
        };
        let result_win = SharedWindow::allocate(ctx, &h.shm, result_len);
        Self {
            hc: hc.clone(),
            stage_win,
            result_win,
            count,
            root,
        }
    }

    /// Write this rank's contribution (an in-place write into the node
    /// staging window).
    pub fn write_my_block(&self, ctx: &Ctx, data: &[T]) {
        assert_eq!(data.len(), self.count, "block must hold `count` elements");
        let s_local = self.hc.hierarchy().shm.rank();
        self.stage_win.write_from(s_local * self.count, data);
        let _ = ctx;
    }

    /// Read the gathered result in node-sorted parent-rank order
    /// (meaningful on the root's node; see
    /// [`HyGather::block_offset`] for addressing). Use on the root.
    pub fn read_block(&self, src: usize) -> Vec<T> {
        let mut out = vec![T::default(); self.count];
        self.result_win.read_into(self.block_offset(src), &mut out);
        out
    }

    /// Element offset of parent rank `src`'s block inside the result
    /// window (node-sorted order, as in the hybrid allgather).
    pub fn block_offset(&self, src: usize) -> usize {
        self.hc.hierarchy().sorted_pos[src] * self.count
    }

    /// The collective: arrive → leaders gatherv node aggregates to the
    /// root's leader (window to window) → release.
    pub fn execute(&self, ctx: &mut Ctx) {
        let h = self.hc.hierarchy().clone();
        let sync = self.hc.sync();
        let root_group = h.locate(self.root).0;

        sync.arrive(ctx, &h.shm);
        if let Some(bridge) = &h.bridge {
            // Linear gatherv over the bridge: each leader ships its
            // node's staged slab; the root's leader writes slabs at the
            // node-sorted offsets.
            let my_group = h.node_index;
            if my_group == root_group {
                // Copy the local slab into place (window-to-window move
                // on the same node — charged, it is a real memcpy).
                let own_elems = h.group_size(my_group) * self.count;
                let mut tmp = vec![T::default(); own_elems];
                self.stage_win.read_into(0, &mut tmp);
                let own_off = h.group_block_offset(my_group) * self.count;
                self.result_win.write_from(own_off, &tmp);
                ctx.charge_copy(own_elems * T::SIZE);
                for g in 0..h.num_groups() {
                    if g == root_group {
                        continue;
                    }
                    let payload = ctx.recv(bridge, g, tags::GATHER + 8);
                    let off = h.group_block_offset(g) * self.count;
                    self.result_win.write_payload(off, &payload);
                }
            } else {
                let slab = self
                    .stage_win
                    .payload(0, h.group_size(my_group) * self.count);
                ctx.send(bridge, root_group, tags::GATHER + 8, slab);
            }
        } else {
            // Single node: the staging window IS on the root's node;
            // the leader moves it into the result window.
            if h.shm.rank() == 0 {
                let elems = h.shm.size() * self.count;
                let mut tmp = vec![T::default(); elems];
                self.stage_win.read_into(0, &mut tmp);
                self.result_win.write_from(0, &tmp);
                ctx.charge_copy(elems * T::SIZE);
            }
        }
        sync.release(ctx, &h.shm);
    }
}

/// Hybrid scatter handle for `count` elements per rank.
#[derive(Debug, Clone)]
pub struct HyScatter<T> {
    hc: HybridComm,
    /// Full payload on the root's node (node-sorted order); per-node
    /// slice elsewhere.
    win: SharedWindow<T>,
    count: usize,
    root: usize,
}

impl<T: ShmElem> HyScatter<T> {
    /// One-off setup for scattering from parent rank `root`.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, root: usize) -> Self {
        let p = hc.comm().size();
        assert!(root < p, "scatter root {root} out of range");
        let h = hc.hierarchy();
        let root_group = h.locate(root).0;
        // The root's node holds the full payload; other nodes hold their
        // own slice.
        let len = if h.node_index == root_group {
            p * count
        } else {
            h.shm.size() * count
        };
        let my_len = if hc.is_leader() { len } else { 0 };
        let win = SharedWindow::allocate(ctx, &h.shm, my_len);
        Self {
            hc: hc.clone(),
            win,
            count,
            root,
        }
    }

    /// The root writes the block destined for parent rank `dest` into
    /// its node's window (in-place; node-sorted order).
    pub fn write_block(&self, ctx: &Ctx, dest: usize, data: &[T]) {
        assert_eq!(data.len(), self.count, "block must hold `count` elements");
        let h = self.hc.hierarchy();
        self.win.write_from(h.sorted_pos[dest] * self.count, data);
        let _ = ctx;
    }

    /// Read this rank's received block from its node window.
    pub fn read_my_block(&self) -> Vec<T> {
        let h = self.hc.hierarchy();
        let me = self.hc.comm().rank();
        let root_group = h.locate(self.root).0;
        let off = if h.node_index == root_group {
            h.sorted_pos[me] * self.count
        } else {
            // Non-root nodes received only their own slice, in local
            // rank order.
            h.shm.rank() * self.count
        };
        let mut out = vec![T::default(); self.count];
        self.win.read_into(off, &mut out);
        out
    }

    /// The collective: root's-node arrive (the root must have written) →
    /// root's leader sends each node its slice → release.
    pub fn execute(&self, ctx: &mut Ctx) {
        let h = self.hc.hierarchy().clone();
        let sync = self.hc.sync();
        let root_group = h.locate(self.root).0;

        sync.arrive(ctx, &h.shm);
        if let Some(bridge) = &h.bridge {
            let my_group = h.node_index;
            if my_group == root_group {
                let displs: Vec<usize> = {
                    let counts: Vec<usize> = (0..h.num_groups())
                        .map(|g| h.group_size(g) * self.count)
                        .collect();
                    displs_of(&counts)
                };
                #[allow(clippy::needless_range_loop)] // slab offsets come from a displacement table
                for g in 0..h.num_groups() {
                    if g == root_group {
                        continue;
                    }
                    let slab = self.win.payload(displs[g], h.group_size(g) * self.count);
                    ctx.send(bridge, g, tags::SCATTER + 8, slab);
                }
            } else {
                let payload = ctx.recv(bridge, root_group, tags::SCATTER + 8);
                self.win.write_payload(0, &payload);
            }
        }
        sync.release(ctx, &h.shm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Tuning;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, Placement};

    fn datum(rank: usize, i: usize) -> f64 {
        (rank * 31 + i) as f64 + 0.5
    }

    fn check_gather(cfg: SimConfig, count: usize, root: usize) {
        let p = cfg.spec.total_cores();
        let out = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let g = HyGather::<f64>::new(ctx, &hc, count, root);
            let mine: Vec<f64> = (0..count).map(|i| datum(ctx.rank(), i)).collect();
            g.write_my_block(ctx, &mine);
            g.execute(ctx);
            if ctx.rank() == root {
                Some(
                    (0..world.size())
                        .flat_map(|src| g.read_block(src))
                        .collect::<Vec<f64>>(),
                )
            } else {
                None
            }
        })
        .unwrap();
        let expected: Vec<f64> = (0..p)
            .flat_map(|r| (0..count).map(move |i| datum(r, i)))
            .collect();
        assert_eq!(out.per_rank[root].as_ref().unwrap(), &expected);
    }

    fn check_scatter(cfg: SimConfig, count: usize, root: usize) {
        let out = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let s = HyScatter::<f64>::new(ctx, &hc, count, root);
            if ctx.rank() == root {
                for dest in 0..world.size() {
                    let data: Vec<f64> = (0..count).map(|i| datum(dest, i)).collect();
                    s.write_block(ctx, dest, &data);
                }
            }
            s.execute(ctx);
            s.read_my_block()
        })
        .unwrap();
        for (rank, got) in out.per_rank.iter().enumerate() {
            let expected: Vec<f64> = (0..count).map(|i| datum(rank, i)).collect();
            assert_eq!(got, &expected, "rank {rank}");
        }
    }

    #[test]
    fn gather_correct_various_clusters_and_roots() {
        for (cores, root) in [
            (vec![4], 0),
            (vec![4], 3),
            (vec![3, 2], 0),
            (vec![3, 2], 4),
            (vec![2, 2, 3], 5),
        ] {
            let cfg = SimConfig::new(ClusterSpec::irregular(cores), CostModel::uniform_test());
            check_gather(cfg, 3, root);
        }
    }

    #[test]
    fn scatter_correct_various_clusters_and_roots() {
        for (cores, root) in [
            (vec![4], 0),
            (vec![4], 2),
            (vec![3, 2], 0),
            (vec![3, 2], 3),
            (vec![2, 2, 3], 6),
        ] {
            let cfg = SimConfig::new(ClusterSpec::irregular(cores), CostModel::uniform_test());
            check_scatter(cfg, 2, root);
        }
    }

    #[test]
    fn gather_and_scatter_under_round_robin() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        check_gather(cfg.clone(), 2, 1);
        check_scatter(cfg, 2, 1);
    }

    #[test]
    fn gather_result_memory_only_on_root_node() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 4), CostModel::cray_aries())
            .phantom()
            .traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let _g = HyGather::<f64>::new(ctx, &hc, 10, 0);
        })
        .unwrap();
        // Staging: 3 nodes x 4 x 10 doubles; result: root node only,
        // 12 x 10 doubles.
        assert_eq!(r.tracer.total_window_bytes(), (3 * 4 * 10 + 12 * 10) * 8);
    }
}
