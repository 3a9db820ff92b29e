//! Hybrid gather and scatter — further "more experiences" extensions.
//!
//! Both keep one window per node: the root's node holds all `p` blocks in
//! node-sorted order, every other node its own blocks in on-node rank
//! order. **HyGather**: every rank writes its block straight into its
//! node's window (on the root's node, at its place in the result), and
//! the leaders send their node's slab to the root's leader — no
//! intra-node aggregation copy. **HyScatter**: the root writes the full
//! payload into its node's window, and the root's leader sends each node
//! its slab — one copy per node instead of one per rank. Both run inside
//! [`HyOp`] through one rooted [`Stage`]; which side of each bridge
//! exchange sends is the only difference between them.

use collectives::{tags, IColl, LeaderSet};
use msim::{Ctx, Drive, SharedWindow, ShmElem, WaitError};

use crate::envelope::{HyOp, Open, Stage};
use crate::hybrid::HybridComm;

/// What gather and scatter share: a single-leader set, the node window
/// and the root's node group.
#[derive(Debug, Clone)]
struct Rooted<T> {
    hc: HybridComm,
    ls: LeaderSet,
    win: SharedWindow<T>,
    count: usize,
    root_group: usize,
    at_root: bool,
}

impl<T: ShmElem> Rooted<T> {
    fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, root: usize, what: &str) -> Self {
        let p = hc.comm().size();
        assert!(root < p, "{what} root {root} out of range");
        let h = hc.hierarchy();
        let root_group = h.locate(root).0;
        let at_root = h.node_index == root_group;
        let blocks = if at_root { p } else { h.shm.size() };
        let len = if hc.is_leader() { blocks * count } else { 0 };
        Self {
            hc: hc.clone(),
            ls: LeaderSet::build(ctx, hc.comm(), h, 1),
            win: SharedWindow::allocate(ctx, &h.shm, len),
            count,
            root_group,
            at_root,
        }
    }

    /// Element offset of parent rank `r`'s block in the root node's window.
    fn block_offset(&self, r: usize) -> usize {
        self.hc.hierarchy().sorted_pos[r] * self.count
    }

    /// Element offset of this rank's own block in its node's window.
    fn my_offset(&self) -> usize {
        if self.at_root {
            self.block_offset(self.hc.comm().rank())
        } else {
            self.hc.hierarchy().shm.rank() * self.count
        }
    }

    fn write(&self, off: usize, data: &[T]) {
        assert_eq!(data.len(), self.count, "block must hold `count` elements");
        self.win.write_from(off, data);
    }

    fn read(&self, off: usize) -> Vec<T> {
        let mut out = vec![T::default(); self.count];
        self.win.read_into(off, &mut out);
        out
    }
}

/// The rooted bridge stage: gather's when `TO_ROOT` (slabs travel to the
/// root's node), scatter's otherwise.
pub struct RootedStage<'a, T, const TO_ROOT: bool>(&'a Rooted<T>);

impl<T: ShmElem, const TO_ROOT: bool> Stage for RootedStage<'_, T, TO_ROOT> {
    const OP: &'static str = if TO_ROOT { "ihygather" } else { "ihyscatter" };
    /// The next node group to exchange a slab with.
    type Bridge = usize;

    fn hc(&self) -> &HybridComm {
        &self.0.hc
    }

    fn leaders(&self) -> &LeaderSet {
        &self.0.ls
    }

    fn open(&self) -> Open {
        if self.0.hc.single_node() {
            // Every block already sits in its final place in the window.
            Open::Full
        } else {
            Open::Arrive
        }
    }

    fn start(&mut self, _ctx: &mut Ctx) -> usize {
        0
    }

    /// On the root's node: one slab per other group, in group order, at
    /// its node-sorted offset. Elsewhere: the node's own slab, with the
    /// root's node.
    fn drive(&mut self, ctx: &mut Ctx, next: &mut usize, how: Drive) -> Result<bool, WaitError> {
        let c = self.0;
        let h = c.hc.hierarchy();
        let at_root = c.at_root;
        let tag = if TO_ROOT { tags::GATHER } else { tags::SCATTER } + 8;
        while *next < h.num_groups() {
            let g = *next;
            if g != h.node_index && (at_root || g == c.root_group) {
                let bridge = c.ls.bridge.as_ref().expect("leaders carry the bridge");
                let (off, len) = if at_root {
                    (h.group_block_offset(g), h.group_size(g))
                } else {
                    (0, h.shm.size())
                };
                if TO_ROOT != at_root {
                    let slab = c.win.payload(off * c.count, len * c.count);
                    ctx.send(bridge, g, tag, slab);
                } else {
                    let Some(slab) = ctx.step_recv(bridge, g, tag, how)? else {
                        return Ok(false);
                    };
                    c.win.write_payload(off * c.count, &slab);
                }
            }
            *next += 1;
        }
        Ok(true)
    }
}

/// Hybrid gather handle for `count` elements per rank.
#[derive(Debug, Clone)]
pub struct HyGather<T>(Rooted<T>);

impl<T: ShmElem> HyGather<T> {
    /// One-off setup for gathering to parent rank `root`.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, root: usize) -> Self {
        Self(Rooted::new(ctx, hc, count, root, "gather"))
    }

    /// Write this rank's contribution (an in-place write into its node's
    /// window; on the root's node, straight into the result).
    pub fn write_my_block(&self, ctx: &Ctx, data: &[T]) {
        self.0.write(self.0.my_offset(), data);
        let _ = ctx;
    }

    /// Read the gathered result in node-sorted parent-rank order
    /// (meaningful on the root's node; see
    /// [`HyGather::block_offset`] for addressing). Use on the root.
    pub fn read_block(&self, src: usize) -> Vec<T> {
        self.0.read(self.block_offset(src))
    }

    /// Element offset of parent rank `src`'s block inside the result
    /// window (node-sorted order, as in the hybrid allgather).
    pub fn block_offset(&self, src: usize) -> usize {
        self.0.block_offset(src)
    }

    /// The collective: arrive → leaders send their node's slab to the
    /// root's leader (window to window) → release.
    pub fn execute(&self, ctx: &mut Ctx) {
        HyOp::run(ctx, RootedStage::<T, true>(&self.0));
    }

    /// Start the collective nonblocking: the arrive signal is posted
    /// immediately; the slab exchange and the release advance on
    /// [`msim::Request`] polls. `iexecute(ctx) + wait` is bit-identical
    /// to [`HyGather::execute`] modulo the `Req*` trace markers.
    pub fn iexecute<'a>(&'a self, ctx: &mut Ctx) -> IHyGather<'a, T> {
        HyOp::start(ctx, RootedStage(&self.0))
    }
}

/// An in-flight hybrid gather.
pub type IHyGather<'a, T> = IColl<HyOp<RootedStage<'a, T, true>>>;

/// Hybrid scatter handle for `count` elements per rank.
#[derive(Debug, Clone)]
pub struct HyScatter<T>(Rooted<T>);

impl<T: ShmElem> HyScatter<T> {
    /// One-off setup for scattering from parent rank `root`.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, root: usize) -> Self {
        Self(Rooted::new(ctx, hc, count, root, "scatter"))
    }

    /// The root writes the block destined for parent rank `dest` into
    /// its node's window (in-place; node-sorted order).
    pub fn write_block(&self, ctx: &Ctx, dest: usize, data: &[T]) {
        self.0.write(self.0.block_offset(dest), data);
        let _ = ctx;
    }

    /// Read this rank's received block from its node window.
    pub fn read_my_block(&self) -> Vec<T> {
        self.0.read(self.0.my_offset())
    }

    /// The collective: arrive → the root's leader sends each node its
    /// slab → release.
    pub fn execute(&self, ctx: &mut Ctx) {
        HyOp::run(ctx, RootedStage::<T, false>(&self.0));
    }

    /// Start the collective nonblocking, as [`HyGather::iexecute`].
    pub fn iexecute<'a>(&'a self, ctx: &mut Ctx) -> IHyScatter<'a, T> {
        HyOp::start(ctx, RootedStage(&self.0))
    }
}

/// An in-flight hybrid scatter.
pub type IHyScatter<'a, T> = IColl<HyOp<RootedStage<'a, T, false>>>;

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
        // One window per node: the root's node holds the 12 x 10 doubles
        // of the result, the other two nodes 4 x 10 doubles each.
        assert_eq!(r.tracer.total_window_bytes(), (2 * 4 * 10 + 12 * 10) * 8);
    }
}
