//! Hybrid all-to-all, regular and irregular (`MPI_Alltoall(v)` over the
//! paper's recipe) — an extension in the spirit of the paper's conclusion
//! ("more experiences … are expected to popularize the implementation of
//! the hybrid MPI+MPI application codes") and of its reference [31]
//! (Träff & Rougier, hierarchical all-to-all).
//!
//! Every rank writes its outgoing blocks straight into a node-shared
//! *send window*; blocks destined to on-node peers are never transmitted
//! at all (the peer reads them directly); blocks for remote nodes travel
//! as **one aggregated message per node pair**, sent by the leaders, into
//! a node-shared *receive window*. Compared to a pure-MPI all-to-all (p²
//! messages), the hybrid needs only `nodes²` network messages and no
//! intra-node traffic — at the price of the usual barrier pair.
//!
//! The send window is laid out destination-group-major so each
//! leader-to-leader slab stays one contiguous region *even with irregular
//! block sizes* — the slab is simply the concatenation of the
//! `[s_local][d_in_g]` blocks in order, which is exactly the order the
//! receiving node stores them in, so the leaders never pack.
//!
//! A flat `alltoallv` on the bridge cannot express this exchange: the
//! send window holds the own-group slab in the middle of the layout, so
//! the remote slabs are not one contiguous `sdispls`-described buffer.
//! The direct slab exchange below is the hierarchical schedule of the
//! paper's reference [31]; the flat `collectives::alltoallv` algorithms
//! (pairwise/linear, registry-selectable) remain the pure-MPI baseline.

use collectives::util::displs_of;
use collectives::{tags, IColl, LeaderSet};
use msim::{Ctx, Drive, SharedWindow, ShmElem, WaitError};

use crate::envelope::{HyOp, Open, Stage};
use crate::hybrid::HybridComm;

/// How the (source, destination) blocks are sized and addressed.
#[derive(Debug, Clone)]
enum PairLayout {
    /// Every block is `count` long ([`crate::HyAlltoall`]): offsets are
    /// arithmetic over the group tables, no per-pair table exists.
    Uniform { count: usize },
    Irregular {
        /// Full p×p count matrix, row-major by source parent rank.
        counts: Vec<usize>,
        /// Element offset of block (s_local, dest parent rank) in the
        /// send window, indexed `s_local * p + dest`.
        send_offs: Vec<usize>,
        /// Element offset of the block **this rank** receives from each
        /// source parent rank, inside the receive window (own-group
        /// entries unused — those blocks are read straight from the send
        /// window).
        recv_offs: Vec<usize>,
    },
}

/// A hybrid irregular all-to-all handle: block (s, d) carries
/// `counts[s*p + d]` elements.
#[derive(Debug, Clone)]
pub struct HyAlltoallv<T> {
    hc: HybridComm,
    ls: LeaderSet,
    layout: PairLayout,
    /// Outgoing blocks of this node, grouped by destination node:
    /// `[dest group g][s_local][d_in_g]`.
    send_win: SharedWindow<T>,
    /// Element offset of each destination group's slab in `send_win`.
    send_group_offs: Vec<usize>,
    /// Element length of each destination group's slab.
    send_group_lens: Vec<usize>,
    /// Incoming blocks from remote groups, ordered by group:
    /// `[group g][s_in_g][d_local]` (own group omitted).
    recv_win: SharedWindow<T>,
    /// Element offset of each remote group's slab in `recv_win` (entry
    /// for the own group unused).
    recv_group_offs: Vec<usize>,
}

impl<T: ShmElem> HyAlltoallv<T> {
    /// One-off setup. `counts` is the full p×p matrix, row-major by
    /// source: rank `s` sends `counts[s*p + d]` elements to rank `d`.
    /// Every rank must pass the same matrix (as in `MPI_Alltoallv`, where
    /// the send and receive count arrays must agree pairwise).
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, counts: &[usize]) -> Self {
        let h = hc.hierarchy();
        let p = hc.comm().size();
        assert_eq!(counts.len(), p * p, "counts must be a full p×p matrix");
        let me = hc.comm().rank();
        let mine = &h.group_members[h.node_index];

        // Send window: destination-group-major, blocks [s_local][d_in_g].
        let mut send_lens = vec![0usize; h.num_groups()];
        let mut send_offs = vec![0usize; mine.len() * p];
        let mut acc = 0usize;
        for (g, len) in send_lens.iter_mut().enumerate() {
            let start = acc;
            for (s_local, &s) in mine.iter().enumerate() {
                for &d in &h.group_members[g] {
                    send_offs[s_local * p + d] = acc;
                    acc += counts[s * p + d];
                }
            }
            *len = acc - start;
        }

        // Receive window: remote groups in order, blocks [s_in_g][d_local].
        let mut recv_lens = vec![0usize; h.num_groups()];
        let mut recv_offs = vec![0usize; p];
        let mut acc = 0usize;
        for (g, len) in recv_lens.iter_mut().enumerate() {
            if g == h.node_index {
                continue;
            }
            let start = acc;
            for &s in &h.group_members[g] {
                for &d in mine {
                    if d == me {
                        recv_offs[s] = acc;
                    }
                    acc += counts[s * p + d];
                }
            }
            *len = acc - start;
        }
        let layout = PairLayout::Irregular {
            counts: counts.to_vec(),
            send_offs,
            recv_offs,
        };
        Self::with_slabs(ctx, hc, layout, send_lens, recv_lens)
    }

    /// Setup for the regular case ([`crate::HyAlltoall`]): every block is
    /// `count` long, so only the O(nodes) slab tables are built.
    pub(crate) fn uniform(ctx: &mut Ctx, hc: &HybridComm, count: usize) -> Self {
        let h = hc.hierarchy();
        let slab = |g: usize| h.shm.size() * h.group_size(g) * count;
        let send_lens = (0..h.num_groups()).map(slab).collect();
        let recv_lens = (0..h.num_groups())
            .map(|g| if g == h.node_index { 0 } else { slab(g) })
            .collect();
        Self::with_slabs(ctx, hc, PairLayout::Uniform { count }, send_lens, recv_lens)
    }

    /// Leaders allocate both windows; everyone addresses them through the
    /// handle.
    fn with_slabs(
        ctx: &mut Ctx,
        hc: &HybridComm,
        layout: PairLayout,
        send_group_lens: Vec<usize>,
        recv_lens: Vec<usize>,
    ) -> Self {
        let h = hc.hierarchy();
        let window = |ctx: &mut Ctx, lens: &[usize]| {
            let total = if hc.is_leader() { lens.iter().sum() } else { 0 };
            SharedWindow::allocate(ctx, &h.shm, total)
        };
        let send_win = window(ctx, &send_group_lens);
        let recv_win = window(ctx, &recv_lens);
        Self {
            hc: hc.clone(),
            ls: LeaderSet::build(ctx, hc.comm(), h, 1),
            layout,
            send_win,
            send_group_offs: displs_of(&send_group_lens),
            send_group_lens,
            recv_win,
            recv_group_offs: displs_of(&recv_lens),
        }
    }

    /// Elements in the block from `src` to `dest`.
    pub fn count(&self, src: usize, dest: usize) -> usize {
        match &self.layout {
            PairLayout::Uniform { count } => *count,
            PairLayout::Irregular { counts, .. } => counts[src * self.hc.comm().size() + dest],
        }
    }

    /// Element offset of block (s_local, dest) inside the send window.
    fn send_offset(&self, s_local: usize, dest: usize) -> usize {
        match &self.layout {
            PairLayout::Uniform { count } => {
                let h = self.hc.hierarchy();
                let (g, d_in_g) = h.locate(dest);
                self.send_group_offs[g] + (s_local * h.group_size(g) + d_in_g) * count
            }
            PairLayout::Irregular { send_offs, .. } => {
                send_offs[s_local * self.hc.comm().size() + dest]
            }
        }
    }

    /// Write this rank's outgoing block for destination parent rank
    /// `dest` (an in-place write into the node-shared send window).
    pub fn write_block(&self, ctx: &Ctx, dest: usize, data: &[T]) {
        let me = self.hc.comm().rank();
        assert_eq!(
            data.len(),
            self.count(me, dest),
            "block must hold count(me, dest) elements"
        );
        let s_local = self.hc.hierarchy().shm.rank();
        self.send_win
            .write_from(self.send_offset(s_local, dest), data);
        let _ = ctx;
    }

    /// Read the block this rank received from source parent rank `src`.
    /// On-node sources are read straight from the send window (they were
    /// never transmitted); remote sources come from the receive window.
    pub fn read_block(&self, src: usize) -> Vec<T> {
        let h = self.hc.hierarchy();
        let me = self.hc.comm().rank();
        let mut out = vec![T::default(); self.count(src, me)];
        let (src_group, s_in_g) = h.locate(src);
        if src_group == h.node_index {
            self.send_win
                .read_into(self.send_offset(s_in_g, me), &mut out);
        } else {
            let off = match &self.layout {
                PairLayout::Uniform { count } => {
                    let block = s_in_g * h.shm.size() + h.shm.rank();
                    self.recv_group_offs[src_group] + block * count
                }
                PairLayout::Irregular { recv_offs, .. } => recv_offs[src],
            };
            self.recv_win.read_into(off, &mut out);
        }
        out
    }

    /// The collective: arrive barrier → leaders exchange one contiguous
    /// slab per remote node → release barrier.
    pub fn execute(&self, ctx: &mut Ctx) {
        HyOp::run(ctx, A2aStage(self));
    }

    /// Start the collective nonblocking: the arrive signal is posted
    /// immediately; the slab exchange and the release advance on
    /// [`msim::Request`] polls. `iexecute(ctx) + wait` is bit-identical
    /// to [`HyAlltoallv::execute`] modulo the `Req*` trace markers.
    pub fn iexecute<'a>(&'a self, ctx: &mut Ctx) -> IHyAlltoallv<'a, T> {
        HyOp::start(ctx, A2aStage(self))
    }
}

/// The all-to-all bridge stage (see [`HyAlltoallv::iexecute`]): the
/// leader posts one slab per remote group (eagerly), then drains one slab
/// per remote group in group order.
pub struct A2aStage<'a, T: ShmElem>(&'a HyAlltoallv<T>);

const SLAB: u32 = tags::ALLTOALLV + 8;

impl<T: ShmElem> Stage for A2aStage<'_, T> {
    const OP: &'static str = "ihyalltoallv";
    /// The next group to receive from.
    type Bridge = usize;

    fn hc(&self) -> &HybridComm {
        &self.0.hc
    }

    fn leaders(&self) -> &LeaderSet {
        &self.0.ls
    }

    fn open(&self) -> Open {
        if self.0.hc.single_node() {
            // Everything is already in the node's send window.
            Open::Full
        } else {
            Open::Arrive
        }
    }

    fn start(&mut self, ctx: &mut Ctx) -> usize {
        let a2a = self.0;
        let bridge = a2a.ls.bridge.as_ref().expect("leaders carry the bridge");
        for g in (0..bridge.size()).filter(|&g| g != bridge.rank()) {
            let slab = a2a
                .send_win
                .payload(a2a.send_group_offs[g], a2a.send_group_lens[g]);
            ctx.send(bridge, g, SLAB, slab);
        }
        0
    }

    fn drive(&mut self, ctx: &mut Ctx, next: &mut usize, how: Drive) -> Result<bool, WaitError> {
        let a2a = self.0;
        let bridge = a2a.ls.bridge.as_ref().expect("leaders carry the bridge");
        while *next < bridge.size() {
            if *next != bridge.rank() {
                let Some(slab) = ctx.step_recv(bridge, *next, SLAB, how)? else {
                    return Ok(false);
                };
                a2a.recv_win
                    .write_payload(a2a.recv_group_offs[*next], &slab);
            }
            *next += 1;
        }
        Ok(true)
    }
}

/// An in-flight hybrid all-to-all (regular or irregular).
pub type IHyAlltoallv<'a, T> = IColl<HyOp<A2aStage<'a, T>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Tuning;
    use msim::{Request, SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, Placement};

    /// Irregular block sizes: (s + 2d) % 4 elements from s to d.
    fn count_of(s: usize, d: usize) -> usize {
        (s + 2 * d) % 4
    }

    fn blockval(s: usize, d: usize, k: usize) -> f64 {
        (s * 100 + d) as f64 + k as f64 / 1000.0
    }

    fn counts_matrix(p: usize) -> Vec<usize> {
        (0..p * p).map(|i| count_of(i / p, i % p)).collect()
    }

    fn check(cfg: SimConfig, nonblocking: bool) {
        let p = cfg.spec.total_cores();
        let counts = counts_matrix(p);
        let out = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let a2av = HyAlltoallv::<f64>::new(ctx, &hc, &counts);
            let me = ctx.rank();
            for dest in 0..world.size() {
                let data: Vec<f64> = (0..count_of(me, dest))
                    .map(|k| blockval(me, dest, k))
                    .collect();
                a2av.write_block(ctx, dest, &data);
            }
            if nonblocking {
                let req = a2av.iexecute(ctx);
                req.wait(ctx);
            } else {
                a2av.execute(ctx);
            }
            (0..world.size())
                .flat_map(|src| a2av.read_block(src))
                .collect::<Vec<f64>>()
        })
        .unwrap();
        for (rank, got) in out.per_rank.iter().enumerate() {
            let expected: Vec<f64> = (0..p)
                .flat_map(|src| (0..count_of(src, rank)).map(move |k| blockval(src, rank, k)))
                .collect();
            assert_eq!(got, &expected, "rank {rank}");
        }
    }

    #[test]
    fn correct_on_regular_clusters() {
        for (nodes, ppn) in [(1, 4), (2, 3), (3, 2), (2, 4)] {
            let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
            check(cfg, false);
        }
    }

    #[test]
    fn correct_on_irregular_cluster_and_round_robin() {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![3, 1, 4]),
            CostModel::uniform_test(),
        );
        check(cfg, false);
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        check(cfg, false);
    }

    #[test]
    fn nonblocking_matches_blocking() {
        for (nodes, ppn) in [(1, 3), (2, 3), (3, 2)] {
            let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
            check(cfg, true);
        }
    }

    #[test]
    fn one_message_per_node_pair() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 2), CostModel::cray_aries()).traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let counts = counts_matrix(world.size());
            let a2av = HyAlltoallv::<f64>::new(ctx, &hc, &counts);
            let me = ctx.rank();
            for dest in 0..world.size() {
                a2av.write_block(ctx, dest, &vec![0.0; count_of(me, dest)]);
            }
            a2av.execute(ctx);
        })
        .unwrap();
        // Inter-node slab messages: exactly nodes*(nodes-1) = 6, and no
        // intra-node payload traffic at all.
        let inter_msgs = r
            .tracer
            .events()
            .iter()
            .filter(|e| matches!(e.kind, simnet::EventKind::Send { intra: false, .. }))
            .count();
        assert_eq!(inter_msgs, 6);
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
}
