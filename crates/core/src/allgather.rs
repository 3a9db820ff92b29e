//! The hybrid allgather (paper §4.1, Figs. 3b and 4).
//!
//! One shared window per node holds the **entire** result buffer; each
//! rank's "send buffer" is simply its partition of that window (no private
//! copies, no intra-node data movement). The collective itself is:
//!
//! ```text
//! Barrier(shm)                         // children's partitions are ready
//! if leader: Allgatherv(bridge)        // node aggregates, in place
//! Barrier(shm)                         // exchanged data is ready
//! ```
//!
//! with the single-node case degenerating to one barrier (the paper's
//! lines 29–38 of Fig. 4). That sandwich is [`crate::envelope`]; this
//! module supplies the window layout and the bridge stage.
//!
//! The leader count is a constructor argument
//! ([`HyAllgatherv::with_leaders`]): with `k ≥ 2` leader slots per node
//! each node block is cut into `k` contiguous segments
//! ([`collectives::seg_bounds`]) and slot `j` runs a ring over its own
//! stripe bridge moving only segment `j` of every node block, so no
//! single rank serializes the node's inter-node traffic (PAPERS.md arXiv
//! 1910.09650 / 2305.10612). `k = 1` is the paper's algorithm, with the
//! library's tuned Bruck/ring exchange over whole node blocks.
//!
//! The window is laid out in *node-sorted* parent-rank order (paper §6's
//! "node-sorted global rank array"), so each node's contribution is
//! contiguous and the bridge exchange needs no packing for any placement;
//! [`HyAllgatherv::block_offset`] translates a parent rank to its block
//! for readers.

use collectives::allgatherv;
use collectives::{seg_bounds, IColl, LeaderSet};
use msim::{Buf, Communicator, Ctx, Drive, SharedWindow, ShmElem, WaitError};
use std::ops::Deref;
use std::sync::Arc;

use crate::envelope::{HyOp, Open, Stage, RING};
use crate::hybrid::HybridComm;

/// How per-rank blocks are laid out inside the shared window.
///
/// The uniform case stores only the per-rank count — block offsets are
/// derived from the hierarchy's `Arc`-shared node-sorted position array,
/// so a [`HyAllgather`] handle costs O(1) memory per rank. The irregular
/// case stores the caller's O(p) count/offset tables (the caller already
/// materialized O(p) counts to construct it).
#[derive(Debug, Clone)]
enum BlockLayout {
    /// Every rank contributes `count` elements.
    Uniform { count: usize },
    /// Rank `r` contributes `counts[r]` elements starting at `offsets[r]`.
    Irregular {
        counts: Vec<usize>,
        offsets: Vec<usize>,
    },
}

/// What a slot leader exchanges over its bridge (indexed by bridge rank
/// = node group).
#[derive(Debug, Clone)]
enum BridgePlan {
    /// `k = 1`: the aggregate element count of every node block, shared
    /// among the leaders.
    Blocks(Arc<Vec<usize>>),
    /// `k ≥ 2`: `(displs, counts)` of this slot's segment of every node
    /// block.
    Stripe(Arc<(Vec<usize>, Vec<usize>)>),
}

/// Displacement and length of stripe `j`'s segment inside every node
/// block, the blocks being `node_lens` long and laid out back to back.
fn stripe_layout(
    node_lens: impl Iterator<Item = usize>,
    j: usize,
    k: usize,
) -> (Vec<usize>, Vec<usize>) {
    let (mut displs, mut counts) = (Vec::new(), Vec::new());
    let mut start = 0usize;
    for len in node_lens {
        let (off, l) = seg_bounds(len, j, k);
        displs.push(start + off);
        counts.push(l);
        start += len;
    }
    (displs, counts)
}

/// Irregular hybrid allgather: rank `r` contributes `counts[r]` elements.
#[derive(Debug, Clone)]
pub struct HyAllgatherv<T> {
    hc: HybridComm,
    ls: LeaderSet,
    win: SharedWindow<T>,
    layout: BlockLayout,
    /// `Some` exactly on the slot leaders of multi-node communicators —
    /// the only ranks that drive the bridge exchange.
    plan: Option<BridgePlan>,
}

impl<T: ShmElem> HyAllgatherv<T> {
    /// One-off setup with the paper's single leader per node: the node
    /// leader allocates a window for the whole result; children allocate
    /// zero and address it through the shared handle
    /// (`MPI_Win_shared_query`).
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, counts: &[usize]) -> Self {
        Self::with_leaders(ctx, hc, counts, 1)
    }

    /// One-off setup with the bridge exchange striped over `leaders`
    /// slots per node (clamped by [`LeaderSet::build`]; rank 0 still owns
    /// the window allocation, slot leaders address it through the shared
    /// handle).
    pub fn with_leaders(ctx: &mut Ctx, hc: &HybridComm, counts: &[usize], leaders: usize) -> Self {
        let p = hc.comm().size();
        assert_eq!(counts.len(), p, "one count per rank required");
        let h = hc.hierarchy();
        let ls = LeaderSet::build(ctx, hc.comm(), h, leaders);

        // Window layout: blocks in node-sorted parent-rank order.
        let mut offsets = vec![0usize; p];
        let mut total = 0usize;
        for &parent in h.node_sorted.iter() {
            offsets[parent] = total;
            total += counts[parent];
        }
        let my_len = if hc.is_leader() { total } else { 0 };
        let win = SharedWindow::allocate(ctx, &h.shm, my_len);

        let node_lens = h
            .group_members
            .iter()
            .map(|members| members.iter().map(|&r| counts[r]).sum());
        let plan = ls.slot.filter(|_| !hc.single_node()).map(|j| {
            if ls.k == 1 {
                BridgePlan::Blocks(Arc::new(node_lens.collect()))
            } else {
                BridgePlan::Stripe(Arc::new(stripe_layout(node_lens, j, ls.k)))
            }
        });
        let layout = BlockLayout::Irregular {
            counts: counts.to_vec(),
            offsets,
        };
        Self::finish(ctx, hc, ls, win, layout, plan)
    }

    /// Setup for the uniform case ([`HyAllgather`]): every rank contributes
    /// `count` elements. Unlike [`HyAllgatherv::with_leaders`], this never
    /// materializes a per-rank O(p) table: offsets come from the
    /// hierarchy's shared node-sorted array, and at `k = 1` the bridge
    /// counts are computed **once** (by the last leader to arrive at a
    /// zero-virtual-cost setup exchange) and `Arc`-shared among the
    /// leaders. This is what lets phantom sweeps instantiate hundreds of
    /// thousands of handles.
    fn uniform(ctx: &mut Ctx, hc: &HybridComm, count: usize, leaders: usize) -> Self {
        let h = hc.hierarchy();
        let ls = LeaderSet::build(ctx, hc.comm(), h, leaders);
        let total = hc.comm().size() * count;
        let my_len = if hc.is_leader() { total } else { 0 };
        let win = SharedWindow::allocate(ctx, &h.shm, my_len);

        let plan = match (&ls.bridge, ls.slot) {
            _ if hc.single_node() => None,
            (Some(bridge), Some(_)) if ls.k == 1 => {
                let groups = Arc::clone(&h.group_members);
                let blocks = ctx.setup_exchange(bridge, (), move |_| {
                    groups.iter().map(|m| m.len() * count).collect()
                });
                Some(BridgePlan::Blocks(blocks))
            }
            (_, Some(j)) => {
                let node_lens = h.group_members.iter().map(|m| m.len() * count);
                Some(BridgePlan::Stripe(Arc::new(stripe_layout(
                    node_lens, j, ls.k,
                ))))
            }
            _ => None,
        };
        let layout = BlockLayout::Uniform { count };
        Self::finish(ctx, hc, ls, win, layout, plan)
    }

    fn finish(
        ctx: &mut Ctx,
        hc: &HybridComm,
        ls: LeaderSet,
        win: SharedWindow<T>,
        layout: BlockLayout,
        plan: Option<BridgePlan>,
    ) -> Self {
        if ls.k > 1 {
            let (op, algo) = match layout {
                BlockLayout::Uniform { .. } => ("allgather", "allgather.hy_kleader"),
                BlockLayout::Irregular { .. } => ("allgatherv", "allgatherv.hy_kleader"),
            };
            ctx.trace_decision(op, algo, &format!("multi-leader handle, k={}", ls.k));
        }
        Self {
            hc: hc.clone(),
            ls,
            win,
            layout,
            plan,
        }
    }

    /// The effective leader count this handle runs with.
    pub fn leaders(&self) -> usize {
        self.ls.k
    }

    /// Element offset of parent rank `r`'s block inside the shared window
    /// (the paper's "deduce the corresponding place of its block … in
    /// terms of any given global rank").
    pub fn block_offset(&self, r: usize) -> usize {
        match &self.layout {
            BlockLayout::Uniform { count } => self.hc.hierarchy().sorted_pos[r] * count,
            BlockLayout::Irregular { offsets, .. } => offsets[r],
        }
    }

    /// Element count of parent rank `r`'s block.
    pub fn block_len(&self, r: usize) -> usize {
        match &self.layout {
            BlockLayout::Uniform { count } => *count,
            BlockLayout::Irregular { counts, .. } => counts[r],
        }
    }

    /// The shared window holding the result.
    pub fn window(&self) -> &SharedWindow<T> {
        &self.win
    }

    /// Initialize this rank's partition in place (the paper's lines 21–22:
    /// the local data lives directly inside the shared buffer, so this is
    /// the *original* write, not an extra copy — nothing is charged).
    pub fn write_my_block(&self, ctx: &Ctx, data: &[T]) {
        let me = self.hc.comm().rank();
        assert_eq!(
            data.len(),
            self.block_len(me),
            "data must match counts[rank]"
        );
        self.win.write_from(self.block_offset(me), data);
        let _ = ctx; // ctx witnesses that we are inside a running universe
    }

    /// Read parent rank `r`'s block out of the shared window (a direct
    /// load in the paper's model; free of charge, like any computation
    /// input read).
    pub fn read_block(&self, r: usize) -> Vec<T> {
        let mut out = vec![T::default(); self.block_len(r)];
        self.read_block_into(r, &mut out);
        out
    }

    /// [`HyAllgatherv::read_block`] into a buffer the caller keeps: a
    /// loop that reads a block per step (a SUMMA panel, say) loads it
    /// straight from the window into its one operand buffer.
    ///
    /// # Panics
    /// Panics if `out` is not exactly one block of rank `r` long.
    pub fn read_block_into(&self, r: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.block_len(r), "out must match counts[r]");
        self.win.read_into(self.block_offset(r), out);
    }

    /// The collective operation (paper Fig. 4, lines 23–39): synchronize,
    /// exchange node aggregates over the bridge (in place, straight from
    /// and into the shared window), synchronize again. Single-node
    /// communicators need only the one barrier.
    pub fn execute(&self, ctx: &mut Ctx) {
        HyOp::run(ctx, AgStage(self));
    }

    /// Start the collective nonblocking (`MPI_Iallgatherv` over the
    /// hybrid layout): the arrive signal is posted immediately; the
    /// bridge exchange and the release advance on [`msim::Request`]
    /// polls. `iexecute(ctx) + wait` is bit-identical to
    /// [`HyAllgatherv::execute`] modulo the `Req*` trace markers.
    pub fn iexecute<'a>(&'a self, ctx: &mut Ctx) -> IHyAllgatherv<'a, T> {
        HyOp::start(ctx, AgStage(self))
    }
}

/// In-place ring over a stripe bridge with explicit per-node
/// displacements: step `s` forwards block `(me + p − s) mod p` to the
/// right neighbor while receiving block `(me + p − s − 1) mod p` from the
/// left — the allgatherv ring restricted to this stripe's segments of the
/// shared window. Construction charges the same entry and per-member
/// bookkeeping fees as the tuned `k = 1` exchange.
#[derive(Debug)]
pub struct KRingSm {
    step: usize,
    sent: bool,
}

impl KRingSm {
    fn new(ctx: &mut Ctx, bridge: &Communicator, v_overhead_per_rank_us: f64) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        ctx.charge_time(v_overhead_per_rank_us * bridge.size() as f64);
        Self {
            step: 0,
            sent: false,
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        (displs, counts): &(Vec<usize>, Vec<usize>),
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        while self.step + 1 < p {
            let send_block = (me + p - self.step) % p;
            let recv_block = (me + p - self.step - 1) % p;
            if !self.sent {
                ctx.send_region(
                    comm,
                    right,
                    RING,
                    recv,
                    displs[send_block],
                    counts[send_block],
                );
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, left, RING, how)? else {
                return Ok(false);
            };
            recv.write_payload(displs[recv_block], &payload);
            self.step += 1;
            self.sent = false;
        }
        Ok(true)
    }
}

/// The bridge exchange of one slot leader. Two algorithms survive because
/// each wins on its side: `k = 1` keeps the library's tuned Bruck/ring
/// selection over whole node blocks (the paper's Figs. 7–9), a stripe
/// needs explicit displacements into every node block.
pub enum AgBridge<T: ShmElem> {
    Tuned(allgatherv::InPlaceSm<T>),
    Ring(KRingSm),
}

/// The allgather(v) bridge stage (see [`HyAllgatherv::iexecute`]).
pub struct AgStage<'a, T: ShmElem>(&'a HyAllgatherv<T>);

impl<T: ShmElem> AgStage<'_, T> {
    fn bridge(&self) -> (&Communicator, &BridgePlan) {
        let ag = self.0;
        let bridge = ag.ls.bridge.as_ref().expect("slot leaders carry a bridge");
        let plan = ag.plan.as_ref().expect("slot leaders carry a bridge plan");
        (bridge, plan)
    }
}

impl<T: ShmElem> Stage for AgStage<'_, T> {
    const OP: &'static str = "ihyallgatherv";
    type Bridge = (AgBridge<T>, Buf<T>);

    fn hc(&self) -> &HybridComm {
        &self.0.hc
    }

    fn leaders(&self) -> &LeaderSet {
        &self.0.ls
    }

    fn open(&self) -> Open {
        if self.0.hc.single_node() {
            Open::Full
        } else {
            Open::Arrive
        }
    }

    fn start(&mut self, ctx: &mut Ctx) -> Self::Bridge {
        let hc = &self.0.hc;
        let (bridge, plan) = self.bridge();
        let sm = match plan {
            // Same fees either way; a policy additionally gets to pick the
            // bridge algorithm (and records why).
            BridgePlan::Blocks(counts) => AgBridge::Tuned(match hc.policy() {
                Some(policy) => allgatherv::InPlaceSm::with_policy(ctx, bridge, counts, policy),
                None => allgatherv::InPlaceSm::tuned(ctx, bridge, counts, hc.tuning()),
            }),
            BridgePlan::Stripe(_) => AgBridge::Ring(KRingSm::new(
                ctx,
                bridge,
                hc.tuning().v_overhead_per_rank_us,
            )),
        };
        (sm, Buf::Shared(self.0.win.clone()))
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        (sm, view): &mut Self::Bridge,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match (sm, self.bridge()) {
            (AgBridge::Tuned(sm), (bridge, BridgePlan::Blocks(counts))) => {
                sm.drive(ctx, bridge, counts, view, how)
            }
            (AgBridge::Ring(sm), (bridge, BridgePlan::Stripe(stripe))) => {
                sm.drive(ctx, bridge, stripe, view, how)
            }
            _ => unreachable!("the bridge machine follows the handle's plan"),
        }
    }
}

/// An in-flight hybrid allgather(v).
pub type IHyAllgatherv<'a, T> = IColl<HyOp<AgStage<'a, T>>>;

/// Regular hybrid allgather: every rank contributes `count` elements
/// (paper Fig. 4 verbatim). Dereferences to the [`HyAllgatherv`] it is
/// the uniform layout of, for everything but construction.
#[derive(Debug, Clone)]
pub struct HyAllgather<T> {
    inner: HyAllgatherv<T>,
    count: usize,
}

impl<T: ShmElem> HyAllgather<T> {
    /// One-off setup for `count` elements per rank, one leader per node.
    /// O(1) memory per rank: never materializes a per-rank counts table.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize) -> Self {
        Self::with_leaders(ctx, hc, count, 1)
    }

    /// One-off setup with the bridge exchange striped over `leaders`
    /// slots per node; O(nodes) memory on slot leaders, O(1) elsewhere.
    pub fn with_leaders(ctx: &mut Ctx, hc: &HybridComm, count: usize, leaders: usize) -> Self {
        Self {
            inner: HyAllgatherv::uniform(ctx, hc, count, leaders),
            count,
        }
    }

    /// Elements per rank.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl<T> Deref for HyAllgather<T> {
    type Target = HyAllgatherv<T>;

    fn deref(&self) -> &HyAllgatherv<T> {
        &self.inner
    }
}

/// Constructor shim for the frozen `benchmark/` package, which predates
/// [`HyAllgather::with_leaders`]; holds no logic of its own.
pub struct HyKAllgather<T>(HyAllgather<T>);
impl<T: ShmElem> HyKAllgather<T> {
    /// [`HyAllgather::with_leaders`] under its former name.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, leaders: usize) -> Self {
        Self(HyAllgather::with_leaders(ctx, hc, count, leaders))
    }
}
impl<T> Deref for HyKAllgather<T> {
    type Target = HyAllgather<T>;
    fn deref(&self) -> &HyAllgather<T> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Tuning;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, Placement};

    fn datum(rank: usize, i: usize) -> f64 {
        (rank * 1000 + i) as f64 + 0.5
    }

    fn check_allgather(cfg: SimConfig, count: usize, leaders: usize) {
        let p = cfg.spec.total_cores();
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, count, leaders);
            let mine: Vec<f64> = (0..count).map(|i| datum(ctx.rank(), i)).collect();
            ag.write_my_block(ctx, &mine);
            ag.execute(ctx);
            // Read back every block through the shared window.
            (0..ctx.nranks())
                .flat_map(|rk| ag.read_block(rk))
                .collect::<Vec<f64>>()
        })
        .unwrap();
        let expected: Vec<f64> = (0..p)
            .flat_map(|rk| (0..count).map(move |i| datum(rk, i)))
            .collect();
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank} leaders {leaders}");
        }
    }

    #[test]
    fn correct_on_regular_clusters() {
        for (nodes, ppn) in [(1, 1), (1, 6), (2, 3), (4, 2), (3, 4)] {
            // 8 clamps to the node size, and to 1 on a single node.
            for leaders in [1, 2, 3, 8] {
                let spec = ClusterSpec::regular(nodes, ppn);
                check_allgather(SimConfig::new(spec, CostModel::uniform_test()), 4, leaders);
            }
        }
    }

    #[test]
    fn correct_on_irregular_clusters() {
        // Smallest group 1: every leader count clamps to 1. Smallest
        // group 2: k = 4 clamps to 2, on uneven node blocks.
        for cores in [vec![3, 1, 4], vec![2, 3, 4]] {
            let cfg = SimConfig::new(ClusterSpec::irregular(cores), CostModel::uniform_test());
            check_allgather(cfg, 3, 4);
        }
    }

    #[test]
    fn correct_under_round_robin_placement() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        check_allgather(cfg, 2, 2);
    }

    #[test]
    fn irregular_counts_variant() {
        for leaders in [1, 2] {
            irregular_counts(leaders);
        }
    }

    fn irregular_counts(leaders: usize) {
        let counts = vec![2usize, 0, 3, 1, 4, 2];
        let counts2 = counts.clone();
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test());
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::open_mpi());
            let ag = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts2, leaders);
            assert_eq!(ag.leaders(), leaders);
            let mine: Vec<f64> = (0..counts2[ctx.rank()])
                .map(|i| datum(ctx.rank(), i))
                .collect();
            ag.write_my_block(ctx, &mine);
            ag.execute(ctx);
            (0..ctx.nranks())
                .flat_map(|rk| ag.read_block(rk))
                .collect::<Vec<f64>>()
        })
        .unwrap();
        let expected: Vec<f64> = counts
            .iter()
            .enumerate()
            .flat_map(|(rk, &c)| (0..c).map(move |i| datum(rk, i)))
            .collect();
        for got in &r.per_rank {
            assert_eq!(got, &expected);
        }
    }

    #[test]
    fn zero_intra_node_data_traffic() {
        // THE paper property: the hybrid allgather must move no payload
        // bytes inside a node — no aggregation, no broadcast, no copies.
        let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries()).traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let ag = HyAllgather::<f64>::new(ctx, &hc, 64);
            let mine = vec![1.0; 64];
            ag.write_my_block(ctx, &mine);
            ag.execute(ctx);
        })
        .unwrap();
        let events = r.tracer.events();
        let intra_payload_bytes: usize = events
            .iter()
            .filter_map(|e| match e.kind {
                simnet::EventKind::Send {
                    bytes, intra: true, ..
                } => Some(bytes),
                _ => None,
            })
            .sum();
        assert_eq!(
            intra_payload_bytes, 0,
            "hybrid allgather must not move data intra-node"
        );
        // The only permitted copies are the bridge library's internal ones
        // (Bruck rotation at the leaders); children — the 6 non-leader
        // ranks — must perform none. The aggregation/broadcast copies of
        // the SMP-aware baseline would show up on every rank.
        let leader_ranks = [0usize, 4];
        for e in &events {
            if matches!(e.kind, simnet::EventKind::Copy { .. }) {
                assert!(
                    leader_ranks.contains(&e.rank),
                    "non-leader rank {} performed a data copy",
                    e.rank
                );
            }
        }
        assert!(r.tracer.inter_node_sends() > 0, "bridge traffic must exist");
    }

    #[test]
    fn window_memory_is_one_copy_per_node() {
        // Per-node window bytes = p * count * 8, independent of ppn.
        let window_bytes = |ppn: usize| {
            let cfg =
                SimConfig::new(ClusterSpec::regular(2, ppn), CostModel::cray_aries()).traced();
            let r = Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
                let _ag = HyAllgather::<f64>::new(ctx, &hc, 16);
            })
            .unwrap();
            // Total across the 2 nodes; normalize per node per rank block.
            r.tracer.total_window_bytes()
        };
        let b2 = window_bytes(2); // p=4:  2 nodes * 4*16*8
        let b4 = window_bytes(4); // p=8:  2 nodes * 8*16*8
        assert_eq!(b2, 2 * 4 * 16 * 8);
        assert_eq!(b4, 2 * 8 * 16 * 8);
        // Memory grows with p (total data) but NOT with copies per rank:
        // the pure-MPI version would hold p*count*8 on EVERY rank, i.e.
        // ppn times more per node.
    }

    #[test]
    fn single_node_execute_is_one_barrier() {
        let cfg = SimConfig::new(ClusterSpec::single_node(8), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let ag = HyAllgather::<f64>::new(ctx, &hc, 1 << 12);
            ag.write_my_block(ctx, &vec![1.0; 1 << 12]);
            let t0 = ctx.now();
            ag.execute(ctx);
            ctx.now() - t0
        })
        .unwrap();
        // Dissemination barrier on 8 ranks with the uniform model:
        // 3 rounds * (o_send + o_recv + alpha) = 3 * 3 = 9 µs; allow wait
        // skew, but nothing near a data-size-dependent cost (4096 elems).
        for (rank, &dt) in r.per_rank.iter().enumerate() {
            assert!(
                dt <= 9.0 + 1e-9,
                "rank {rank}: {dt} µs — too slow for one barrier"
            );
        }
    }

    #[test]
    fn phantom_and_real_modes_agree_on_time() {
        let run_mode = |phantom: bool| {
            let mut cfg = SimConfig::new(ClusterSpec::regular(3, 4), CostModel::cray_aries());
            if phantom {
                cfg = cfg.phantom();
            }
            Universe::run(cfg, |ctx| {
                let world = ctx.world();
                let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
                let ag = HyAllgather::<f64>::new(ctx, &hc, 512);
                if !ctx.mode_is_phantom() {
                    ag.write_my_block(ctx, &vec![1.0; 512]);
                }
                ag.execute(ctx);
                ctx.now()
            })
            .unwrap()
            .clocks
        };
        assert_eq!(
            run_mode(false),
            run_mode(true),
            "virtual time must be mode-invariant"
        );
    }
}
