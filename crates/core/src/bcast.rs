//! The hybrid broadcast (paper §4.2, Figs. 5 and 6).
//!
//! One shared window per node holds the broadcast message; only the node
//! leaders run the across-node `MPI_Bcast` on the bridge communicator; a
//! single barrier after the exchange guarantees that the data is ready for
//! every on-node reader. In the pure-MPI version each rank owns a private
//! copy of the message — here the node owns one.
//!
//! With `k ≥ 2` leader slots per node ([`HyBcast::with_leaders`]) the
//! message is cut into `k` segments ([`collectives::seg_bounds`])
//! broadcast *concurrently*, one per stripe bridge, every segment landing
//! directly in the node's window — the segmented schedule of PAPERS.md
//! arXiv 1603.06809 (bandwidth term `~β·m/k` per leader instead of
//! `β·m`). `k = 1` is the paper's algorithm: one segment, the whole
//! window.

use collectives::bcast as coll_bcast;
use collectives::{seg_bounds, IColl, LeaderSet};
use msim::{Buf, Ctx, Drive, Payload, SharedWindow, ShmElem, WaitError};

use crate::envelope::{HyOp, Open, Stage, READY};
use crate::hybrid::HybridComm;

/// A hybrid broadcast handle for messages of a fixed length.
#[derive(Debug, Clone)]
pub struct HyBcast<T> {
    hc: HybridComm,
    ls: LeaderSet,
    win: SharedWindow<T>,
    len: usize,
}

impl<T: ShmElem> HyBcast<T> {
    /// One-off setup with the paper's single leader per node: the node
    /// leader allocates a `len`-element window, children allocate zero
    /// and use the shared handle.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, len: usize) -> Self {
        Self::with_leaders(ctx, hc, len, 1)
    }

    /// One-off setup with the message segmented over `leaders` slots per
    /// node (clamped by [`LeaderSet::build`]).
    pub fn with_leaders(ctx: &mut Ctx, hc: &HybridComm, len: usize, leaders: usize) -> Self {
        let h = hc.hierarchy();
        let ls = LeaderSet::build(ctx, hc.comm(), h, leaders);
        let my_len = if hc.is_leader() { len } else { 0 };
        let win = SharedWindow::allocate(ctx, &h.shm, my_len);
        if ls.k > 1 {
            ctx.trace_decision(
                "bcast",
                "bcast.hy_kleader_segmented",
                &format!("multi-leader handle, k={}", ls.k),
            );
        }
        Self {
            hc: hc.clone(),
            ls,
            win,
            len,
        }
    }

    /// Message length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The effective leader count this handle runs with.
    pub fn leaders(&self) -> usize {
        self.ls.k
    }

    /// The node-shared window holding the message.
    pub fn window(&self) -> &SharedWindow<T> {
        &self.win
    }

    /// The root writes the message into its node's shared window (the
    /// paper's lines 1–2 of Fig. 6 — the original write, not a copy).
    pub fn write_message(&self, ctx: &Ctx, data: &[T]) {
        assert_eq!(data.len(), self.len, "message must match the window length");
        self.win.write_from(0, data);
        let _ = ctx;
    }

    /// Read the broadcast message (direct load from the shared window).
    pub fn read_message(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.len];
        self.win.read_into(0, &mut out);
        out
    }

    /// The collective operation (paper Fig. 6): the leaders broadcast
    /// across nodes from window to window; one barrier releases the
    /// on-node readers. `root` is a parent-communicator rank and must have
    /// called [`HyBcast::write_message`] beforehand.
    pub fn execute(&self, ctx: &mut Ctx, root: usize) {
        let stage = BcStage::new(ctx, self, root);
        HyOp::run(ctx, stage);
    }

    /// Start the collective nonblocking: the root's window-ready signal
    /// is posted immediately; the bridge broadcast and the release
    /// advance on [`msim::Request`] polls. `iexecute(ctx, root) + wait`
    /// is bit-identical to [`HyBcast::execute`] modulo the `Req*` trace
    /// markers.
    pub fn iexecute<'a>(&'a self, ctx: &mut Ctx, root: usize) -> IHyBcast<'a, T> {
        let stage = BcStage::new(ctx, self, root);
        HyOp::start(ctx, stage)
    }
}

/// The broadcast bridge stage (see [`HyBcast::iexecute`]).
pub struct BcStage<'a, T: ShmElem> {
    bc: &'a HyBcast<T>,
    root_group: usize,
    /// A root-node slot still waiting for the root's window-ready signal,
    /// from this on-node rank.
    ready_from: Option<usize>,
}

impl<'a, T: ShmElem> BcStage<'a, T> {
    fn new(ctx: &mut Ctx, bc: &'a HyBcast<T>, root: usize) -> Self {
        let h = bc.hc.hierarchy();
        assert!(root < bc.hc.comm().size(), "bcast root {root} out of range");
        let (root_group, root_local) = h.locate(root);

        // Every slot of the root's node must inherit the root's message
        // write before sending its segment across nodes. One zero-byte
        // point-to-point pair per slot — the paper's §6 "light-weight
        // means" — is all the ordering required, under every sync method
        // (a full barrier here would cost a node-wide round for a
        // one-to-few dependency).
        let mut ready_from = None;
        if h.node_index == root_group && !bc.hc.single_node() {
            if bc.hc.comm().rank() == root {
                for slot in (0..bc.ls.k).filter(|&j| j != root_local) {
                    ctx.send(&h.shm, slot, READY, Payload::empty());
                }
            } else if bc.ls.is_leader() {
                ready_from = Some(root_local);
            }
        }
        Self {
            bc,
            root_group,
            ready_from,
        }
    }
}

impl<T: ShmElem> Stage for BcStage<'_, T> {
    const OP: &'static str = "ihybcast";
    type Bridge = (coll_bcast::TunedSm, Buf<T>);

    fn hc(&self) -> &HybridComm {
        &self.bc.hc
    }

    fn leaders(&self) -> &LeaderSet {
        &self.bc.ls
    }

    fn open(&self) -> Open {
        if self.bc.hc.single_node() {
            // The message is already in the node's window; one barrier
            // makes it visible (paper lines 9–10 / 13).
            Open::Full
        } else if self.ready_from.is_some() {
            Open::Pre
        } else {
            Open::Bridge
        }
    }

    fn pre(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        if let Some(src) = self.ready_from {
            let shm = &self.bc.hc.hierarchy().shm;
            if ctx.step_recv(shm, src, READY, how)?.is_none() {
                return Ok(false);
            }
            self.ready_from = None;
        }
        Ok(true)
    }

    fn start(&mut self, ctx: &mut Ctx) -> Self::Bridge {
        let bc = self.bc;
        let bridge = bc.ls.bridge.as_ref().expect("slot leaders carry a bridge");
        let j = bc.ls.slot.expect("the bridge starts only on slot leaders");
        let (off, len) = seg_bounds(bc.len, j, bc.ls.k);
        let view = Buf::Shared(bc.win.region(off, len));
        // Same fees either way; a policy additionally gets to pick the
        // bridge algorithm (and records why). Each stripe's selection
        // sees its own segment size, so large messages get the
        // scatter+allgather schedule per stripe.
        let sm = match bc.hc.policy() {
            Some(policy) => coll_bcast::TunedSm::with_policy(ctx, bridge, &view, policy),
            None => coll_bcast::TunedSm::tuned(ctx, bridge, &view, bc.hc.tuning()),
        };
        (sm, view)
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        (sm, view): &mut Self::Bridge,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let bridge = self
            .bc
            .ls
            .bridge
            .as_ref()
            .expect("slot leaders carry a bridge");
        sm.drive(ctx, bridge, view, self.root_group, how)
    }
}

/// An in-flight hybrid broadcast.
pub type IHyBcast<'a, T> = IColl<HyOp<BcStage<'a, T>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Tuning;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, Placement};

    /// Every root case at 1, 2 and 4 requested leaders (clamped per
    /// cluster): the root is a slot leader, a plain child, or off-node.
    fn check_bcast(cfg: SimConfig, len: usize, root: usize) {
        for leaders in [1, 2, 4] {
            check_bcast_k(cfg.clone(), len, root, leaders);
        }
    }

    fn check_bcast_k(cfg: SimConfig, len: usize, root: usize, leaders: usize) {
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let bc = HyBcast::<f64>::with_leaders(ctx, &hc, len, leaders);
            if ctx.rank() == root {
                let msg: Vec<f64> = (0..len).map(|i| (root * 100 + i) as f64).collect();
                bc.write_message(ctx, &msg);
            }
            bc.execute(ctx, root);
            bc.read_message()
        })
        .unwrap();
        let expected: Vec<f64> = (0..len).map(|i| (root * 100 + i) as f64).collect();
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank} root {root} k {leaders}");
        }
    }

    #[test]
    fn correct_all_roots_multi_node() {
        for root in 0..8 {
            let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test());
            check_bcast(cfg, 5, root);
        }
    }

    #[test]
    fn correct_single_node() {
        for root in [0, 3] {
            let cfg = SimConfig::new(ClusterSpec::single_node(4), CostModel::uniform_test());
            check_bcast(cfg, 7, root);
        }
    }

    #[test]
    fn correct_irregular_and_round_robin() {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![1, 3, 2]),
            CostModel::uniform_test(),
        );
        check_bcast(cfg, 4, 2);
        let cfg = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test())
            .with_placement(Placement::RoundRobin);
        check_bcast(cfg, 4, 3);
    }

    #[test]
    fn zero_intra_node_data_traffic() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries()).traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let bc = HyBcast::<f64>::new(ctx, &hc, 128);
            if ctx.rank() == 0 {
                bc.write_message(ctx, &vec![2.5; 128]);
            }
            bc.execute(ctx, 0);
        })
        .unwrap();
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
        assert_eq!(
            intra_payload, 0,
            "hybrid bcast must not move data intra-node"
        );
    }

    #[test]
    fn window_is_one_message_per_node() {
        let cfg = SimConfig::new(ClusterSpec::regular(3, 8), CostModel::cray_aries()).traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let _bc = HyBcast::<f64>::new(ctx, &hc, 100);
        })
        .unwrap();
        assert_eq!(
            r.tracer.total_window_bytes(),
            3 * 100 * 8,
            "one window per node"
        );
    }

    #[test]
    fn phantom_and_real_modes_agree_on_time() {
        let run_mode = |phantom: bool| {
            let mut cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::nec_infiniband());
            if phantom {
                cfg = cfg.phantom();
            }
            Universe::run(cfg, |ctx| {
                let world = ctx.world();
                let hc = HybridComm::new(ctx, &world, Tuning::open_mpi());
                let bc = HyBcast::<f64>::new(ctx, &hc, 2048);
                if ctx.rank() == 0 && !ctx.mode_is_phantom() {
                    bc.write_message(ctx, &vec![1.0; 2048]);
                }
                bc.execute(ctx, 0);
                ctx.now()
            })
            .unwrap()
            .clocks
        };
        assert_eq!(run_mode(false), run_mode(true));
    }
}
