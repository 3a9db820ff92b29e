//! Hybrid allreduce — an extension of the paper's recipe to a reduction
//! collective (the paper's conclusion calls for "more experiences" beyond
//! allgather/bcast; allreduce is the natural next one, since `MPI_Allreduce`
//! is the most-used collective in the NAS-type workloads the paper cites).
//!
//! The shape follows §4: the node's *result* is stored once per node in a
//! shared window. Unlike allgather, a reduction must actually combine
//! on-node contributions, so intra-node traffic cannot be eliminated —
//! but the result replication can: children read the result straight from
//! the window instead of each holding a private copy.
//!
//! How the on-node combine runs follows the leader count
//! ([`HyAllreduce::with_leaders`]), because each side wins on its own
//! ground (BENCH_multileader.json):
//!
//! * `k = 1` — a rooted binomial reduce to the leader, then the leaders'
//!   tuned allreduce over the bridge straight into the window;
//! * `k ≥ 2` — a *cooperative window fill* (PAPERS.md arXiv 1910.09650):
//!   every on-node rank deposits its contribution in its own row of a
//!   contributions window, then reduces a `1/ppn` slice of the columns
//!   into the node's result window, so the combine work is spread over
//!   all ranks instead of log₂(ppn) rounds at the leader; the bridge
//!   allreduce is then striped over the `k` slots, each reducing its
//!   [`collectives::seg_bounds`] segment of the node result. The fill is
//!   fenced all-pairs — every rank reads every row, every slot reads
//!   every slice — by `GO_ALL`/`FILL` signals through rank 0, or by one
//!   extra barrier under [`SyncMethod::Barrier`].

use collectives::op::ReduceOp;
use collectives::{allreduce as coll_allreduce, reduce as coll_reduce};
use collectives::{seg_bounds, Algo, IColl, LeaderSet};
use msim::{Buf, Ctx, Drive, Payload, SharedWindow, ShmElem, WaitError};

use crate::envelope::{post_signal, step_signal, trace_kleader, HyOp, Open, Stage, FILL, GO_ALL};
use crate::hybrid::HybridComm;
use crate::sync::{SyncMethod, SyncSm};

/// A hybrid allreduce handle for vectors of a fixed length.
#[derive(Debug, Clone)]
pub struct HyAllreduce<T> {
    hc: HybridComm,
    ls: LeaderSet,
    /// `k ≥ 2` only: one `count`-element row per on-node rank (row `r` is
    /// shm rank `r`'s deposit).
    rows: Option<SharedWindow<T>>,
    /// The node's reduced vector (rank 0 allocates).
    win: SharedWindow<T>,
    count: usize,
}

impl<T: ShmElem> HyAllreduce<T> {
    /// One-off setup with a single leader per node: the node leader
    /// allocates a `count`-element result window.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize) -> Self {
        Self::with_leaders(ctx, hc, count, 1)
    }

    /// One-off setup with `leaders` slots per node (clamped by
    /// [`LeaderSet::build`]); at `k ≥ 2` this adds the per-rank
    /// contributions window (`ppn × count`).
    pub fn with_leaders(ctx: &mut Ctx, hc: &HybridComm, count: usize, leaders: usize) -> Self {
        let h = hc.hierarchy();
        let ls = LeaderSet::build(ctx, hc.comm(), h, leaders);
        let rows = (ls.k > 1).then(|| SharedWindow::allocate(ctx, &h.shm, count));
        let my_len = if hc.is_leader() { count } else { 0 };
        let win = SharedWindow::allocate(ctx, &h.shm, my_len);
        trace_kleader(ctx, &ls, Algo::AllreduceHyKleader);
        Self {
            hc: hc.clone(),
            ls,
            rows,
            win,
            count,
        }
    }

    /// Vector length.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The effective leader count this handle runs with.
    pub fn leaders(&self) -> usize {
        self.ls.k
    }

    /// The node-shared window holding the reduced result.
    pub fn window(&self) -> &SharedWindow<T> {
        &self.win
    }

    /// Read the reduced result (direct load from the shared window).
    pub fn read_result(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.count];
        self.win.read_into(0, &mut out);
        out
    }

    /// Perform the reduction over every rank's `contribution`: on-node
    /// combine, slot leaders' allreduce over the bridge straight into the
    /// shared window, one barrier to release readers.
    pub fn execute<O: ReduceOp<T>>(&self, ctx: &mut Ctx, contribution: &Buf<T>, op: O) {
        let stage = ArStage::new(ctx, self, contribution, op);
        HyOp::run(ctx, stage);
    }

    /// Start the reduction nonblocking. At `k = 1` the intra-node reduce
    /// (a rooted tree, inherently synchronous) still runs at start; the
    /// bridge allreduce and the release advance on [`msim::Request`]
    /// polls — that bridge exchange is where the overlap win lives.
    /// `iexecute(…) + wait` is bit-identical to [`HyAllreduce::execute`]
    /// modulo the `Req*` trace markers.
    pub fn iexecute<'a, O: ReduceOp<T>>(
        &'a self,
        ctx: &mut Ctx,
        contribution: &Buf<T>,
        op: O,
    ) -> IHyAllreduce<'a, T, O> {
        let stage = ArStage::new(ctx, self, contribution, op);
        HyOp::start(ctx, stage)
    }
}

/// Where the cooperative fill of an in-flight `k ≥ 2` allreduce stands.
enum Fill {
    /// The arrive completed; the fill has not begun.
    Start,
    /// Non-rank-0 waiting for the go-all fence (flags/p2p only).
    GoAll,
    /// Barrier sync: the all-pairs fence after the fill.
    Fence(SyncSm),
    /// Rank 0 collecting everyone's fill signal (flags/p2p only).
    FanIn { next: usize },
    /// Filled and fenced — or `k = 1`, where there is no fill.
    Done,
}

/// The allreduce bridge stage (see [`HyAllreduce::iexecute`]).
pub struct ArStage<'a, T: ShmElem, O: ReduceOp<T>> {
    ar: &'a HyAllreduce<T>,
    op: O,
    /// The bridge allreduce's send side: the node accumulation (`k = 1`),
    /// or this slot's private copy of its result-window segment (`k ≥ 2`;
    /// empty until the bridge starts, and on non-slot ranks).
    node_acc: Buf<T>,
    fill: Fill,
}

impl<'a, T: ShmElem, O: ReduceOp<T>> ArStage<'a, T, O> {
    fn new(ctx: &mut Ctx, ar: &'a HyAllreduce<T>, contribution: &Buf<T>, op: O) -> Self {
        assert_eq!(contribution.len(), ar.count, "contribution length mismatch");
        let shm = &ar.hc.hierarchy().shm;
        let (node_acc, fill) = match &ar.rows {
            // On-node reduction to the leader (message-based binomial
            // tree). Rooted trees are synchronous by nature, so this part
            // runs blocking even under `iexecute`.
            None => {
                let len = if shm.rank() == 0 { ar.count } else { 0 };
                let mut node_acc = ctx.buf_zeroed::<T>(len);
                coll_reduce::binomial(ctx, shm, contribution, &mut node_acc, 0, op);
                (node_acc, Fill::Done)
            }
            // Deposit the contribution in this rank's row (a reduction
            // has to materialize the node-local inputs somewhere; this
            // copy is what replaces the rooted reduce's send).
            Some(rows) => {
                Buf::Shared(rows.clone()).copy_from(rows.my_base(), contribution, 0, ar.count);
                ctx.charge_copy(ar.count * T::SIZE);
                (ctx.buf_zeroed(0), Fill::Start)
            }
        };
        Self {
            ar,
            op,
            node_acc,
            fill,
        }
    }

    /// The cooperative fill: reduce this rank's `1/ppn` column slice of
    /// every deposit row into the node result window.
    fn do_fill(&self, ctx: &mut Ctx, rows: &SharedWindow<T>) {
        let ar = self.ar;
        let shm = &ar.hc.hierarchy().shm;
        let ppn = shm.size();
        let (off, len) = seg_bounds(ar.count, shm.rank(), ppn);
        if len == 0 {
            return;
        }
        let rows_buf = Buf::Shared(rows.clone());
        let mut res = Buf::Shared(ar.win.clone());
        res.copy_from(off, &rows_buf, off, len);
        ctx.charge_copy(len * T::SIZE);
        let op = self.op;
        for row in 1..ppn {
            let payload = rows_buf.payload(rows.base_of(row) + off, len);
            res.combine_payload(off, &payload, |a, b| op.combine(a, b));
            ctx.compute(len as f64 * O::FLOPS_PER_ELEM);
        }
    }
}

impl<T: ShmElem, O: ReduceOp<T>> Stage for ArStage<'_, T, O> {
    const OP: &'static str = "ihyallreduce";
    type Bridge = (coll_allreduce::TunedSm<T>, Buf<T>);

    fn hc(&self) -> &HybridComm {
        &self.ar.hc
    }

    fn leaders(&self) -> &LeaderSet {
        &self.ar.ls
    }

    fn open(&self) -> Open {
        match self.ar.rows {
            // The deposits must be ordered before anyone fills.
            Some(_) => Open::Arrive,
            // The rooted reduce already left the node sum at the leader.
            None => Open::Bridge,
        }
    }

    fn pre(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        let ar = self.ar;
        let Some(rows) = &ar.rows else {
            return Ok(true);
        };
        let (sync, shm) = (ar.hc.sync(), &ar.hc.hierarchy().shm);
        loop {
            self.fill = match &mut self.fill {
                Fill::Start => match sync {
                    // The arrive barrier is already all-pairs: fill, then
                    // fence with one more barrier before the slots read
                    // full slices.
                    SyncMethod::Barrier => {
                        self.do_fill(ctx, rows);
                        Fill::Fence(SyncSm::full(ctx, sync, shm))
                    }
                    // Everyone must see every row before slicing: arrive
                    // gave rank 0 the writes, go-all hands them on.
                    _ if shm.rank() == 0 => {
                        match sync {
                            SyncMethod::SharedFlags => ctx.post_flag_multicast(shm, GO_ALL),
                            _ => {
                                for child in 1..shm.size() {
                                    ctx.send(shm, child, GO_ALL + 1, Payload::empty());
                                }
                            }
                        }
                        self.do_fill(ctx, rows);
                        Fill::FanIn { next: 1 }
                    }
                    _ => Fill::GoAll,
                },
                Fill::GoAll => {
                    if !step_signal(ctx, shm, 0, GO_ALL, sync, how)? {
                        return Ok(false);
                    }
                    self.do_fill(ctx, rows);
                    post_signal(ctx, shm, 0, FILL, sync);
                    Fill::Done
                }
                Fill::Fence(sm) => {
                    if !sm.drive(ctx, shm, how)? {
                        return Ok(false);
                    }
                    Fill::Done
                }
                Fill::FanIn { next } => {
                    while *next < shm.size() {
                        if !step_signal(ctx, shm, *next, FILL, sync, how)? {
                            return Ok(false);
                        }
                        *next += 1;
                    }
                    Fill::Done
                }
                Fill::Done => return Ok(true),
            };
        }
    }

    fn start(&mut self, ctx: &mut Ctx) -> Self::Bridge {
        let ar = self.ar;
        let bridge = ar.ls.bridge.as_ref().expect("slot leaders carry a bridge");
        let j = ar.ls.slot.expect("the bridge starts only on slot leaders");
        let (off, len) = seg_bounds(ar.count, j, ar.ls.k);
        if ar.rows.is_some() {
            // This slot's private copy of its segment of the filled node
            // result: the send side of its stripe's allreduce.
            self.node_acc = ctx.buf_zeroed::<T>(len);
            self.node_acc
                .copy_from(0, &Buf::Shared(ar.win.clone()), off, len);
            ctx.charge_copy(len * T::SIZE);
        }
        let sm = coll_allreduce::TunedSm::new(ctx, bridge, &self.node_acc, ar.hc.select());
        (sm, Buf::Shared(ar.win.region(off, len)))
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        (sm, view): &mut Self::Bridge,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let bridge = self
            .ar
            .ls
            .bridge
            .as_ref()
            .expect("slot leaders carry a bridge");
        sm.drive(ctx, bridge, &self.node_acc, view, self.op, how)
    }
}

/// An in-flight hybrid allreduce.
pub type IHyAllreduce<'a, T, O> = IColl<HyOp<ArStage<'a, T, O>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::op::{Max, Sum};
    use collectives::Tuning;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel};

    fn check_sum(cfg: SimConfig, count: usize) {
        for leaders in [1, 2, 4] {
            check_sum_k(cfg.clone(), count, leaders);
        }
    }

    fn check_sum_k(cfg: SimConfig, count: usize, leaders: usize) {
        let p = cfg.spec.total_cores();
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, count, leaders);
            let mine = ctx.buf_from_fn(count, |i| ((ctx.rank() + 1) * (i + 1)) as f64);
            ar.execute(ctx, &mine, Sum);
            ar.read_result()
        })
        .unwrap();
        let rank_sum: f64 = (1..=p).map(|x| x as f64).sum();
        let expected: Vec<f64> = (0..count).map(|i| rank_sum * (i + 1) as f64).collect();
        for (rank, got) in r.per_rank.iter().enumerate() {
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "rank {rank} k {leaders}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sum_on_various_clusters() {
        for (nodes, ppn) in [(1, 1), (1, 4), (2, 3), (4, 2), (3, 3)] {
            let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
            check_sum(cfg, 5);
        }
    }

    #[test]
    fn max_reduction() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test());
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::open_mpi());
            let ar = HyAllreduce::<f64>::new(ctx, &hc, 2);
            let mine = ctx.buf_from_fn(2, |i| (ctx.rank() as f64) - i as f64 * 10.0);
            ar.execute(ctx, &mine, Max);
            ar.read_result()
        })
        .unwrap();
        for got in &r.per_rank {
            assert_eq!(got, &vec![3.0, -7.0]);
        }
    }

    #[test]
    fn result_memory_is_per_node_not_per_rank() {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 6), CostModel::cray_aries()).traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let _ar = HyAllreduce::<f64>::new(ctx, &hc, 50);
        })
        .unwrap();
        assert_eq!(r.tracer.total_window_bytes(), 2 * 50 * 8);
    }
}
