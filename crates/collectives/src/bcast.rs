//! Broadcast algorithms (`MPI_Bcast`).
//!
//! * [`binomial`] — binomial tree, best for short messages;
//! * [`scatter_allgather`] — van de Geijn: binomial scatter of segments
//!   followed by a ring allgather, best for long messages;
//! * [`pipelined_chain`] — segmented chain pipeline (the approach the
//!   paper's conclusion cites from Träff et al. for very large messages);
//! * [`tuned`] — MPICH/OpenMPI-style runtime selection.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{legacy_choice, SelectionPolicy};
use crate::registry::{ceil_log2, AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::selection::Tuning;
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::{displs_of, segment_counts};

/// Split-phase binomial-tree broadcast. The only suspension point is the
/// single receive from the parent; the child forwards are posted in one
/// burst once the data is in hand.
#[derive(Debug)]
struct BinomialSm;

impl BinomialSm {
    fn new() -> Self {
        Self
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &mut Buf<T>,
        root: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        assert!(root < p, "bcast root {root} out of range");
        if p == 1 {
            return Ok(true);
        }
        let rr = (me + p - root) % p;
        let len = buf.len();

        // Receive from the parent (unless root).
        let mut mask = 1usize;
        while mask < p {
            if rr & mask != 0 {
                let parent = (rr - mask + root) % p;
                let src = comm
                    .local_of(comm.global_of(parent))
                    .expect("parent is a member");
                let Some(payload) = ctx.step_recv(comm, src, tags::BCAST, how)? else {
                    return Ok(false);
                };
                buf.write_payload(0, &payload);
                break;
            }
            mask <<= 1;
        }
        // Forward to children, highest distance first.
        mask >>= 1;
        while mask > 0 {
            if rr & mask == 0 && rr + mask < p {
                let child = (rr + mask + root) % p;
                ctx.send_region(comm, child, tags::BCAST, buf, 0, len);
            }
            mask >>= 1;
        }
        Ok(true)
    }
}

/// Binomial-tree broadcast: ⌈log₂ p⌉ rounds; in round `k` every rank that
/// already holds the data forwards it to the rank `2^k` away (in
/// root-relative space).
pub fn binomial<T: ShmElem>(ctx: &mut Ctx, comm: &Communicator, buf: &mut Buf<T>, root: usize) {
    run_blocking(BinomialSm::new().drive(ctx, comm, buf, root, Drive::Block));
}

/// Split-phase van de Geijn broadcast: binomial scatter of segments
/// (recursive range splitting, at most one receive), then a ring
/// allgather of the p segments.
#[derive(Debug)]
struct ScatterAgSm {
    started: bool,
    // Scatter phase: the relative range [lo, hi) still to split.
    lo: usize,
    hi: usize,
    // Ring phase.
    step: usize,
    sent: bool,
}

impl ScatterAgSm {
    fn new() -> Self {
        Self {
            started: false,
            lo: 0,
            hi: 0,
            step: 0,
            sent: false,
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &mut Buf<T>,
        root: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        assert!(root < p, "bcast root {root} out of range");
        if p == 1 {
            return Ok(true);
        }
        if !self.started {
            self.hi = p;
            self.started = true;
        }
        let rr = (me + p - root) % p;
        let counts = segment_counts(buf.len(), p);
        let displs = displs_of(&counts);

        // Binomial scatter by recursive range splitting: the holder of
        // relative range [lo, hi) is relative rank lo; at each split it
        // hands the upper part to `mid`. Each rank receives at most once
        // (the round it becomes a range leader), so the receive is the
        // only suspension point and retries land back on it.
        while self.hi - self.lo > 1 {
            let mid = self.lo + (self.hi - self.lo).div_ceil(2);
            let upper_off = displs[mid];
            let upper_len = displs[self.hi - 1] + counts[self.hi - 1] - upper_off;
            if rr < mid {
                if rr == self.lo {
                    let dst = (mid + root) % p;
                    ctx.send_region(comm, dst, tags::BCAST + 1, buf, upper_off, upper_len);
                }
                self.hi = mid;
            } else {
                if rr == mid {
                    let src = (self.lo + root) % p;
                    let Some(payload) = ctx.step_recv(comm, src, tags::BCAST + 1, how)? else {
                        return Ok(false);
                    };
                    buf.write_payload(upper_off, &payload);
                }
                self.lo = mid;
            }
        }

        // Ring allgather over relative ids: step s sends the segment
        // received at step s-1 (starting with our own) to the right
        // neighbor. A single tag suffices: matching is FIFO per
        // (source, tag), and each step receives exactly one in-order
        // segment from the left neighbor.
        let right = (rr + 1 + root) % p;
        let left = (rr + p - 1 + root) % p;
        while self.step < p - 1 {
            let s = self.step;
            let send_seg = (rr + p - s) % p;
            let recv_seg = (rr + p - s - 1) % p;
            if !self.sent {
                ctx.send_region(
                    comm,
                    right,
                    tags::BCAST + 2,
                    buf,
                    displs[send_seg],
                    counts[send_seg],
                );
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, left, tags::BCAST + 2, how)? else {
                return Ok(false);
            };
            buf.write_payload(displs[recv_seg], &payload);
            self.step += 1;
            self.sent = false;
        }
        Ok(true)
    }
}

/// van de Geijn broadcast: scatter the message as `p` segments down a
/// binomial tree, then ring-allgather the segments. Moves ~2·n bytes per
/// rank instead of the binomial tree's n·log p, so it wins for long
/// messages.
pub fn scatter_allgather<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
) {
    run_blocking(ScatterAgSm::new().drive(ctx, comm, buf, root, Drive::Block));
}

/// Split-phase segmented chain pipeline. Per segment: receive from the
/// predecessor (the suspension point), then forward to the successor.
#[derive(Debug)]
struct ChainSm {
    segment_elems: usize,
    s: usize,
}

impl ChainSm {
    fn new(segment_elems: usize) -> Self {
        assert!(segment_elems > 0, "segment size must be positive");
        Self {
            segment_elems,
            s: 0,
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &mut Buf<T>,
        root: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        assert!(root < p, "bcast root {root} out of range");
        if p == 1 {
            return Ok(true);
        }
        let rr = (me + p - root) % p;
        let len = buf.len();
        let nseg = len.div_ceil(self.segment_elems).max(1);
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        // One tag for the whole stream: segments from the predecessor
        // arrive in order (FIFO per (source, tag)).
        while self.s < nseg {
            let off = self.s * self.segment_elems;
            let seg_len = self.segment_elems.min(len - off);
            if rr > 0 {
                let Some(payload) = ctx.step_recv(comm, prev, tags::BCAST + 8, how)? else {
                    return Ok(false);
                };
                buf.write_payload(off, &payload);
            }
            if rr + 1 < p {
                ctx.send_region(comm, next, tags::BCAST + 8, buf, off, seg_len);
            }
            self.s += 1;
        }
        Ok(true)
    }
}

/// Segmented chain pipeline: the message travels root → root+1 → … in
/// segments of `segment_elems`, so all links stream concurrently. The
/// approach of Träff et al. (paper reference [30]) for very large
/// messages.
pub fn pipelined_chain<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    segment_elems: usize,
) {
    run_blocking(ChainSm::new(segment_elems).drive(ctx, comm, buf, root, Drive::Block));
}

/// One bcast algorithm as a split-phase machine, selected by name.
#[derive(Debug)]
enum BcastSm {
    Binomial(BinomialSm),
    ScatterAg(ScatterAgSm),
    Chain(ChainSm),
}

impl BcastSm {
    /// # Panics
    /// Panics on an unknown algorithm name.
    fn for_algo<T: ShmElem>(algo: &str) -> Self {
        match algo {
            "bcast.binomial" => BcastSm::Binomial(BinomialSm::new()),
            "bcast.scatter_allgather" => BcastSm::ScatterAg(ScatterAgSm::new()),
            "bcast.pipelined_chain" => {
                // Default segment size when chosen by name: 8 KiB of elements.
                BcastSm::Chain(ChainSm::new((8 * 1024 / T::SIZE).max(1)))
            }
            other => panic!("bcast: unknown algorithm {other:?}"),
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &mut Buf<T>,
        root: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            BcastSm::Binomial(sm) => sm.drive(ctx, comm, buf, root, how),
            BcastSm::ScatterAg(sm) => sm.drive(ctx, comm, buf, root, how),
            BcastSm::Chain(sm) => sm.drive(ctx, comm, buf, root, how),
        }
    }
}

/// A drivable bcast with the selection and entry fee of [`tuned`] —
/// construction charges the fee and picks the algorithm; `drive`
/// advances. Public so the hybrid layer (`hmpi`) can poll its bridge
/// broadcast inside its own split-phase machines.
#[derive(Debug)]
pub struct TunedSm {
    sm: BcastSm,
}

impl TunedSm {
    /// Fee-and-selection identical to [`tuned`].
    pub fn tuned<T: ShmElem>(
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &Buf<T>,
        tuning: &Tuning,
    ) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        let case = case_for(ctx, comm, buf);
        Self {
            sm: BcastSm::for_algo::<T>(legacy_choice(tuning, &case)),
        }
    }

    /// Fee-and-selection identical to [`with_policy`].
    pub fn with_policy<T: ShmElem>(
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &Buf<T>,
        policy: &SelectionPolicy,
    ) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        let case = case_for(ctx, comm, buf);
        Self {
            sm: BcastSm::for_algo::<T>(policy.choose(ctx, &case)),
        }
    }

    /// Advance; `Ok(true)` once the broadcast completed.
    pub fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &mut Buf<T>,
        root: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        self.sm.drive(ctx, comm, buf, root, how)
    }
}

/// Runtime algorithm selection, MPICH-style: binomial for short messages
/// or small communicators, scatter+allgather for long messages. Charges
/// the per-call collective entry fee.
pub fn tuned<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    tuning: &Tuning,
) {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    tuned_uncharged(ctx, comm, buf, root, tuning);
}

/// The selection logic without the entry fee (internal-stage use).
pub fn tuned_uncharged<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    tuning: &Tuning,
) {
    let case = case_for(ctx, comm, buf);
    dispatch(ctx, comm, buf, root, legacy_choice(tuning, &case));
}

/// The [`CommCase`] one bcast call presents to a selection policy
/// (`total_bytes` = the broadcast message).
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, buf: &Buf<T>) -> CommCase {
    CommCase::new(
        CollectiveOp::Bcast,
        comm.size(),
        comm.num_nodes(ctx.map()),
        buf.byte_len(),
    )
}

/// Run the named registered algorithm.
///
/// # Panics
/// Panics on an unknown name.
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    algo: &str,
) {
    run_blocking(BcastSm::for_algo::<T>(algo).drive(ctx, comm, buf, root, Drive::Block));
}

/// The body of an in-flight nonblocking broadcast (see [`istart`]).
pub struct IBcastBody<'a, T: ShmElem> {
    comm: Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    sm: BcastSm,
}

impl<T: ShmElem> DriveOp for IBcastBody<'_, T> {
    const OP: &'static str = "ibcast";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm.drive(ctx, &self.comm, self.buf, self.root, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking broadcast (`MPI_Ibcast`).
pub type IBcast<'a, T> = IColl<IBcastBody<'a, T>>;

/// Start the named algorithm nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    algo: &str,
) -> IBcast<'a, T> {
    IColl::start(
        ctx,
        IBcastBody {
            comm: comm.clone(),
            buf,
            root,
            sm: BcastSm::for_algo::<T>(algo),
        },
    )
}

/// Nonblocking form of [`tuned`].
pub fn ituned<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    tuning: &Tuning,
) -> IBcast<'a, T> {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for(ctx, comm, buf);
    let algo = legacy_choice(tuning, &case);
    istart(ctx, comm, buf, root, algo)
}

/// Nonblocking form of [`with_policy`].
pub fn iwith_policy<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    policy: &SelectionPolicy,
) -> IBcast<'a, T> {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for(ctx, comm, buf);
    let algo = policy.choose(ctx, &case).to_string();
    istart(ctx, comm, buf, root, &algo)
}

/// Policy-driven entry point. Charges the per-call entry fee.
pub fn with_policy<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    policy: &SelectionPolicy,
) {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for(ctx, comm, buf);
    let algo = policy.choose(ctx, &case);
    dispatch(ctx, comm, buf, root, algo);
}

/// Register this module's algorithms.
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "bcast.binomial",
        op: CollectiveOp::Bcast,
        applicable: |_| true,
        // ⌈log₂ p⌉ rounds, each forwarding the full message.
        estimate: |e, c| e.uniform_rounds(ceil_log2(c.comm_size), c.total_bytes),
    });
    reg.register(AlgorithmSpec {
        name: "bcast.scatter_allgather",
        op: CollectiveOp::Bcast,
        applicable: |c| c.comm_size > 1,
        // Binomial scatter of halving segments + ring allgather of the
        // p segments (van de Geijn).
        estimate: |e, c| {
            let p = c.comm_size;
            e.halving_rounds(p, c.total_bytes)
                + e.uniform_rounds(p.saturating_sub(1), c.total_bytes / p.max(1))
        },
    });
    reg.register(AlgorithmSpec {
        name: "bcast.pipelined_chain",
        op: CollectiveOp::Bcast,
        // Never auto-selected: the chain's win depends on a segment-size
        // parameter the case descriptor doesn't carry. Explicit dispatch
        // (or a tuning-table row) can still name it.
        applicable: |_| false,
        estimate: |e, c| {
            let seg = 8 * 1024;
            let segs = c.total_bytes.div_ceil(seg).max(1);
            e.uniform_rounds(segs + c.comm_size.saturating_sub(2), seg.min(c.total_bytes))
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, run};

    fn check_bcast(
        nodes: usize,
        ppn: usize,
        count: usize,
        root: usize,
        algo: impl Fn(&mut Ctx, &Communicator, &mut Buf<f64>, usize) + Send + Sync,
    ) {
        let r = run(nodes, ppn, |ctx| {
            let world = ctx.world();
            let mut buf = if ctx.rank() == root {
                ctx.buf_from_fn(count, |i| datum(root, i))
            } else {
                ctx.buf_zeroed(count)
            };
            algo(ctx, &world, &mut buf, root);
            buf.as_slice().unwrap().to_vec()
        });
        let expected: Vec<f64> = (0..count).map(|i| datum(root, i)).collect();
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank} disagrees");
        }
    }

    #[test]
    fn binomial_correct_various_sizes_and_roots() {
        for (nodes, ppn) in [(1, 1), (1, 5), (2, 3), (4, 2)] {
            for root in [0, (nodes * ppn - 1) / 2, nodes * ppn - 1] {
                check_bcast(nodes, ppn, 7, root, binomial::<f64>);
            }
        }
    }

    #[test]
    fn scatter_allgather_correct_various_sizes_and_roots() {
        for (nodes, ppn) in [(1, 2), (1, 5), (2, 3), (4, 2), (2, 4)] {
            for root in [0, nodes * ppn - 1] {
                // len both divisible and not divisible by p
                check_bcast(nodes, ppn, 16, root, scatter_allgather::<f64>);
                check_bcast(nodes, ppn, 13, root, scatter_allgather::<f64>);
            }
        }
    }

    #[test]
    fn scatter_allgather_len_smaller_than_comm() {
        check_bcast(2, 3, 3, 1, scatter_allgather::<f64>);
    }

    #[test]
    fn pipelined_chain_correct() {
        for seg in [1, 3, 8, 100] {
            check_bcast(2, 3, 17, 0, move |ctx, comm, buf, root| {
                pipelined_chain(ctx, comm, buf, root, seg)
            });
            check_bcast(2, 2, 8, 2, move |ctx, comm, buf, root| {
                pipelined_chain(ctx, comm, buf, root, seg)
            });
        }
    }

    #[test]
    fn tuned_picks_binomial_then_scatter_allgather() {
        let tuning = Tuning::cray_mpich();
        // Small message → binomial; verify both correctness paths.
        check_bcast(2, 4, 4, 0, |ctx, comm, buf, root| {
            tuned(ctx, comm, buf, root, &tuning)
        });
        // Large message (greater than the long threshold in elements).
        let big = tuning.bcast_long_threshold / 8 + 64;
        check_bcast(2, 4, big, 0, |ctx, comm, buf, root| {
            tuned(ctx, comm, buf, root, &tuning)
        });
    }

    #[test]
    fn large_bcast_scatter_allgather_beats_binomial() {
        let count = 1 << 15;
        let time = |algo: fn(&mut Ctx, &Communicator, &mut Buf<f64>, usize)| {
            let r = run(4, 4, move |ctx| {
                let world = ctx.world();
                let mut buf = ctx.buf_zeroed::<f64>(count);
                algo(ctx, &world, &mut buf, 0);
                ctx.now()
            });
            r.makespan()
        };
        let t_binom = time(binomial::<f64>);
        let t_vdg = time(scatter_allgather::<f64>);
        assert!(
            t_vdg < t_binom,
            "van de Geijn ({t_vdg}) should beat binomial ({t_binom}) for long messages"
        );
    }

    #[test]
    fn segment_counts_cover_everything() {
        for len in [0usize, 1, 7, 16, 17] {
            for p in [1usize, 2, 3, 5, 8] {
                let counts = segment_counts(len, p);
                assert_eq!(counts.iter().sum::<usize>(), len);
                assert_eq!(counts.len(), p);
                let max = counts.iter().max().unwrap();
                let min = counts.iter().min().unwrap();
                assert!(max - min <= 1, "balanced split");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_root_panics() {
        check_bcast(1, 2, 4, 5, binomial::<f64>);
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        for algo in [
            "bcast.binomial",
            "bcast.scatter_allgather",
            "bcast.pipelined_chain",
        ] {
            check_bcast(2, 3, 13, 1, move |ctx, comm, buf, root| {
                let req = istart(ctx, comm, buf, root, algo);
                msim::Request::wait(req, ctx);
            });
        }
        check_bcast(2, 2, 8, 0, |ctx, comm, buf, root| {
            let req = ituned(ctx, comm, buf, root, &Tuning::cray_mpich());
            msim::Request::wait(req, ctx);
        });
    }
}
