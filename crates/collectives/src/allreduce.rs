//! Allreduce (`MPI_Allreduce`).
//!
//! * [`recursive_doubling`] — log₂ p rounds exchanging full vectors; best
//!   for short messages (power-of-two communicators; non-power-of-two
//!   sizes fold the excess ranks into the nearest power of two first);
//! * [`rabenseifner`] — reduce-scatter (recursive halving) followed by an
//!   allgather (recursive doubling); bandwidth-optimal for long messages
//!   (power-of-two sizes, falls back otherwise);
//! * [`tuned`] — MPICH-style selection.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::op::ReduceOp;
use crate::policy::{Fee, Select};
use crate::registry::{ceil_log2, AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::{displs_of, segment_counts};

/// Split-phase recursive-doubling allreduce: fold the excess ranks into
/// the nearest power of two, log₂ rounds of full-vector exchanges, then
/// unfold.
#[derive(Debug)]
struct RdSm {
    placed: bool,
    fold_done: bool,
    mask: usize,
    sent: bool,
}

impl RdSm {
    fn new() -> Self {
        Self {
            placed: false,
            fold_done: false,
            mask: 1,
            sent: false,
        }
    }

    fn drive<T: ShmElem, O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let count = send.len();
        if !self.placed {
            assert_eq!(recv.len(), count, "recv must match send length");
            recv.copy_from(0, send, 0, count);
            ctx.charge_copy(count * T::SIZE);
            self.placed = true;
        }
        if p == 1 {
            return Ok(true);
        }

        // Fold down to the largest power of two ≤ p: ranks [pof2, p) send
        // their vector to (me - pof2) and sit out the doubling rounds.
        let pof2 = prev_power_of_two(p);
        let rem = p - pof2;
        if !self.fold_done {
            if me >= pof2 {
                ctx.send_region(comm, me - pof2, tags::ALLREDUCE, recv, 0, count);
            } else if me < rem {
                let Some(payload) = ctx.step_recv(comm, me + pof2, tags::ALLREDUCE, how)? else {
                    return Ok(false);
                };
                recv.combine_payload(0, &payload, |a, b| op.combine(a, b));
                ctx.compute(count as f64 * O::FLOPS_PER_ELEM);
            }
            self.fold_done = true;
        }

        if me < pof2 {
            while self.mask < pof2 {
                let partner = me ^ self.mask;
                if !self.sent {
                    ctx.send_region(comm, partner, tags::ALLREDUCE + 1, recv, 0, count);
                    self.sent = true;
                }
                let Some(payload) = ctx.step_recv(comm, partner, tags::ALLREDUCE + 1, how)? else {
                    return Ok(false);
                };
                recv.combine_payload(0, &payload, |a, b| op.combine(a, b));
                ctx.compute(count as f64 * O::FLOPS_PER_ELEM);
                self.mask <<= 1;
                self.sent = false;
            }
        }

        // Unfold: send the final vector back to the folded-out ranks.
        if me < rem {
            ctx.send_region(comm, me + pof2, tags::ALLREDUCE + 2, recv, 0, count);
        } else if me >= pof2 {
            let Some(payload) = ctx.step_recv(comm, me - pof2, tags::ALLREDUCE + 2, how)? else {
                return Ok(false);
            };
            recv.write_payload(0, &payload);
        }
        Ok(true)
    }
}

/// Recursive-doubling allreduce for any communicator size (non-powers of
/// two pre-fold the highest ranks into the lower half, then unfold).
pub fn recursive_doubling<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    op: O,
) {
    run_blocking(RdSm::new().drive(ctx, comm, send, recv, op, Drive::Block));
}

/// Split-phase Rabenseifner: recursive-halving reduce-scatter, then
/// recursive-doubling allgather of the reduced segments. Non-power-of-two
/// communicators fall back to an inner [`RdSm`].
#[derive(Debug)]
struct RabSm {
    started: bool,
    fallback: Option<RdSm>,
    placed: bool,
    // Halving phase: owned segment range [lo, hi) and the current mask.
    lo: usize,
    hi: usize,
    mask: usize,
    halving_done: bool,
    sent: bool,
    // Doubling phase: held segment range and the current mask.
    dmask: usize,
    have_lo: usize,
    have_hi: usize,
}

impl RabSm {
    fn new() -> Self {
        Self {
            started: false,
            fallback: None,
            placed: false,
            lo: 0,
            hi: 0,
            mask: 0,
            halving_done: false,
            sent: false,
            dmask: 1,
            have_lo: 0,
            have_hi: 0,
        }
    }

    fn drive<T: ShmElem, O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        if !self.started {
            if !p.is_power_of_two() || p == 1 {
                self.fallback = Some(RdSm::new());
            } else {
                self.lo = 0;
                self.hi = p;
                self.mask = p / 2;
            }
            self.started = true;
        }
        if let Some(fb) = self.fallback.as_mut() {
            return fb.drive(ctx, comm, send, recv, op, how);
        }
        let me = comm.rank();
        let count = send.len();
        let counts = segment_counts(count, p);
        let displs = displs_of(&counts);
        if !self.placed {
            assert_eq!(recv.len(), count, "recv must match send length");
            recv.copy_from(0, send, 0, count);
            ctx.charge_copy(count * T::SIZE);
            self.placed = true;
        }

        // Reduce-scatter by recursive halving: after round k my "owned"
        // range of segments halves; I send the half I am giving up and
        // combine the half I keep.
        while !self.halving_done {
            let partner = me ^ self.mask;
            let mid = self.lo + (self.hi - self.lo) / 2;
            let (keep, give) = if me & self.mask == 0 {
                ((self.lo, mid), (mid, self.hi))
            } else {
                ((mid, self.hi), (self.lo, mid))
            };
            let give_off = displs[give.0];
            let give_len = displs[give.1 - 1] + counts[give.1 - 1] - give_off;
            let keep_off = displs[keep.0];
            if !self.sent {
                ctx.send_region(comm, partner, tags::ALLREDUCE + 3, recv, give_off, give_len);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, partner, tags::ALLREDUCE + 3, how)? else {
                return Ok(false);
            };
            recv.combine_payload(keep_off, &payload, |a, b| op.combine(a, b));
            ctx.compute((payload.len() / T::SIZE) as f64 * O::FLOPS_PER_ELEM);
            self.lo = keep.0;
            self.hi = keep.1;
            self.sent = false;
            if self.mask == 1 {
                debug_assert_eq!(self.hi - self.lo, 1, "each rank owns exactly one segment");
                self.have_lo = self.lo;
                self.have_hi = self.hi;
                self.halving_done = true;
            } else {
                self.mask >>= 1;
            }
        }

        // Allgather the reduced segments by recursive doubling. After k
        // rounds each rank holds the `dmask`-wide aligned block of
        // segments containing its own; the partner's block is the sibling
        // block have_lo XOR dmask.
        while self.dmask < p {
            let partner = me ^ self.dmask;
            let my_off = displs[self.have_lo];
            let my_len = displs[self.have_hi - 1] + counts[self.have_hi - 1] - my_off;
            if !self.sent {
                ctx.send_region(comm, partner, tags::ALLREDUCE + 4, recv, my_off, my_len);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, partner, tags::ALLREDUCE + 4, how)? else {
                return Ok(false);
            };
            let p_lo = self.have_lo ^ self.dmask;
            let p_hi = p_lo + self.dmask;
            recv.write_payload(displs[p_lo], &payload);
            self.have_lo = self.have_lo.min(p_lo);
            self.have_hi = self.have_hi.max(p_hi);
            self.dmask <<= 1;
            self.sent = false;
        }
        debug_assert_eq!((self.have_lo, self.have_hi), (0, p));
        Ok(true)
    }
}

/// Rabenseifner's algorithm (power-of-two sizes): recursive-halving
/// reduce-scatter, then recursive-doubling allgather of the reduced
/// segments. Falls back to [`recursive_doubling`] for other sizes.
pub fn rabenseifner<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    op: O,
) {
    run_blocking(RabSm::new().drive(ctx, comm, send, recv, op, Drive::Block));
}

/// One allreduce algorithm as a split-phase machine, selected by name.
#[derive(Debug)]
enum AllredSm {
    Rd(RdSm),
    Rab(RabSm),
}

impl AllredSm {
    /// # Panics
    /// Panics on an unknown algorithm name.
    fn for_algo(algo: &str) -> Self {
        match algo {
            "allreduce.recursive_doubling" => AllredSm::Rd(RdSm::new()),
            "allreduce.rabenseifner" => AllredSm::Rab(RabSm::new()),
            other => panic!("allreduce: unknown algorithm {other:?}"),
        }
    }

    fn drive<T: ShmElem, O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            AllredSm::Rd(sm) => sm.drive(ctx, comm, send, recv, op, how),
            AllredSm::Rab(sm) => sm.drive(ctx, comm, send, recv, op, how),
        }
    }
}

/// A drivable allreduce with the selection and entry fee of [`tuned`] —
/// construction charges the fee and picks the algorithm; `drive`
/// advances. Public so the hybrid layer (`hmpi`) can poll its bridge
/// allreduce inside its own split-phase machines.
#[derive(Debug)]
pub struct TunedSm {
    sm: AllredSm,
}

impl TunedSm {
    /// Fee-and-selection identical to [`tuned`].
    pub fn new<'s, T: ShmElem>(
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        select: impl Into<Select<'s>>,
    ) -> Self {
        let case = case_for(ctx, comm, send);
        Self {
            sm: AllredSm::for_algo(select.into().enter(ctx, Fee::Call, &case)),
        }
    }

    /// Advance; `Ok(true)` once the allreduce completed.
    pub fn drive<T: ShmElem, O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        self.sm.drive(ctx, comm, send, recv, op, how)
    }
}

/// Runtime selection: under the legacy thresholds (MPICH-style),
/// recursive doubling for short vectors, Rabenseifner for long ones.
/// Charges the per-call collective entry fee.
pub fn tuned<'s, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    op: O,
    select: impl Into<Select<'s>>,
) {
    let case = case_for(ctx, comm, send);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, send, recv, op, algo);
}

/// The [`CommCase`] one allreduce call presents to a selection policy
/// (`total_bytes` = the reduced vector).
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, send: &Buf<T>) -> CommCase {
    CommCase::new(
        CollectiveOp::Allreduce,
        comm.size(),
        comm.num_nodes(ctx.map()),
        send.byte_len(),
    )
}

/// Run the named registered algorithm.
///
/// # Panics
/// Panics on an unknown name.
pub fn dispatch<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    op: O,
    algo: &str,
) {
    run_blocking(AllredSm::for_algo(algo).drive(ctx, comm, send, recv, op, Drive::Block));
}

/// The body of an in-flight nonblocking allreduce (see [`istart`]).
pub struct IAllreduceBody<'a, T: ShmElem, O: ReduceOp<T>> {
    comm: Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    op: O,
    sm: AllredSm,
}

impl<T: ShmElem, O: ReduceOp<T>> DriveOp for IAllreduceBody<'_, T, O> {
    const OP: &'static str = "iallreduce";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm
            .drive(ctx, &self.comm, self.send, self.recv, self.op, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking allreduce (`MPI_Iallreduce`).
pub type IAllreduce<'a, T, O> = IColl<IAllreduceBody<'a, T, O>>;

/// Start the named algorithm nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    op: O,
    algo: &str,
) -> IAllreduce<'a, T, O> {
    IColl::start(
        ctx,
        IAllreduceBody {
            comm: comm.clone(),
            send,
            recv,
            op,
            sm: AllredSm::for_algo(algo),
        },
    )
}

/// Nonblocking form of [`tuned`].
pub fn ituned<'a, 's, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    op: O,
    select: impl Into<Select<'s>>,
) -> IAllreduce<'a, T, O> {
    let case = case_for(ctx, comm, send);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, send, recv, op, algo)
}

/// Register this module's algorithms. Reduction compute is priced at one
/// flop per element per combine.
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "allreduce.recursive_doubling",
        op: CollectiveOp::Allreduce,
        applicable: |_| true,
        // log₂ p full-vector exchanges, each followed by a combine.
        estimate: |e, c| {
            let rounds = ceil_log2(c.comm_size);
            e.copy(c.total_bytes)
                + rounds as f64 * (e.msg(c.total_bytes) + e.reduce_compute(c.total_bytes / 8, 1.0))
        },
    });
    reg.register(AlgorithmSpec {
        name: "allreduce.rabenseifner",
        op: CollectiveOp::Allreduce,
        applicable: |_| true,
        // Recursive-halving reduce-scatter + recursive-doubling allgather:
        // each phase moves <1 vector total instead of log p vectors.
        estimate: |e, c| {
            let p = c.comm_size;
            e.copy(c.total_bytes)
                + e.halving_rounds(p, c.total_bytes)
                + e.reduce_compute(c.total_bytes / 8, 1.0)
                + e.doubling_rounds(p, c.total_bytes / p.max(1), c.total_bytes)
        },
    });
}

fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Min, Sum};
    use crate::testutil::run;

    type Algo = fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>, Sum);

    fn check(nodes: usize, ppn: usize, count: usize, algo: Algo) {
        let p = nodes * ppn;
        let r = run(nodes, ppn, move |ctx| {
            let world = ctx.world();
            let send = ctx.buf_from_fn(count, |i| (ctx.rank() + 1) as f64 * (i + 1) as f64);
            let mut recv = ctx.buf_zeroed(count);
            algo(ctx, &world, &send, &mut recv, Sum);
            recv.as_slice().unwrap().to_vec()
        });
        let rank_sum: f64 = (1..=p).map(|r| r as f64).sum();
        let expected: Vec<f64> = (0..count).map(|i| rank_sum * (i + 1) as f64).collect();
        for (rank, got) in r.per_rank.iter().enumerate() {
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "rank {rank}: {a} vs {b} (p={p})");
            }
        }
    }

    #[test]
    fn recursive_doubling_powers_of_two() {
        for (nodes, ppn) in [(1, 1), (1, 2), (2, 2), (2, 4)] {
            check(nodes, ppn, 5, recursive_doubling::<f64, Sum>);
        }
    }

    #[test]
    fn recursive_doubling_odd_sizes() {
        for (nodes, ppn) in [(1, 3), (1, 5), (1, 7), (3, 2), (3, 3)] {
            check(nodes, ppn, 4, recursive_doubling::<f64, Sum>);
        }
    }

    #[test]
    fn rabenseifner_powers_of_two() {
        for (nodes, ppn) in [(1, 2), (1, 4), (2, 4), (4, 4)] {
            check(nodes, ppn, 16, rabenseifner::<f64, Sum>);
            check(nodes, ppn, 13, rabenseifner::<f64, Sum>); // non-divisible
            check(nodes, ppn, 3, rabenseifner::<f64, Sum>); // fewer elems than ranks
        }
    }

    #[test]
    fn rabenseifner_falls_back_for_odd_sizes() {
        check(1, 5, 8, rabenseifner::<f64, Sum>);
    }

    #[test]
    fn tuned_selects_both_paths() {
        let small: Algo = |ctx, c, s, r, op| tuned(ctx, c, s, r, op, &crate::Tuning::cray_mpich());
        check(2, 2, 4, small);
        let big_count = crate::Tuning::cray_mpich().allreduce_rabenseifner_threshold / 8 + 64;
        check(2, 2, big_count, small);
    }

    #[test]
    fn min_allreduce() {
        let r = run(1, 4, |ctx| {
            let world = ctx.world();
            let send = ctx.buf_from_fn(1, |_| 100.0 - ctx.rank() as f64);
            let mut recv = ctx.buf_zeroed(1);
            recursive_doubling(ctx, &world, &send, &mut recv, Min);
            recv.get(0)
        });
        assert!(r.per_rank.iter().all(|&v| v == 97.0));
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        for algo in ["allreduce.recursive_doubling", "allreduce.rabenseifner"] {
            let via_req: Algo = match algo {
                "allreduce.recursive_doubling" => |ctx, c, s, r, op| {
                    let req = istart(ctx, c, s, r, op, "allreduce.recursive_doubling");
                    msim::Request::wait(req, ctx);
                },
                _ => |ctx, c, s, r, op| {
                    let req = istart(ctx, c, s, r, op, "allreduce.rabenseifner");
                    msim::Request::wait(req, ctx);
                },
            };
            check(2, 2, 9, via_req); // power of two
            check(1, 5, 4, via_req); // odd size (rabenseifner falls back)
        }
        let tuned_req: Algo = |ctx, c, s, r, op| {
            let req = ituned(ctx, c, s, r, op, &crate::Tuning::cray_mpich());
            msim::Request::wait(req, ctx);
        };
        check(2, 3, 6, tuned_req);
    }

    #[test]
    fn rabenseifner_beats_recursive_doubling_for_long_vectors() {
        let count = 1 << 14;
        let time = |algo: Algo| {
            run(4, 2, move |ctx| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(count, |i| i as f64);
                let mut recv = ctx.buf_zeroed(count);
                algo(ctx, &world, &send, &mut recv, Sum);
                ctx.now()
            })
            .makespan()
        };
        let t_rd = time(recursive_doubling::<f64, Sum>);
        let t_rab = time(rabenseifner::<f64, Sum>);
        assert!(
            t_rab < t_rd,
            "rabenseifner ({t_rab}) must beat recursive doubling ({t_rd})"
        );
    }
}
