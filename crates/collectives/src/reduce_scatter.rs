//! Reduce-scatter (`MPI_Reduce_scatter`): element-wise reduction of
//! p per-rank vectors, with rank `r` receiving segment `r` of the result.
//!
//! * [`recursive_halving`] — log₂ p rounds halving the active range,
//!   bandwidth-optimal for long vectors (power-of-two sizes);
//! * [`pairwise`] — p−1 rounds, any communicator size, good for long
//!   vectors on non-powers of two;
//! * [`tuned`] — selection with the per-call entry fee.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::op::ReduceOp;
use crate::policy::{legacy_choice, SelectionPolicy};
use crate::registry::{AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::selection::Tuning;
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::displs_of;

fn check_args<T: ShmElem>(comm: &Communicator, send: &Buf<T>, counts: &[usize], recv: &Buf<T>) {
    assert_eq!(counts.len(), comm.size(), "one count per rank required");
    assert_eq!(
        send.len(),
        counts.iter().sum::<usize>(),
        "send must hold the full vector"
    );
    assert_eq!(
        recv.len(),
        counts[comm.rank()],
        "recv must hold this rank's segment"
    );
}

/// Split-phase recursive halving: the scratch accumulator lives in the
/// machine, each round exchanges and combines half of the remaining range
/// with the XOR partner.
#[derive(Debug)]
struct RhSm<T: ShmElem> {
    started: bool,
    acc: Option<Buf<T>>,
    lo: usize,
    hi: usize,
    mask: usize,
    halving_done: bool,
    sent: bool,
}

impl<T: ShmElem> RhSm<T> {
    fn new() -> Self {
        Self {
            started: false,
            acc: None,
            lo: 0,
            hi: 0,
            mask: 0,
            halving_done: false,
            sent: false,
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
    fn drive<O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        counts: &[usize],
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let displs = displs_of(counts);
        if !self.started {
            assert!(
                p.is_power_of_two(),
                "recursive halving requires a power-of-two communicator"
            );
            check_args(comm, send, counts, recv);
            let total: usize = counts.iter().sum();
            // Work in a scratch accumulator initialized with our full vector.
            let mut acc = ctx.buf_zeroed::<T>(total);
            acc.copy_from(0, send, 0, total);
            ctx.charge_copy(total * T::SIZE);
            self.acc = Some(acc);
            self.lo = 0;
            self.hi = p;
            self.mask = p / 2;
            self.halving_done = p == 1;
            self.started = true;
        }
        let acc = self.acc.as_mut().expect("started");

        while !self.halving_done {
            let partner = me ^ self.mask;
            let mid = self.lo + (self.hi - self.lo) / 2;
            let (keep, give) = if me & self.mask == 0 {
                ((self.lo, mid), (mid, self.hi))
            } else {
                ((mid, self.hi), (self.lo, mid))
            };
            let give_off = displs[give.0];
            let give_len = if give.1 == 0 {
                0
            } else {
                displs[give.1 - 1] + counts[give.1 - 1] - give_off
            };
            let keep_off = displs[keep.0];
            if !self.sent {
                ctx.send_region(comm, partner, tags::REDUCE + 16, acc, give_off, give_len);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, partner, tags::REDUCE + 16, how)? else {
                return Ok(false);
            };
            acc.combine_payload(keep_off, &payload, |a, b| op.combine(a, b));
            ctx.compute((payload.len() / T::SIZE) as f64 * O::FLOPS_PER_ELEM);
            self.lo = keep.0;
            self.hi = keep.1;
            self.sent = false;
            if self.mask == 1 {
                debug_assert_eq!((self.lo + 1, self.hi), (me + 1, me + 1));
                self.halving_done = true;
            } else {
                self.mask >>= 1;
            }
        }
        recv.copy_from(0, acc, displs[me], counts[me]);
        ctx.charge_copy(counts[me] * T::SIZE);
        Ok(true)
    }
}

/// Recursive halving (power-of-two sizes only): each round exchanges and
/// combines half of the remaining range with the XOR partner.
///
/// # Panics
/// Panics unless the communicator size is a power of two.
pub fn recursive_halving<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
) {
    run_blocking(RhSm::new().drive(ctx, comm, send, counts, recv, op, Drive::Block));
}

/// Split-phase pairwise exchange reduce-scatter.
#[derive(Debug)]
struct PwSm {
    placed: bool,
    k: usize,
    sent: bool,
}

impl PwSm {
    fn new() -> Self {
        Self {
            placed: false,
            k: 1,
            sent: false,
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
    fn drive<T: ShmElem, O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        counts: &[usize],
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let displs = displs_of(counts);
        if !self.placed {
            check_args(comm, send, counts, recv);
            recv.copy_from(0, send, displs[me], counts[me]);
            ctx.charge_copy(counts[me] * T::SIZE);
            self.placed = true;
        }
        while self.k < p {
            let k = self.k;
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            if !self.sent {
                ctx.send_region(comm, dst, tags::REDUCE + 17, send, displs[dst], counts[dst]);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, src, tags::REDUCE + 17, how)? else {
                return Ok(false);
            };
            recv.combine_payload(0, &payload, |a, b| op.combine(a, b));
            ctx.compute((payload.len() / T::SIZE) as f64 * O::FLOPS_PER_ELEM);
            self.k += 1;
            self.sent = false;
        }
        Ok(true)
    }
}

/// Pairwise exchange: in round k, send the segment owned by `me + k` to
/// that rank and combine the incoming segment from `me − k`. Works for
/// any communicator size.
pub fn pairwise<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
) {
    run_blocking(PwSm::new().drive(ctx, comm, send, counts, recv, op, Drive::Block));
}

/// One reduce-scatter algorithm as a split-phase machine, selected by name.
#[derive(Debug)]
enum RsSm<T: ShmElem> {
    Local { done: bool },
    Rh(RhSm<T>),
    Pw(PwSm),
}

impl<T: ShmElem> RsSm<T> {
    /// # Panics
    /// Panics on an unknown algorithm name.
    fn for_algo(algo: &str) -> Self {
        match algo {
            "reduce_scatter.local" => RsSm::Local { done: false },
            "reduce_scatter.recursive_halving" => RsSm::Rh(RhSm::new()),
            "reduce_scatter.pairwise" => RsSm::Pw(PwSm::new()),
            other => panic!("reduce_scatter: unknown algorithm {other:?}"),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
    fn drive<O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        counts: &[usize],
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            RsSm::Local { done } => {
                if !*done {
                    check_args(comm, send, counts, recv);
                    recv.copy_from(0, send, 0, counts[0]);
                    ctx.charge_copy(counts[0] * T::SIZE);
                    *done = true;
                }
                Ok(true)
            }
            RsSm::Rh(sm) => sm.drive(ctx, comm, send, counts, recv, op, how),
            RsSm::Pw(sm) => sm.drive(ctx, comm, send, counts, recv, op, how),
        }
    }
}

/// A drivable reduce-scatter with the selection and entry fee of
/// [`tuned`] — construction charges the fee and picks the algorithm;
/// `drive` advances. Public so the hybrid layer (`hmpi`) can poll its
/// bridge reduce-scatter inside its own split-phase machines.
#[derive(Debug)]
pub struct TunedSm<T: ShmElem> {
    sm: RsSm<T>,
}

impl<T: ShmElem> TunedSm<T> {
    /// Fee-and-selection identical to [`tuned`].
    pub fn tuned(ctx: &mut Ctx, comm: &Communicator, counts: &[usize], tuning: &Tuning) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        let case = case_for::<T>(ctx, comm, counts);
        Self {
            sm: RsSm::for_algo(legacy_choice(tuning, &case)),
        }
    }

    /// Fee-and-selection identical to [`with_policy`].
    pub fn with_policy(
        ctx: &mut Ctx,
        comm: &Communicator,
        counts: &[usize],
        policy: &SelectionPolicy,
    ) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        let case = case_for::<T>(ctx, comm, counts);
        Self {
            sm: RsSm::for_algo(policy.choose(ctx, &case)),
        }
    }

    /// Advance; `Ok(true)` once the reduce-scatter completed.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
    pub fn drive<O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        counts: &[usize],
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        self.sm.drive(ctx, comm, send, counts, recv, op, how)
    }
}

/// Selection: recursive halving on powers of two, pairwise otherwise.
/// Charges the per-call collective entry fee. (The split is structural —
/// `tuning` carries no reduce-scatter knob.)
pub fn tuned<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
    tuning: &Tuning,
) {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for::<T>(ctx, comm, counts);
    dispatch(
        ctx,
        comm,
        send,
        counts,
        recv,
        op,
        legacy_choice(tuning, &case),
    );
}

/// The [`CommCase`] one reduce-scatter call presents to a selection
/// policy (`total_bytes` = the full input vector).
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, counts: &[usize]) -> CommCase {
    CommCase::new(
        CollectiveOp::ReduceScatter,
        comm.size(),
        comm.num_nodes(ctx.map()),
        counts.iter().sum::<usize>() * T::SIZE,
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
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
    algo: &str,
) {
    run_blocking(RsSm::for_algo(algo).drive(ctx, comm, send, counts, recv, op, Drive::Block));
}

/// The body of an in-flight nonblocking reduce-scatter (see [`istart`]).
pub struct IReduceScatterBody<'a, T: ShmElem, O: ReduceOp<T>> {
    comm: Communicator,
    send: &'a Buf<T>,
    counts: Vec<usize>,
    recv: &'a mut Buf<T>,
    op: O,
    sm: RsSm<T>,
}

impl<T: ShmElem, O: ReduceOp<T>> DriveOp for IReduceScatterBody<'_, T, O> {
    const OP: &'static str = "ireduce_scatter";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm.drive(
            ctx,
            &self.comm,
            self.send,
            &self.counts,
            self.recv,
            self.op,
            how,
        )
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking reduce-scatter (`MPI_Ireduce_scatter`).
pub type IReduceScatter<'a, T, O> = IColl<IReduceScatterBody<'a, T, O>>;

/// Start the named algorithm nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    op: O,
    algo: &str,
) -> IReduceScatter<'a, T, O> {
    IColl::start(
        ctx,
        IReduceScatterBody {
            comm: comm.clone(),
            send,
            counts: counts.to_vec(),
            recv,
            op,
            sm: RsSm::for_algo(algo),
        },
    )
}

/// Nonblocking form of [`tuned`].
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
pub fn ituned<'a, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    op: O,
    tuning: &Tuning,
) -> IReduceScatter<'a, T, O> {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for::<T>(ctx, comm, counts);
    let algo = legacy_choice(tuning, &case);
    istart(ctx, comm, send, counts, recv, op, algo)
}

/// Nonblocking form of [`with_policy`].
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
pub fn iwith_policy<'a, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    op: O,
    policy: &SelectionPolicy,
) -> IReduceScatter<'a, T, O> {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for::<T>(ctx, comm, counts);
    let algo = policy.choose(ctx, &case).to_string();
    istart(ctx, comm, send, counts, recv, op, &algo)
}

/// Policy-driven entry point. Charges the per-call entry fee.
pub fn with_policy<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
    policy: &SelectionPolicy,
) {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    let case = case_for::<T>(ctx, comm, counts);
    let algo = policy.choose(ctx, &case);
    dispatch(ctx, comm, send, counts, recv, op, algo);
}

/// Register this module's algorithms. `total_bytes` is the full vector.
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "reduce_scatter.local",
        op: CollectiveOp::ReduceScatter,
        applicable: |c| c.comm_size <= 1,
        estimate: |e, c| e.copy(c.total_bytes),
    });
    reg.register(AlgorithmSpec {
        name: "reduce_scatter.recursive_halving",
        op: CollectiveOp::ReduceScatter,
        applicable: |c| c.comm_size.is_power_of_two(),
        // Full-vector staging copy, log₂ p halving exchanges + combines,
        // own-segment copy out.
        estimate: |e, c| {
            e.copy(c.total_bytes)
                + e.halving_rounds(c.comm_size, c.total_bytes)
                + e.reduce_compute(c.total_bytes / 8, 1.0)
                + e.copy(c.block_bytes())
        },
    });
    reg.register(AlgorithmSpec {
        name: "reduce_scatter.pairwise",
        op: CollectiveOp::ReduceScatter,
        applicable: |_| true,
        // p−1 single-segment exchanges, each combined on arrival.
        estimate: |e, c| {
            let rounds = c.comm_size.saturating_sub(1);
            e.copy(c.block_bytes())
                + e.uniform_rounds(rounds, c.block_bytes())
                + rounds as f64 * e.reduce_compute(c.block_bytes() / 8, 1.0)
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;
    use crate::testutil::run;

    type Algo = fn(&mut Ctx, &Communicator, &Buf<f64>, &[usize], &mut Buf<f64>, Sum);

    fn check(nodes: usize, ppn: usize, counts: Vec<usize>, algo: Algo) {
        let p = nodes * ppn;
        assert_eq!(counts.len(), p);
        let displs = displs_of(&counts);
        let counts2 = counts.clone();
        let r = run(nodes, ppn, move |ctx| {
            let world = ctx.world();
            let total: usize = counts2.iter().sum();
            // Rank r contributes vector v_r[i] = (r+1)*(i+1).
            let send = ctx.buf_from_fn(total, |i| (ctx.rank() + 1) as f64 * (i + 1) as f64);
            let mut recv = ctx.buf_zeroed(counts2[ctx.rank()]);
            algo(ctx, &world, &send, &counts2, &mut recv, Sum);
            recv.as_slice().unwrap().to_vec()
        });
        let rank_sum: f64 = (1..=p).map(|x| x as f64).sum();
        for (rank, got) in r.per_rank.iter().enumerate() {
            let expected: Vec<f64> = (0..counts[rank])
                .map(|i| rank_sum * (displs[rank] + i + 1) as f64)
                .collect();
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "rank {rank}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn recursive_halving_uniform() {
        for (nodes, ppn) in [(1, 2), (1, 4), (2, 4), (4, 4)] {
            check(
                nodes,
                ppn,
                vec![3; nodes * ppn],
                recursive_halving::<f64, Sum>,
            );
        }
    }

    #[test]
    fn recursive_halving_irregular_counts() {
        check(2, 2, vec![1, 4, 0, 2], recursive_halving::<f64, Sum>);
        check(
            1,
            8,
            vec![2, 0, 1, 3, 2, 2, 0, 1],
            recursive_halving::<f64, Sum>,
        );
    }

    #[test]
    fn pairwise_any_size() {
        check(1, 3, vec![2, 1, 3], pairwise::<f64, Sum>);
        check(1, 5, vec![1; 5], pairwise::<f64, Sum>);
        check(3, 2, vec![2, 0, 1, 3, 2, 2], pairwise::<f64, Sum>);
    }

    #[test]
    fn tuned_both_paths() {
        let t: Algo =
            |ctx, c, s, n, r, op| tuned(ctx, c, s, n, r, op, &crate::Tuning::cray_mpich());
        check(2, 2, vec![2; 4], t);
        check(1, 5, vec![1, 2, 0, 3, 1], t);
        check(1, 1, vec![4], t);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_halving_rejects_odd_sizes() {
        check(1, 3, vec![1; 3], recursive_halving::<f64, Sum>);
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        let rh: Algo = |ctx, c, s, n, r, op| {
            let req = istart(ctx, c, s, n, r, op, "reduce_scatter.recursive_halving");
            msim::Request::wait(req, ctx);
        };
        check(2, 2, vec![1, 4, 0, 2], rh);
        let pw: Algo = |ctx, c, s, n, r, op| {
            let req = istart(ctx, c, s, n, r, op, "reduce_scatter.pairwise");
            msim::Request::wait(req, ctx);
        };
        check(1, 5, vec![1, 2, 0, 3, 1], pw);
        let t: Algo = |ctx, c, s, n, r, op| {
            let req = ituned(ctx, c, s, n, r, op, &crate::Tuning::cray_mpich());
            msim::Request::wait(req, ctx);
        };
        check(1, 1, vec![4], t);
        check(2, 3, vec![2, 0, 1, 3, 2, 2], t);
    }
}
