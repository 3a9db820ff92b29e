//! Reduce-scatter (`MPI_Reduce_scatter`): element-wise reduction of
//! p per-rank vectors, with rank `r` receiving segment `r` of the result.
//!
//! * [`recursive_halving`] — log₂ p rounds halving the active range,
//!   bandwidth-optimal for long vectors (power-of-two sizes);
//! * [`pairwise`] — p−1 rounds, any communicator size, good for long
//!   vectors on non-powers of two;
//! * [`tuned`] — selection with the per-call entry fee.
//!
//! Every schedule is a [`crate::rounds::Schedule`] over the counts and their
//! displacements (computed once per call), run by the one split-phase
//! driver with combining receives; [`istart`]/[`ituned`] expose the same
//! runs as nonblocking [`msim::Request`]s (`MPI_Ireduce_scatter`).

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::op::ReduceOp;
use crate::policy::{Fee, Select};
use crate::registry::{Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::displs_of;

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
    let algo = Algo::ReduceScatterRecursiveHalving;
    dispatch(ctx, comm, send, counts, recv, op, algo);
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
    let algo = Algo::ReduceScatterPairwise;
    dispatch(ctx, comm, send, counts, recv, op, algo);
}

/// A drivable reduce-scatter: [`TunedSm::new`] charges the entry fee of
/// [`tuned`] and picks the schedule; `drive` advances. Public so the
/// hybrid layer (`hmpi`) can poll its bridge reduce-scatter inside its
/// own split-phase machines.
#[derive(Debug)]
pub struct TunedSm<T: ShmElem> {
    run: Rounds<T>,
    /// The displacements of the call's counts.
    displs: Vec<usize>,
}

impl<T: ShmElem> TunedSm<T> {
    /// Fee-and-selection identical to [`tuned`].
    pub fn new<'s>(
        ctx: &mut Ctx,
        comm: &Communicator,
        counts: &[usize],
        select: impl Into<Select<'s>>,
    ) -> Self {
        let case = case_for::<T>(ctx, comm, counts);
        let algo = select.into().enter(ctx, Fee::Call, &case);
        Self::for_algo(algo, comm, counts)
    }

    /// The run of `algo` over `counts`. Selection picks only an
    /// applicable schedule of the case's op, and no flat case is
    /// windowed, so no other variant reaches here.
    fn for_algo(algo: Algo, comm: &Communicator, counts: &[usize]) -> Self {
        let schedule = match algo {
            Algo::ReduceScatterLocal => Schedule::Local,
            Algo::ReduceScatterRecursiveHalving => Schedule::RecursiveHalving,
            Algo::ReduceScatterPairwise => Schedule::ReducePairwise,
            other => unreachable!("selection picks a flat reduce_scatter schedule, not {other}"),
        };
        let run = Rounds::new(schedule, tags::REDUCE + 16, comm.size());
        assert_eq!(counts.len(), comm.size(), "one count per rank required");
        Self {
            run,
            displs: displs_of(counts),
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
        let layout = Layout::Counts {
            counts,
            displs: &self.displs,
        };
        let total = layout.total(comm.size());
        assert_eq!(send.len(), total, "send must hold the full vector");
        assert_eq!(
            recv.len(),
            counts[comm.rank()],
            "recv must hold this rank's segment"
        );
        self.run
            .drive_reduce(ctx, comm, layout, (Some(send), recv), op, how)
    }
}

/// Selection: under the legacy thresholds, recursive halving on powers
/// of two, pairwise otherwise. Charges the per-call collective entry fee.
/// (The split is structural — a `Tuning` carries no reduce-scatter knob.)
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
pub fn tuned<'s, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
    select: impl Into<Select<'s>>,
) {
    let case = case_for::<T>(ctx, comm, counts);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, send, counts, recv, op, algo);
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

/// Run `algo`.
///
/// # Panics
/// Panics on a schedule this family does not run: another op's, or a
/// hybrid one.
pub fn dispatch<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    op: O,
    algo: Algo,
) {
    let mut sm = TunedSm::for_algo(algo, comm, counts);
    run_blocking(sm.drive(ctx, comm, send, counts, recv, op, Drive::Block));
}

/// The body of an in-flight nonblocking reduce-scatter (see [`istart`]).
pub struct IReduceScatterBody<'a, T: ShmElem, O: ReduceOp<T>> {
    comm: Communicator,
    send: &'a Buf<T>,
    counts: Vec<usize>,
    recv: &'a mut Buf<T>,
    op: O,
    sm: TunedSm<T>,
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

/// Start `algo` nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    op: O,
    algo: Algo,
) -> IReduceScatter<'a, T, O> {
    IColl::start(
        ctx,
        IReduceScatterBody {
            comm: comm.clone(),
            send,
            counts: counts.to_vec(),
            recv,
            op,
            sm: TunedSm::for_algo(algo, comm, counts),
        },
    )
}

/// Nonblocking form of [`tuned`].
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Reduce_scatter signature
pub fn ituned<'a, 's, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    op: O,
    select: impl Into<Select<'s>>,
) -> IReduceScatter<'a, T, O> {
    let case = case_for::<T>(ctx, comm, counts);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, send, counts, recv, op, algo)
}

/// This module's schedules. `total_bytes` is the full vector.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::ReduceScatterLocal,
        applicable: |c| c.comm_size <= 1,
        estimate: |e, c| e.copy(c.total_bytes),
    },
    AlgorithmSpec {
        algo: Algo::ReduceScatterRecursiveHalving,
        applicable: |c| c.comm_size.is_power_of_two(),
        // Full-vector staging copy, log₂ p halving exchanges + combines,
        // own-segment copy out.
        estimate: |e, c| {
            e.copy(c.total_bytes)
                + e.halving_rounds(c.comm_size, c.total_bytes)
                + e.reduce_compute(c.total_bytes / 8, 1.0)
                + e.copy(c.block_bytes())
        },
    },
    AlgorithmSpec {
        algo: Algo::ReduceScatterPairwise,
        applicable: |_| true,
        // p−1 single-segment exchanges, each combined on arrival.
        estimate: |e, c| {
            let rounds = c.comm_size.saturating_sub(1);
            e.copy(c.block_bytes())
                + e.uniform_rounds(rounds, c.block_bytes())
                + rounds as f64 * e.reduce_compute(c.block_bytes() / 8, 1.0)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;
    use crate::testutil::run;

    type Kernel = fn(&mut Ctx, &Communicator, &Buf<f64>, &[usize], &mut Buf<f64>, Sum);

    fn check(nodes: usize, ppn: usize, counts: Vec<usize>, algo: Kernel) {
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
        let t: Kernel =
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
        let rh: Kernel = |ctx, c, s, n, r, op| {
            let req = istart(ctx, c, s, n, r, op, Algo::ReduceScatterRecursiveHalving);
            msim::Request::wait(req, ctx);
        };
        check(2, 2, vec![1, 4, 0, 2], rh);
        let pw: Kernel = |ctx, c, s, n, r, op| {
            let req = istart(ctx, c, s, n, r, op, Algo::ReduceScatterPairwise);
            msim::Request::wait(req, ctx);
        };
        check(1, 5, vec![1, 2, 0, 3, 1], pw);
        let t: Kernel = |ctx, c, s, n, r, op| {
            let req = ituned(ctx, c, s, n, r, op, &crate::Tuning::cray_mpich());
            msim::Request::wait(req, ctx);
        };
        check(1, 1, vec![4], t);
        check(2, 3, vec![2, 0, 1, 3, 2, 2], t);
    }
}
