//! Allreduce (`MPI_Allreduce`).
//!
//! * [`recursive_doubling`] — log₂ p rounds exchanging full vectors; best
//!   for short messages (power-of-two communicators; non-power-of-two
//!   sizes fold the excess ranks into the nearest power of two first);
//! * [`rabenseifner`] — reduce-scatter (recursive halving) followed by an
//!   allgather (recursive doubling); bandwidth-optimal for long messages
//!   (power-of-two sizes, falls back otherwise);
//! * [`tuned`] — MPICH-style selection.
//!
//! Both are [`crate::rounds::Schedule`]s over the whole vector, cut into
//! balanced blocks, run by the one split-phase driver with combining
//! receives; [`istart`]/[`ituned`] expose the same runs as nonblocking
//! [`msim::Request`]s (`MPI_Iallreduce`).

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::op::ReduceOp;
use crate::policy::{Fee, Select};
use crate::registry::{ceil_log2, kleader_spec, Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;

/// Recursive-doubling allreduce for any communicator size (non-powers of
/// two pre-fold the highest ranks into the lower half, then unfold).
pub fn recursive_doubling<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    op: O,
) {
    dispatch(ctx, comm, send, recv, op, Algo::AllreduceRecursiveDoubling);
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
    dispatch(ctx, comm, send, recv, op, Algo::AllreduceRabenseifner);
}

/// A drivable allreduce: [`TunedSm::new`] charges the entry fee of
/// [`tuned`] and picks the schedule; `drive` advances. Public so the
/// hybrid layer (`hmpi`) can poll its bridge allreduce inside its own
/// split-phase machines.
#[derive(Debug)]
pub struct TunedSm<T: ShmElem> {
    run: Rounds<T>,
}

impl<T: ShmElem> TunedSm<T> {
    /// Fee-and-selection identical to [`tuned`].
    pub fn new<'s>(
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        select: impl Into<Select<'s>>,
    ) -> Self {
        let case = case_for(ctx, comm, send);
        Self::for_algo(select.into().enter(ctx, Fee::Call, &case), comm)
    }

    /// The run of `algo`. Selection picks only an applicable schedule of
    /// the case's op, and no flat case is windowed, so no other variant
    /// reaches here. Rabenseifner off powers of two (one rank included)
    /// runs recursive doubling.
    fn for_algo(algo: Algo, comm: &Communicator) -> Self {
        let p = comm.size();
        let schedule = match algo {
            Algo::AllreduceRabenseifner if p.is_power_of_two() && p > 1 => Schedule::Rabenseifner,
            Algo::AllreduceRecursiveDoubling | Algo::AllreduceRabenseifner => {
                Schedule::ReduceDoubling
            }
            other => unreachable!("selection picks a flat allreduce schedule, not {other}"),
        };
        Self {
            run: Rounds::new(schedule, tags::ALLREDUCE, p),
        }
    }

    /// Advance; `Ok(true)` once the allreduce completed.
    pub fn drive<O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        assert_eq!(recv.len(), send.len(), "recv must match send length");
        let layout = Layout::Balanced {
            total: send.len(),
            parts: comm.size(),
        };
        self.run
            .drive_reduce(ctx, comm, layout, (Some(send), recv), op, how)
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

/// Run `algo`.
///
/// # Panics
/// Panics on a schedule this family does not run: another op's, or a
/// hybrid one.
pub fn dispatch<T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    op: O,
    algo: Algo,
) {
    let mut sm = TunedSm::for_algo(algo, comm);
    run_blocking(sm.drive(ctx, comm, send, recv, op, Drive::Block));
}

/// The body of an in-flight nonblocking allreduce (see [`istart`]).
pub struct IAllreduceBody<'a, T: ShmElem, O: ReduceOp<T>> {
    comm: Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    op: O,
    sm: TunedSm<T>,
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

/// Start `algo` nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem, O: ReduceOp<T>>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    op: O,
    algo: Algo,
) -> IAllreduce<'a, T, O> {
    IColl::start(
        ctx,
        IAllreduceBody {
            comm: comm.clone(),
            send,
            recv,
            op,
            sm: TunedSm::for_algo(algo, comm),
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

/// This module's schedules, then the k-leader one `hmpi` runs.
/// Reduction compute is priced at one flop per element per combine.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::AllreduceRecursiveDoubling,
        applicable: |_| true,
        // log₂ p full-vector exchanges, each followed by a combine.
        estimate: |e, c| {
            let rounds = ceil_log2(c.comm_size);
            e.copy(c.total_bytes)
                + rounds as f64 * (e.msg(c.total_bytes) + e.reduce_compute(c.total_bytes / 8, 1.0))
        },
    },
    AlgorithmSpec {
        algo: Algo::AllreduceRabenseifner,
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
    },
    kleader_spec(Algo::AllreduceHyKleader),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Min, Sum};
    use crate::testutil::run;

    type Kernel = fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>, Sum);

    fn check(nodes: usize, ppn: usize, count: usize, algo: Kernel) {
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
        let small: Kernel =
            |ctx, c, s, r, op| tuned(ctx, c, s, r, op, &crate::Tuning::cray_mpich());
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
        for algo in [
            Algo::AllreduceRecursiveDoubling,
            Algo::AllreduceRabenseifner,
        ] {
            let via_req: Kernel = match algo {
                Algo::AllreduceRecursiveDoubling => |ctx, c, s, r, op| {
                    let req = istart(ctx, c, s, r, op, Algo::AllreduceRecursiveDoubling);
                    msim::Request::wait(req, ctx);
                },
                _ => |ctx, c, s, r, op| {
                    let req = istart(ctx, c, s, r, op, Algo::AllreduceRabenseifner);
                    msim::Request::wait(req, ctx);
                },
            };
            check(2, 2, 9, via_req); // power of two
            check(1, 5, 4, via_req); // odd size (rabenseifner falls back)
        }
        let tuned_req: Kernel = |ctx, c, s, r, op| {
            let req = ituned(ctx, c, s, r, op, &crate::Tuning::cray_mpich());
            msim::Request::wait(req, ctx);
        };
        check(2, 3, 6, tuned_req);
    }

    #[test]
    fn rabenseifner_beats_recursive_doubling_for_long_vectors() {
        let count = 1 << 14;
        let time = |algo: Kernel| {
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
