//! Irregular all-to-all personalized exchange (`MPI_Alltoallv`).
//!
//! Rank `s` sends `scounts[d]` elements to rank `d` and receives
//! `rcounts[s]` elements from each rank `s`; blocks are packed
//! contiguously in count order (displacements are the running sums, as in
//! [`crate::util::displs_of`]). Correctness requires the global count
//! matrix to be consistent: `scounts[d]` on rank `s` must equal
//! `rcounts[s]` on rank `d`.
//!
//! * [`pairwise`] — p−1 scheduled rounds (shifted partners), one
//!   outstanding message per round; bounds memory pressure at scale;
//! * [`linear`] — posts all p−1 sends eagerly, then drains the receives
//!   in deterministic order; saves the per-round latency on small
//!   communicators (what MPICH's linear alltoallv does).
//!
//! Both are [`crate::rounds::Schedule`]s from the send buffer laid out by
//! the send counts into the result laid out by the receive counts (one
//! layout of 2p blocks, its displacements computed once per call), run
//! by the one split-phase driver with the own-block copy as its
//! prologue.
//!
//! Selection goes through the registry/policy layer like every other
//! family, with the `v`-variant bookkeeping fee: [`tuned`] and its
//! nonblocking form [`ituned`] take one [`Select`], a `&Tuning` for the
//! legacy thresholds or a `&SelectionPolicy` that logs its decision;
//! [`istart`] starts a given [`crate::Algo`].

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::displs_of;

fn check_args<T: ShmElem>(
    comm: &Communicator,
    send: &Buf<T>,
    scounts: &[usize],
    recv: &Buf<T>,
    rcounts: &[usize],
) {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(scounts.len(), p, "one send count per rank required");
    assert_eq!(rcounts.len(), p, "one recv count per rank required");
    assert_eq!(
        send.len(),
        scounts.iter().sum::<usize>(),
        "send must hold every outgoing block"
    );
    assert_eq!(
        recv.len(),
        rcounts.iter().sum::<usize>(),
        "recv must hold every incoming block"
    );
    assert_eq!(
        scounts[me], rcounts[me],
        "the self block must have one size"
    );
}

/// The run of `algo` (see `allgather`'s `for_algo`).
fn for_algo<T: ShmElem>(algo: Algo, p: usize) -> Rounds<T> {
    let (schedule, tag) = match algo {
        Algo::AlltoallvPairwise => (Schedule::Shifted, tags::ALLTOALLV),
        Algo::AlltoallvLinear => (Schedule::Linear, tags::ALLTOALLV + 1),
        other => unreachable!("selection picks a flat alltoallv schedule, not {other}"),
    };
    Rounds::new(schedule, tag, p)
}

/// Pairwise alltoallv: p−1 scheduled rounds, partner `me + k` out and
/// `me − k` in per round.
pub fn pairwise<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    scounts: &[usize],
    recv: &mut Buf<T>,
    rcounts: &[usize],
) {
    dispatch(
        ctx,
        comm,
        send,
        scounts,
        recv,
        rcounts,
        Algo::AlltoallvPairwise,
    );
}

/// Linear alltoallv: every send posted eagerly, then the p−1 receives
/// drained in deterministic order.
pub fn linear<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    scounts: &[usize],
    recv: &mut Buf<T>,
    rcounts: &[usize],
) {
    dispatch(
        ctx,
        comm,
        send,
        scounts,
        recv,
        rcounts,
        Algo::AlltoallvLinear,
    );
}

/// The [`CommCase`] one alltoallv call presents to a selection policy
/// (`total_bytes` = everything this rank sends).
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, scounts: &[usize]) -> CommCase {
    CommCase::new(
        CollectiveOp::Alltoallv,
        comm.size(),
        comm.num_nodes(ctx.map()),
        scounts.iter().sum::<usize>() * T::SIZE,
    )
}

/// Run `algo`.
///
/// # Panics
/// Panics on a schedule this family does not run: another op's, or a
/// hybrid one.
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Alltoallv signature
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    scounts: &[usize],
    recv: &mut Buf<T>,
    rcounts: &[usize],
    algo: Algo,
) {
    let mut body = IAlltoallvBody::new(comm, send, scounts, recv, rcounts, algo);
    run_blocking(body.drive_op(ctx, Drive::Block));
}

/// Runtime selection: under the legacy thresholds, linear up to
/// [`crate::Tuning::alltoallv_linear_max_ranks`], pairwise beyond.
/// Charges the collective entry fee plus the `v`-variant bookkeeping
/// overhead.
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Alltoallv signature
pub fn tuned<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    scounts: &[usize],
    recv: &mut Buf<T>,
    rcounts: &[usize],
    select: impl Into<Select<'s>>,
) {
    let case = case_for::<T>(ctx, comm, scounts);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, send, scounts, recv, rcounts, algo);
}

/// The body of an in-flight nonblocking alltoallv (see [`istart`]);
/// [`dispatch`] drives one to completion.
pub struct IAlltoallvBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    /// The receive counts, then the send counts: the blocks of the
    /// result, then of the send buffer.
    counts: Vec<usize>,
    /// Their displacements, each side from 0.
    displs: Vec<usize>,
    run: Rounds<T>,
}

impl<'a, T: ShmElem> IAlltoallvBody<'a, T> {
    fn new(
        comm: &Communicator,
        send: &'a Buf<T>,
        scounts: &[usize],
        recv: &'a mut Buf<T>,
        rcounts: &[usize],
        algo: Algo,
    ) -> Self {
        let run = for_algo(algo, comm.size());
        check_args(comm, send, scounts, recv, rcounts);
        Self {
            comm: comm.clone(),
            send,
            recv,
            counts: [rcounts, scounts].concat(),
            displs: [displs_of(rcounts), displs_of(scounts)].concat(),
            run,
        }
    }
}

impl<T: ShmElem> DriveOp for IAlltoallvBody<'_, T> {
    const OP: &'static str = "ialltoallv";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        let layout = Layout::Counts {
            counts: &self.counts,
            displs: &self.displs,
        };
        let bufs = (Some(self.send), &mut *self.recv);
        self.run.drive(ctx, &self.comm, layout, bufs, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking alltoallv (`MPI_Ialltoallv`).
pub type IAlltoallv<'a, T> = IColl<IAlltoallvBody<'a, T>>;

/// Start `algo` nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    scounts: &[usize],
    recv: &'a mut Buf<T>,
    rcounts: &[usize],
    algo: Algo,
) -> IAlltoallv<'a, T> {
    let body = IAlltoallvBody::new(comm, send, scounts, recv, rcounts, algo);
    IColl::start(ctx, body)
}

/// Nonblocking form of [`tuned`].
#[allow(clippy::too_many_arguments)] // mirrors the MPI_Alltoallv signature
pub fn ituned<'a, 's, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    scounts: &[usize],
    recv: &'a mut Buf<T>,
    rcounts: &[usize],
    select: impl Into<Select<'s>>,
) -> IAlltoallv<'a, T> {
    let case = case_for::<T>(ctx, comm, scounts);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, send, scounts, recv, rcounts, algo)
}

/// This module's schedules. `total_bytes` is everything one
/// rank sends; `block_bytes()` approximates one peer block.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::AlltoallvPairwise,
        applicable: |_| true,
        // Own-block copy plus p−1 scheduled single-block exchanges.
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.uniform_rounds(c.comm_size.saturating_sub(1), c.block_bytes())
        },
    },
    AlgorithmSpec {
        algo: Algo::AlltoallvLinear,
        applicable: |_| true,
        // Eager posting overlaps the transits: one full message on the
        // critical path plus per-message injection/drain overheads.
        estimate: |e, c| {
            let p = c.comm_size;
            if p <= 1 {
                return e.copy(c.block_bytes());
            }
            e.copy(c.block_bytes())
                + e.msg(c.block_bytes())
                + (p - 2) as f64 * (e.cost().o_send + e.cost().o_recv)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;

    /// Count matrix: rank s sends ((s + 2d) mod 4) elements to rank d;
    /// element i of the s→d block carries s·1000 + d·100 + i.
    fn count(s: usize, d: usize) -> usize {
        (s + 2 * d) % 4
    }

    fn check(
        nodes: usize,
        ppn: usize,
        algo: impl Fn(&mut Ctx, &Communicator, &Buf<f64>, &[usize], &mut Buf<f64>, &[usize])
            + Send
            + Sync,
    ) {
        let p = nodes * ppn;
        let r = run(nodes, ppn, move |ctx| {
            let world = ctx.world();
            let me = ctx.rank();
            let scounts: Vec<usize> = (0..p).map(|d| count(me, d)).collect();
            let rcounts: Vec<usize> = (0..p).map(|s| count(s, me)).collect();
            let sdispls = displs_of(&scounts);
            let send = ctx.buf_from_fn(scounts.iter().sum(), |i| {
                let d = (0..p).rfind(|&d| sdispls[d] <= i).unwrap();
                (me * 1000 + d * 100 + (i - sdispls[d])) as f64
            });
            let mut recv = ctx.buf_zeroed(rcounts.iter().sum());
            algo(ctx, &world, &send, &scounts, &mut recv, &rcounts);
            recv.as_slice().unwrap().to_vec()
        });
        for (rank, got) in r.per_rank.iter().enumerate() {
            let rcounts: Vec<usize> = (0..p).map(|s| count(s, rank)).collect();
            let rdispls = displs_of(&rcounts);
            let expected: Vec<f64> = (0..rcounts.iter().sum::<usize>())
                .map(|i| {
                    let s = (0..p).rfind(|&s| rdispls[s] <= i).unwrap();
                    (s * 1000 + rank * 100 + (i - rdispls[s])) as f64
                })
                .collect();
            assert_eq!(got, &expected, "rank {rank} disagrees ({nodes}x{ppn})");
        }
    }

    #[test]
    fn pairwise_various_shapes() {
        check(1, 1, pairwise::<f64>);
        check(2, 2, pairwise::<f64>);
        check(1, 5, pairwise::<f64>);
        check(3, 2, pairwise::<f64>);
    }

    #[test]
    fn linear_various_shapes() {
        check(1, 1, linear::<f64>);
        check(2, 2, linear::<f64>);
        check(1, 5, linear::<f64>);
        check(3, 2, linear::<f64>);
    }

    #[test]
    fn tuned_selects_and_completes() {
        check(2, 3, |ctx, c, s, sc, r, rc| {
            tuned(ctx, c, s, sc, r, rc, &crate::Tuning::cray_mpich());
        });
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        for algo in [Algo::AlltoallvPairwise, Algo::AlltoallvLinear] {
            check(2, 2, |ctx, c, s, sc, r, rc| {
                let req = istart(ctx, c, s, sc, r, rc, algo);
                msim::Request::wait(req, ctx);
            });
        }
    }

    #[test]
    fn linear_beats_pairwise_on_small_comms() {
        let time = |algo: Algo| {
            run(2, 2, move |ctx| {
                let world = ctx.world();
                let p = world.size();
                let me = ctx.rank();
                let scounts: Vec<usize> = vec![64; p];
                let rcounts = scounts.clone();
                let send = ctx.buf_from_fn(64 * p, |i| (me + i) as f64);
                let mut recv = ctx.buf_zeroed(64 * p);
                dispatch(ctx, &world, &send, &scounts, &mut recv, &rcounts, algo);
                ctx.now()
            })
            .makespan()
        };
        let t_lin = time(Algo::AlltoallvLinear);
        let t_pw = time(Algo::AlltoallvPairwise);
        assert!(
            t_lin <= t_pw,
            "eager linear ({t_lin}) should not trail pairwise ({t_pw}) on a small comm"
        );
    }
}
