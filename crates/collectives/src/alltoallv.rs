//! Irregular all-to-all personalized exchange (`MPI_Alltoallv`).
//!
//! Rank `s` sends `scounts[d]` elements to rank `d` and receives
//! `rcounts[s]` elements from each rank `s`; blocks are packed
//! contiguously in count order (displacements are the running sums, as in
//! [`crate::util::displs_of`]). Correctness requires the global count
//! matrix to be consistent: `scounts[d]` on rank `s` must equal
//! `rcounts[s]` on rank `d`.
//!
//! This family is *natively* split-phase — the first in the crate written
//! directly against [`msim::Drive`] rather than ported from a monolith:
//!
//! * [`pairwise`] — p−1 scheduled rounds (shifted partners), one
//!   outstanding message per round; bounds memory pressure at scale;
//! * [`linear`] — posts all p−1 sends eagerly, then drains the receives
//!   in deterministic order; saves the per-round latency on small
//!   communicators (what MPICH's linear alltoallv does).
//!
//! Selection goes through the registry/policy layer like every other
//! family, with the `v`-variant bookkeeping fee: [`tuned`] and its
//! nonblocking form [`ituned`] take one [`Select`], a `&Tuning` for the
//! legacy thresholds or a `&SelectionPolicy` that logs its decision;
//! [`istart`] starts a given [`crate::Algo`].

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{Algo, AlgorithmSpec, CollectiveOp, CommCase};
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

fn place_own_block<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    scounts: &[usize],
    recv: &mut Buf<T>,
    rcounts: &[usize],
) {
    let me = comm.rank();
    let sdispls = displs_of(scounts);
    let rdispls = displs_of(rcounts);
    recv.copy_from(rdispls[me], send, sdispls[me], scounts[me]);
    ctx.charge_copy(scounts[me] * T::SIZE);
}

/// Pairwise-exchange state machine: p−1 scheduled rounds with shifted
/// partners, one outstanding message per round.
#[derive(Debug)]
struct PairwiseVSm {
    placed: bool,
    k: usize,
    sent: bool,
}

impl PairwiseVSm {
    fn new() -> Self {
        Self {
            placed: false,
            k: 1,
            sent: false,
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Alltoallv signature
    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        scounts: &[usize],
        recv: &mut Buf<T>,
        rcounts: &[usize],
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        if !self.placed {
            check_args(comm, send, scounts, recv, rcounts);
            place_own_block(ctx, comm, send, scounts, recv, rcounts);
            self.placed = true;
        }
        let sdispls = displs_of(scounts);
        let rdispls = displs_of(rcounts);
        while self.k < p {
            let k = self.k;
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            if !self.sent {
                ctx.send_region(comm, dst, tags::ALLTOALLV, send, sdispls[dst], scounts[dst]);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, src, tags::ALLTOALLV, how)? else {
                return Ok(false);
            };
            recv.write_payload(rdispls[src], &payload);
            self.k += 1;
            self.sent = false;
        }
        Ok(true)
    }
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
    run_blocking(PairwiseVSm::new().drive(ctx, comm, send, scounts, recv, rcounts, Drive::Block));
}

/// Linear (eager) state machine: all p−1 sends posted up front, receives
/// drained in the pairwise order. The natural nonblocking schedule — a
/// `Poll` drive after start has every send already in flight.
#[derive(Debug)]
struct LinearVSm {
    placed: bool,
    posted: bool,
    k: usize,
}

impl LinearVSm {
    fn new() -> Self {
        Self {
            placed: false,
            posted: false,
            k: 1,
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Alltoallv signature
    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        scounts: &[usize],
        recv: &mut Buf<T>,
        rcounts: &[usize],
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        if !self.placed {
            check_args(comm, send, scounts, recv, rcounts);
            place_own_block(ctx, comm, send, scounts, recv, rcounts);
            self.placed = true;
        }
        let sdispls = displs_of(scounts);
        let rdispls = displs_of(rcounts);
        if !self.posted {
            for k in 1..p {
                let dst = (me + k) % p;
                ctx.send_region(
                    comm,
                    dst,
                    tags::ALLTOALLV + 1,
                    send,
                    sdispls[dst],
                    scounts[dst],
                );
            }
            self.posted = true;
        }
        while self.k < p {
            let src = (me + p - self.k) % p;
            let Some(payload) = ctx.step_recv(comm, src, tags::ALLTOALLV + 1, how)? else {
                return Ok(false);
            };
            recv.write_payload(rdispls[src], &payload);
            self.k += 1;
        }
        Ok(true)
    }
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
    run_blocking(LinearVSm::new().drive(ctx, comm, send, scounts, recv, rcounts, Drive::Block));
}

/// One alltoallv schedule as a split-phase machine.
#[derive(Debug)]
enum A2avSm {
    Pairwise(PairwiseVSm),
    Linear(LinearVSm),
}

impl A2avSm {
    /// The machine of `algo`. Selection picks only an applicable schedule
    /// of the case's op, and no flat case is windowed, so no other variant
    /// reaches here.
    fn for_algo(algo: Algo) -> Self {
        match algo {
            Algo::AlltoallvPairwise => A2avSm::Pairwise(PairwiseVSm::new()),
            Algo::AlltoallvLinear => A2avSm::Linear(LinearVSm::new()),
            other => unreachable!("selection picks a flat alltoallv schedule, not {other}"),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Alltoallv signature
    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        scounts: &[usize],
        recv: &mut Buf<T>,
        rcounts: &[usize],
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            A2avSm::Pairwise(sm) => sm.drive(ctx, comm, send, scounts, recv, rcounts, how),
            A2avSm::Linear(sm) => sm.drive(ctx, comm, send, scounts, recv, rcounts, how),
        }
    }
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
    run_blocking(A2avSm::for_algo(algo).drive(
        ctx,
        comm,
        send,
        scounts,
        recv,
        rcounts,
        Drive::Block,
    ));
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

/// The body of an in-flight nonblocking alltoallv (see [`istart`]).
pub struct IAlltoallvBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    scounts: Vec<usize>,
    recv: &'a mut Buf<T>,
    rcounts: Vec<usize>,
    sm: A2avSm,
}

impl<T: ShmElem> DriveOp for IAlltoallvBody<'_, T> {
    const OP: &'static str = "ialltoallv";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm.drive(
            ctx,
            &self.comm,
            self.send,
            &self.scounts,
            self.recv,
            &self.rcounts,
            how,
        )
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
    IColl::start(
        ctx,
        IAlltoallvBody {
            comm: comm.clone(),
            send,
            scounts: scounts.to_vec(),
            recv,
            rcounts: rcounts.to_vec(),
            sm: A2avSm::for_algo(algo),
        },
    )
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
