//! All-to-all personalized exchange (`MPI_Alltoall`).
//!
//! [`pairwise`] is the long-message pairwise exchange (p−1 steps, XOR
//! partner order on power-of-two sizes, shifted otherwise); [`bruck`] is
//! the log-round short-message algorithm. Both are
//! [`crate::rounds::Schedule`]s over the uniform layout, run by the one
//! split-phase driver: the blocking functions drive it with
//! `Drive::Block` and [`istart`]/[`ituned`] expose the runs as
//! nonblocking requests (`MPI_Ialltoall`). [`tuned`] and [`ituned`]
//! take one [`Select`]: a `&Tuning` for the legacy thresholds or a
//! `&SelectionPolicy` that logs its decision.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{ceil_log2, Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;

fn check_args<T: ShmElem>(comm: &Communicator, send: &Buf<T>, recv: &Buf<T>, count: usize) {
    let p = comm.size();
    assert_eq!(send.len(), p * count, "send must hold p blocks");
    assert_eq!(recv.len(), p * count, "recv must hold p blocks");
}

/// The run of `algo`, its arguments checked (see `allgather`'s
/// `for_algo`).
fn for_algo<T: ShmElem>(
    algo: Algo,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &Buf<T>,
    count: usize,
) -> Rounds<T> {
    let (schedule, tag) = match algo {
        Algo::AlltoallBruck => (Schedule::AlltoallBruck, tags::ALLTOALL + 1),
        Algo::AlltoallPairwise => (Schedule::Pairwise, tags::ALLTOALL),
        other => unreachable!("selection picks a flat alltoall schedule, not {other}"),
    };
    check_args(comm, send, recv, count);
    Rounds::new(schedule, tag, comm.size())
}

/// Pairwise exchange: p−1 rounds; in round k exchange directly with the
/// XOR partner (power-of-two) or the rank k away (otherwise).
pub fn pairwise<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    count: usize,
) {
    dispatch(ctx, comm, send, recv, count, Algo::AlltoallPairwise);
}

/// Bruck all-to-all: ⌈log₂ p⌉ rounds; each round ships all blocks whose
/// destination-distance has bit k set, at the cost of local pack/unpack
/// copies per round plus a final rotation.
pub fn bruck<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    count: usize,
) {
    dispatch(ctx, comm, send, recv, count, Algo::AlltoallBruck);
}

/// Runtime selection: under the legacy thresholds (MPICH-style), Bruck
/// for short messages (few large rounds at the cost of pack/unpack),
/// pairwise exchange otherwise. Charges the per-call collective entry
/// fee. (MPICH's Bruck cutoff — 256 bytes per block — is
/// size-structural, so a `Tuning` carries no alltoall knob.)
pub fn tuned<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    count: usize,
    select: impl Into<Select<'s>>,
) {
    let case = case_for::<T>(ctx, comm, count);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, send, recv, count, algo);
}

/// The [`CommCase`] one alltoall call presents to a selection policy
/// (`total_bytes` = one rank-to-rank block).
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, count: usize) -> CommCase {
    CommCase::new(
        CollectiveOp::Alltoall,
        comm.size(),
        comm.num_nodes(ctx.map()),
        count * T::SIZE,
    )
}

/// Run `algo`.
///
/// # Panics
/// Panics on a schedule this family does not run: another op's, or a
/// hybrid one.
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    count: usize,
    algo: Algo,
) {
    let mut run = for_algo(algo, comm, send, recv, count);
    let bufs = (Some(send), recv);
    run_blocking(run.drive(ctx, comm, Layout::Uniform(count), bufs, Drive::Block));
}

/// The body of an in-flight nonblocking alltoall (see [`istart`]).
pub struct IAlltoallBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    count: usize,
    run: Rounds<T>,
}

impl<T: ShmElem> DriveOp for IAlltoallBody<'_, T> {
    const OP: &'static str = "ialltoall";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        let bufs = (Some(self.send), &mut *self.recv);
        self.run
            .drive(ctx, &self.comm, Layout::Uniform(self.count), bufs, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking alltoall (`MPI_Ialltoall`).
pub type IAlltoall<'a, T> = IColl<IAlltoallBody<'a, T>>;

/// Start `algo` nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    count: usize,
    algo: Algo,
) -> IAlltoall<'a, T> {
    IColl::start(
        ctx,
        IAlltoallBody {
            comm: comm.clone(),
            send,
            run: for_algo(algo, comm, send, recv, count),
            recv,
            count,
        },
    )
}

/// Nonblocking form of [`tuned`].
pub fn ituned<'a, 's, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    count: usize,
    select: impl Into<Select<'s>>,
) -> IAlltoall<'a, T> {
    let case = case_for::<T>(ctx, comm, count);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, send, recv, count, algo)
}

/// This module's schedules. `total_bytes` is one block.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::AlltoallBruck,
        applicable: |_| true,
        // ⌈log₂ p⌉ rounds of p/2 blocks each, plus two full rotations and
        // per-round pack/unpack of the shipped half.
        estimate: |e, c| {
            let p = c.comm_size;
            let total = p * c.total_bytes;
            let half = total / 2;
            e.copy(total) + ceil_log2(p) as f64 * (e.msg(half) + 2.0 * e.copy(half)) + e.copy(total)
        },
    },
    AlgorithmSpec {
        algo: Algo::AlltoallPairwise,
        applicable: |_| true,
        // p−1 single-block exchanges plus the own-block copy.
        estimate: |e, c| {
            e.copy(c.total_bytes) + e.uniform_rounds(c.comm_size.saturating_sub(1), c.total_bytes)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;

    /// send block of rank s destined to rank d carries value s*100 + d.
    fn check(
        nodes: usize,
        ppn: usize,
        count: usize,
        algo: fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>, usize),
    ) {
        let p = nodes * ppn;
        let r = run(nodes, ppn, move |ctx| {
            let world = ctx.world();
            let me = ctx.rank();
            let send = ctx.buf_from_fn(p * count, |i| (me * 100 + i / count.max(1)) as f64);
            let mut recv = ctx.buf_zeroed(p * count);
            algo(ctx, &world, &send, &mut recv, count);
            recv.as_slice().unwrap().to_vec()
        });
        for (rank, got) in r.per_rank.iter().enumerate() {
            let expected: Vec<f64> = (0..p * count)
                .map(|i| ((i / count) * 100 + rank) as f64)
                .collect();
            assert_eq!(got, &expected, "rank {rank} ({nodes}x{ppn}, count {count})");
        }
    }

    #[test]
    fn pairwise_power_of_two() {
        check(2, 2, 2, pairwise::<f64>);
        check(2, 4, 1, pairwise::<f64>);
    }

    #[test]
    fn pairwise_odd_sizes() {
        check(1, 3, 2, pairwise::<f64>);
        check(1, 5, 3, pairwise::<f64>);
        check(3, 2, 1, pairwise::<f64>);
    }

    #[test]
    fn bruck_various_sizes() {
        check(1, 2, 2, bruck::<f64>);
        check(2, 2, 2, bruck::<f64>);
        check(1, 5, 1, bruck::<f64>);
        check(1, 7, 2, bruck::<f64>);
        check(2, 4, 3, bruck::<f64>);
    }

    #[test]
    fn single_rank_alltoall() {
        check(1, 1, 3, pairwise::<f64>);
        check(1, 1, 3, bruck::<f64>);
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        check(2, 3, 2, |ctx, c, s, r, count| {
            let req = istart(ctx, c, s, r, count, Algo::AlltoallPairwise);
            msim::Request::wait(req, ctx);
        });
        check(1, 5, 2, |ctx, c, s, r, count| {
            let req = istart(ctx, c, s, r, count, Algo::AlltoallBruck);
            msim::Request::wait(req, ctx);
        });
    }

    #[test]
    fn bruck_fewer_messages_than_pairwise() {
        let cfg = msim::SimConfig::new(
            simnet::ClusterSpec::regular(4, 4),
            simnet::CostModel::uniform_test(),
        )
        .traced();
        let sends_of = |algo: fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>, usize)| {
            let r = msim::Universe::run(cfg.clone(), move |ctx| {
                let world = ctx.world();
                let p = world.size();
                let send = ctx.buf_from_fn(p, |i| i as f64);
                let mut recv = ctx.buf_zeroed(p);
                algo(ctx, &world, &send, &mut recv, 1);
            })
            .unwrap();
            r.tracer.intra_node_sends() + r.tracer.inter_node_sends()
        };
        let s_bruck = sends_of(bruck::<f64>);
        let s_pair = sends_of(pairwise::<f64>);
        assert!(s_bruck < s_pair, "bruck {s_bruck} vs pairwise {s_pair}");
    }
}
