//! Regular allgather algorithms (`MPI_Allgather`).
//!
//! The three classic schedules from MPICH (paper reference \[28\]):
//!
//! * [`recursive_doubling`] — log₂ p rounds, power-of-two communicators,
//!   best for short/medium totals;
//! * [`bruck`] — ⌈log₂ p⌉ rounds for any p, pays an extra local rotation,
//!   used for short totals on non-power-of-two communicators;
//! * [`ring`] — p−1 rounds of neighbor exchange, bandwidth-optimal, used
//!   for long totals;
//! * [`tuned`] — runtime selection among the above, by the MPICH-style
//!   thresholds of a [`crate::Tuning`] or by a [`SelectionPolicy`]: its
//!   [`Select`] argument takes either.
//!
//! Every schedule is a [`crate::rounds::Schedule`] over the uniform
//! layout, run by the one split-phase driver; the blocking functions
//! drive it with `Drive::Block`, and [`istart`]/[`ituned`] expose the
//! same runs as nonblocking [`msim::Request`]s (`MPI_Iallgather`),
//! selected the same way. Bruck and ring are allgatherv's own, at equal
//! counts, on this family's tags.
//!
//! Every rank contributes `count` elements; the result (p·count elements,
//! blocks in rank order) lands in `recv` on every rank.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select, SelectionPolicy};
use crate::registry::{kleader_spec, Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;

fn check_args<T: ShmElem>(comm: &Communicator, send: &Buf<T>, recv: &Buf<T>) {
    assert_eq!(
        recv.len(),
        send.len() * comm.size(),
        "recv must hold comm.size() blocks of send.len() elements"
    );
}

/// The run of `algo`, its arguments checked. Selection picks only an
/// applicable schedule of the case's op, and no flat case is windowed, so
/// no other variant reaches here.
fn for_algo<T: ShmElem>(
    algo: Algo,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &Buf<T>,
) -> Rounds<T> {
    let (schedule, tag) = match algo {
        Algo::AllgatherLocal => (Schedule::Local, tags::ALLGATHER),
        Algo::AllgatherRecursiveDoubling => (Schedule::RecursiveDoubling, tags::ALLGATHER),
        Algo::AllgatherBruck => (Schedule::Bruck, tags::ALLGATHER + 1),
        Algo::AllgatherRing => (Schedule::Ring, tags::ALLGATHER + 2),
        other => unreachable!("selection picks a flat allgather schedule, not {other}"),
    };
    let run = Rounds::new(schedule, tag, comm.size());
    check_args(comm, send, recv);
    run
}

fn drive<T: ShmElem>(
    run: &mut Rounds<T>,
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    how: Drive,
) -> Result<bool, WaitError> {
    run.drive(
        ctx,
        comm,
        Layout::Uniform(send.len()),
        (Some(send), recv),
        how,
    )
}

/// Recursive doubling: in round k, exchange the 2^k blocks accumulated so
/// far with the partner `rank XOR 2^k`.
///
/// # Panics
/// Panics unless the communicator size is a power of two.
pub fn recursive_doubling<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
) {
    dispatch(ctx, comm, send, recv, Algo::AllgatherRecursiveDoubling);
}

/// Bruck's algorithm: ⌈log₂ p⌉ rounds over a rotated temporary buffer,
/// followed by a local rotation into rank order (the rotation is the
/// overhead that keeps Bruck a short-message algorithm).
pub fn bruck<T: ShmElem>(ctx: &mut Ctx, comm: &Communicator, send: &Buf<T>, recv: &mut Buf<T>) {
    dispatch(ctx, comm, send, recv, Algo::AllgatherBruck);
}

/// Ring: p−1 neighbor-exchange steps; each step forwards the block
/// received in the previous step. Bandwidth-optimal for long messages.
pub fn ring<T: ShmElem>(ctx: &mut Ctx, comm: &Communicator, send: &Buf<T>, recv: &mut Buf<T>) {
    dispatch(ctx, comm, send, recv, Algo::AllgatherRing);
}

/// The [`CommCase`] one allgather call presents to a selection policy.
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, send: &Buf<T>) -> CommCase {
    CommCase::new(
        CollectiveOp::Allgather,
        comm.size(),
        comm.num_nodes(ctx.map()),
        send.byte_len() * comm.size(),
    )
}

/// Run `algo`. The registry holds selection metadata only (collective
/// kernels are generic over the element type), so schedule → kernel
/// happens here.
///
/// # Panics
/// Panics on a schedule this family does not run (another op's, or a
/// hybrid one) or an inapplicable one (e.g. recursive doubling on a
/// non-power-of-two communicator).
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    algo: Algo,
) {
    let mut run = for_algo(algo, comm, send, recv);
    run_blocking(drive(&mut run, ctx, comm, send, recv, Drive::Block));
}

/// Run the algorithm `select` picks: under the legacy thresholds,
/// recursive doubling for power-of-two + short totals, Bruck for short
/// non-power-of-two totals, ring otherwise. Charges the per-call
/// collective entry fee.
pub fn tuned<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    select: impl Into<Select<'s>>,
) {
    let case = case_for(ctx, comm, send);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, send, recv, algo);
}

/// [`tuned`] without the entry fee — for use as an internal stage of a
/// larger collective (e.g. the SMP-aware hierarchy), which charges one
/// fee for the whole call.
pub fn tuned_uncharged<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    select: impl Into<Select<'s>>,
) {
    let case = case_for(ctx, comm, send);
    let algo = select.into().enter(ctx, Fee::Stage, &case);
    dispatch(ctx, comm, send, recv, algo);
}

/// Shim for the frozen `benchmark/` package, which calls [`tuned`] under
/// a policy by this name; holds no logic of its own.
pub fn with_policy<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    policy: &SelectionPolicy,
) {
    tuned(ctx, comm, send, recv, policy);
}

/// The body of an in-flight nonblocking allgather (see [`istart`]).
pub struct IAllgatherBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    run: Rounds<T>,
}

impl<T: ShmElem> DriveOp for IAllgatherBody<'_, T> {
    const OP: &'static str = "iallgather";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        drive(&mut self.run, ctx, &self.comm, self.send, self.recv, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking allgather (`MPI_Iallgather`).
pub type IAllgather<'a, T> = IColl<IAllgatherBody<'a, T>>;

/// Start `algo` nonblocking: records the request start,
/// posts the first round's send, and returns a pollable request.
/// `istart(…) + wait` is bit-identical to [`dispatch`] in results,
/// virtual clock, and trace (modulo the `Req*` markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    algo: Algo,
) -> IAllgather<'a, T> {
    IColl::start(
        ctx,
        IAllgatherBody {
            comm: comm.clone(),
            send,
            run: for_algo(algo, comm, send, recv),
            recv,
        },
    )
}

/// Nonblocking form of [`tuned`]: same entry fee and selection,
/// returning a request instead of blocking.
pub fn ituned<'a, 's, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    select: impl Into<Select<'s>>,
) -> IAllgather<'a, T> {
    let case = case_for(ctx, comm, send);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, send, recv, algo)
}

/// Every allgather schedule, this module's then the hybrid ones `hmpi`
/// runs: when each applies and what it costs.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::AllgatherLocal,
        applicable: |c| c.comm_size <= 1,
        estimate: |e, c| e.copy(c.total_bytes),
    },
    AlgorithmSpec {
        algo: Algo::AllgatherRecursiveDoubling,
        applicable: |c| c.comm_size.is_power_of_two(),
        // Own-block copy, then log₂ p rounds of doubling block counts.
        estimate: |e, c| {
            e.copy(c.block_bytes()) + e.doubling_rounds(c.comm_size, c.block_bytes(), c.total_bytes)
        },
    },
    AlgorithmSpec {
        algo: Algo::AllgatherBruck,
        applicable: |_| true,
        // Initial copy into the rotated buffer, ⌈log₂ p⌉ doubling rounds,
        // and the full-buffer inverse rotation at the end.
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.doubling_rounds(c.comm_size, c.block_bytes(), c.total_bytes)
                + e.copy(c.total_bytes)
        },
    },
    AlgorithmSpec {
        algo: Algo::AllgatherRing,
        applicable: |_| true,
        // Own-block copy, then p−1 balanced neighbor exchanges.
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.uniform_rounds(c.comm_size.saturating_sub(1), c.block_bytes())
        },
    },
    // The hybrid schedules, which `hmpi` runs over a node-shared window.
    AlgorithmSpec {
        algo: Algo::AllgatherHySharedWindow,
        applicable: |c| c.windowed,
        // arrive + leader-only bridge ring over node aggregates + release.
        estimate: |e, c| {
            let nodes = c.num_nodes.max(1);
            let node_block = c.total_bytes / nodes;
            let sync = {
                let shm = simnet::Estimator::for_span(e.cost(), false);
                let ppn = c.comm_size.div_ceil(nodes);
                2.0 * shm.barrier(ppn)
            };
            if nodes == 1 {
                return sync / 2.0;
            }
            sync + e.uniform_rounds(nodes - 1, node_block)
        },
    },
    kleader_spec(Algo::AllgatherHyKleader),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, expected_allgather, run};

    fn check(
        nodes: usize,
        ppn: usize,
        count: usize,
        algo: impl Fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>) + Send + Sync,
    ) {
        let r = run(nodes, ppn, |ctx| {
            let world = ctx.world();
            let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(count * world.size());
            algo(ctx, &world, &send, &mut recv);
            recv.as_slice().unwrap().to_vec()
        });
        let expected = expected_allgather(nodes * ppn, count);
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(
                got, &expected,
                "rank {rank} disagrees ({nodes}x{ppn}, count {count})"
            );
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for (nodes, ppn) in [(1, 1), (1, 2), (1, 8), (2, 4), (4, 4)] {
            check(nodes, ppn, 3, recursive_doubling::<f64>);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_rejects_odd_sizes() {
        check(1, 3, 2, recursive_doubling::<f64>);
    }

    #[test]
    fn bruck_any_size() {
        for (nodes, ppn) in [(1, 1), (1, 3), (1, 5), (2, 3), (3, 3), (1, 8)] {
            check(nodes, ppn, 2, bruck::<f64>);
        }
    }

    #[test]
    fn ring_any_size() {
        for (nodes, ppn) in [(1, 1), (1, 2), (1, 5), (2, 3), (4, 2)] {
            check(nodes, ppn, 4, ring::<f64>);
        }
    }

    #[test]
    fn tuned_all_regimes() {
        let tuning = crate::Tuning::cray_mpich();
        // Power-of-two short -> recursive doubling path.
        check(2, 2, 2, |ctx, c, s, r| tuned(ctx, c, s, r, &tuning));
        // Non-power-of-two short -> Bruck path.
        check(1, 5, 2, |ctx, c, s, r| tuned(ctx, c, s, r, &tuning));
        // Long -> ring path (count chosen to exceed both thresholds).
        let big = crate::Tuning::cray_mpich().allgather_rd_threshold / 8 + 1024;
        check(2, 2, big / 4, |ctx, c, s, r| tuned(ctx, c, s, r, &tuning));
        check(1, 5, big / 5, |ctx, c, s, r| tuned(ctx, c, s, r, &tuning));
    }

    #[test]
    fn single_rank_tuned_is_local_copy() {
        check(1, 1, 6, |ctx, c, s, r| {
            tuned(ctx, c, s, r, &crate::Tuning::open_mpi())
        });
    }

    #[test]
    fn zero_count_allgather_is_legal() {
        check(2, 2, 0, |ctx, c, s, r| {
            tuned(ctx, c, s, r, &crate::Tuning::cray_mpich())
        });
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        use msim::Request;
        for algo in [Algo::AllgatherBruck, Algo::AllgatherRing] {
            check(2, 3, 3, |ctx, c, s, r| {
                let req = istart(ctx, c, s, r, algo);
                req.wait(ctx);
            });
        }
        check(2, 2, 3, |ctx, c, s, r| {
            ituned(ctx, c, s, r, &crate::Tuning::cray_mpich()).wait(ctx)
        });
    }

    #[test]
    fn recursive_doubling_beats_ring_for_small_messages() {
        let count = 4usize;
        let time = |algo: fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>)| {
            run(4, 4, move |ctx| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
                let mut recv = ctx.buf_zeroed(count * world.size());
                algo(ctx, &world, &send, &mut recv);
                ctx.now()
            })
            .makespan()
        };
        let t_rd = time(recursive_doubling::<f64>);
        let t_ring = time(ring::<f64>);
        assert!(
            t_rd < t_ring,
            "recursive doubling ({t_rd}) must beat ring ({t_ring}) for small messages"
        );
    }

    #[test]
    fn ring_beats_recursive_doubling_for_huge_messages() {
        // Recursive doubling sends n/2·log p per link but the last rounds
        // move half the total buffer; ring moves (p-1)/p of the buffer in
        // p-1 balanced steps. With per-step latency amortized away, ring's
        // bandwidth term is no worse; recursive doubling's repeated large
        // sends through the same rank serialize.
        let count = 1 << 14;
        let time = |algo: fn(&mut Ctx, &Communicator, &Buf<f64>, &mut Buf<f64>)| {
            run(8, 2, move |ctx| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
                let mut recv = ctx.buf_zeroed(count * world.size());
                algo(ctx, &world, &send, &mut recv);
                ctx.now()
            })
            .makespan()
        };
        let t_rd = time(recursive_doubling::<f64>);
        let t_ring = time(ring::<f64>);
        assert!(
            t_ring <= t_rd * 1.2,
            "ring ({t_ring}) should be competitive with recursive doubling ({t_rd}) at scale"
        );
    }
}
