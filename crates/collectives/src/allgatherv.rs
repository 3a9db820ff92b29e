//! Irregular allgather (`MPI_Allgatherv`).
//!
//! Rank `r` contributes `counts[r]` elements; every rank ends up with the
//! concatenation in rank order. Real MPI libraries implement the `v`
//! variant with weaker schedules than the regular one — it never gets the
//! recursive-doubling fast path, pays per-call bookkeeping for the
//! counts/displacements vectors, and its step costs are governed by the
//! *maximum* block size (Träff, the paper's reference \[29\]). That deficit
//! is exactly what the paper's Fig. 8 measures when the hybrid approach
//! degenerates to one process per node, so this module reproduces it
//! faithfully: Bruck for short totals, ring for long, plus the
//! [`crate::Tuning::v_overhead_per_rank_us`] bookkeeping charge in
//! [`tuned`].
//!
//! Both schedules are [`crate::rounds::Schedule`]s over the counts and
//! their displacements (computed once per call), run by the one
//! split-phase driver: the blocking entry points drive it with
//! `Drive::Block`, [`istart`]/[`ituned`] expose the runs as nonblocking
//! requests, and [`InPlaceSm`] is the drivable in-place form the hybrid
//! bridge exchange builds on. [`tuned`], [`ituned`] and
//! [`InPlaceSm::new`] each take one [`Select`]: a `&Tuning` for the
//! legacy thresholds or a `&SelectionPolicy` that logs its decision.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{kleader_spec, Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::displs_of;

/// `send = None`: in place.
fn check_args<T: ShmElem>(
    comm: &Communicator,
    send: Option<&Buf<T>>,
    counts: &[usize],
    recv: &Buf<T>,
) {
    assert_eq!(counts.len(), comm.size(), "one count per rank required");
    if let Some(send) = send {
        assert_eq!(
            send.len(),
            counts[comm.rank()],
            "send length must equal counts[rank]"
        );
    }
    assert_eq!(
        recv.len(),
        counts.iter().sum::<usize>(),
        "recv must hold the full result"
    );
}

/// The run of `algo` (see `allgather`'s `for_algo`).
fn for_algo<T: ShmElem>(algo: Algo, p: usize) -> Rounds<T> {
    let (schedule, tag) = match algo {
        Algo::AllgathervLocal => (Schedule::Local, tags::ALLGATHERV),
        Algo::AllgathervBruck => (Schedule::Bruck, tags::ALLGATHERV + 1),
        Algo::AllgathervRing => (Schedule::Ring, tags::ALLGATHERV),
        other => unreachable!("selection picks a flat allgatherv schedule, not {other}"),
    };
    Rounds::new(schedule, tag, p)
}

/// Run `algo` to completion, with a send buffer or (`send = None`) in
/// place.
fn run<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: Option<&Buf<T>>,
    counts: &[usize],
    recv: &mut Buf<T>,
    algo: Algo,
) {
    let mut run = for_algo(algo, comm.size());
    check_args(comm, send, counts, recv);
    let displs = displs_of(counts);
    let layout = Layout::Counts {
        counts,
        displs: &displs,
    };
    run_blocking(run.drive(ctx, comm, layout, (send, recv), Drive::Block));
}

/// Ring allgatherv: p−1 neighbor-exchange steps with per-block sizes.
pub fn ring<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
) {
    run(ctx, comm, Some(send), counts, recv, Algo::AllgathervRing);
}

/// Ring allgatherv with `MPI_IN_PLACE` semantics: each rank's own block
/// already sits at its displacement inside `recv` — exactly the situation
/// of the paper's hybrid allgather, where the send "buffer" is a region of
/// the node-shared window (Fig. 4, line 26).
pub fn ring_in_place<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    counts: &[usize],
    recv: &mut Buf<T>,
) {
    run(ctx, comm, None, counts, recv, Algo::AllgathervRing);
}

/// Bruck allgatherv: ⌈log₂ p⌉ rounds over a rotated temporary, then a
/// local rotation into rank order.
pub fn bruck<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
) {
    run(ctx, comm, Some(send), counts, recv, Algo::AllgathervBruck);
}

/// The [`CommCase`] one allgatherv call presents to a selection policy
/// (`total_bytes` = whole result, elements of type `T`).
pub fn case_for<T: ShmElem>(ctx: &Ctx, comm: &Communicator, counts: &[usize]) -> CommCase {
    CommCase::new(
        CollectiveOp::Allgatherv,
        comm.size(),
        comm.num_nodes(ctx.map()),
        counts.iter().sum::<usize>() * T::SIZE,
    )
}

/// Run `algo` (see `allgather::dispatch` for the schedule → kernel
/// rationale).
///
/// # Panics
/// Panics on a schedule this family does not run: another op's, or a
/// hybrid one.
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    algo: Algo,
) {
    run(ctx, comm, Some(send), counts, recv, algo);
}

/// Runtime selection for the irregular variant: under the legacy
/// thresholds, Bruck for short totals and ring for long. Charges the
/// per-call entry fee, then the per-member bookkeeping overhead real `v`
/// implementations pay for processing the count/displacement vectors.
pub fn tuned<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    select: impl Into<Select<'s>>,
) {
    let case = case_for::<T>(ctx, comm, counts);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, send, counts, recv, algo);
}

/// [`tuned`] without the entry fee (internal-stage use); the bookkeeping
/// overhead is still charged.
pub fn tuned_uncharged<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    select: impl Into<Select<'s>>,
) {
    let case = case_for::<T>(ctx, comm, counts);
    let algo = select.into().enter(ctx, Fee::Stage, &case);
    dispatch(ctx, comm, send, counts, recv, algo);
}

/// A drivable in-place allgatherv (`MPI_IN_PLACE`: each rank's own block
/// already sits at its displacement in `recv`) with the fees and
/// selection of [`tuned`] — the building block the hybrid (`hmpi`) bridge
/// exchange polls inside its own split-phase machine. Construction
/// charges the fees and picks; [`InPlaceSm::drive`] then advances the
/// chosen schedule.
#[derive(Debug)]
pub struct InPlaceSm<T: ShmElem> {
    /// The displacements of `counts`, and the picked schedule's run.
    run: Option<(Vec<usize>, Rounds<T>)>,
}

impl<T: ShmElem> InPlaceSm<T> {
    /// Charge the fees of [`tuned`] and pick, except on a one-member
    /// communicator: there the block is already in place, so nothing is
    /// picked and no decision is recorded.
    pub fn new<'s>(
        ctx: &mut Ctx,
        comm: &Communicator,
        counts: &[usize],
        select: impl Into<Select<'s>>,
    ) -> Self {
        let select = select.into();
        let case = case_for::<T>(ctx, comm, counts);
        select.charge(ctx, Fee::Call, &case);
        if comm.size() == 1 {
            return Self { run: None };
        }
        let run = for_algo(select.pick(ctx, &case), comm.size());
        Self {
            run: Some((displs_of(counts), run)),
        }
    }

    /// Advance the selected schedule; `Ok(true)` when complete.
    pub fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        counts: &[usize],
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let Some((displs, run)) = &mut self.run else {
            return Ok(true);
        };
        check_args(comm, None, counts, recv);
        let layout = Layout::Counts { counts, displs };
        run.drive(ctx, comm, layout, (None, recv), how)
    }
}

/// The body of an in-flight nonblocking allgatherv (see [`istart`]).
pub struct IAllgathervBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    counts: Vec<usize>,
    displs: Vec<usize>,
    recv: &'a mut Buf<T>,
    run: Rounds<T>,
}

impl<T: ShmElem> DriveOp for IAllgathervBody<'_, T> {
    const OP: &'static str = "iallgatherv";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        let layout = Layout::Counts {
            counts: &self.counts,
            displs: &self.displs,
        };
        self.run
            .drive(ctx, &self.comm, layout, (Some(self.send), self.recv), how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking allgatherv (`MPI_Iallgatherv`).
pub type IAllgatherv<'a, T> = IColl<IAllgathervBody<'a, T>>;

/// Start `algo` nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    algo: Algo,
) -> IAllgatherv<'a, T> {
    let run = for_algo(algo, comm.size());
    check_args(comm, Some(send), counts, recv);
    IColl::start(
        ctx,
        IAllgathervBody {
            comm: comm.clone(),
            send,
            counts: counts.to_vec(),
            displs: displs_of(counts),
            recv,
            run,
        },
    )
}

/// Nonblocking form of [`tuned`]: same fees and selection.
pub fn ituned<'a, 's, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    select: impl Into<Select<'s>>,
) -> IAllgatherv<'a, T> {
    let case = case_for::<T>(ctx, comm, counts);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, send, counts, recv, algo)
}

/// This module's schedules, then the k-leader one `hmpi` runs.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::AllgathervLocal,
        applicable: |c| c.comm_size <= 1,
        estimate: |e, c| e.copy(c.total_bytes),
    },
    AlgorithmSpec {
        algo: Algo::AllgathervBruck,
        applicable: |_| true,
        // Same growth pattern as the regular Bruck, priced at the mean
        // block size (the schedule's steps are bounded by the max block;
        // the mean preserves the ranking on realistic count vectors).
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.doubling_rounds(c.comm_size, c.block_bytes(), c.total_bytes)
                + e.copy(c.total_bytes)
        },
    },
    AlgorithmSpec {
        algo: Algo::AllgathervRing,
        applicable: |_| true,
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.uniform_rounds(c.comm_size.saturating_sub(1), c.block_bytes())
        },
    },
    kleader_spec(Algo::AllgathervHyKleader),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, expected_allgatherv, run};

    type Kernel = fn(&mut Ctx, &Communicator, &Buf<f64>, &[usize], &mut Buf<f64>);

    fn check(nodes: usize, ppn: usize, counts: Vec<usize>, algo: Kernel) {
        assert_eq!(counts.len(), nodes * ppn);
        let expected = expected_allgatherv(&counts);
        let counts2 = counts.clone();
        let r = run(nodes, ppn, move |ctx| {
            let world = ctx.world();
            let my_count = counts2[ctx.rank()];
            let send = ctx.buf_from_fn(my_count, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(counts2.iter().sum());
            algo(ctx, &world, &send, &counts2, &mut recv);
            recv.as_slice().unwrap().to_vec()
        });
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank} disagrees (counts {counts:?})");
        }
    }

    #[test]
    fn ring_uniform_counts() {
        check(2, 2, vec![3; 4], ring::<f64>);
        check(1, 5, vec![2; 5], ring::<f64>);
    }

    #[test]
    fn ring_irregular_counts() {
        check(2, 2, vec![1, 4, 0, 2], ring::<f64>);
        check(1, 3, vec![5, 1, 3], ring::<f64>);
    }

    #[test]
    fn bruck_uniform_counts() {
        check(2, 3, vec![2; 6], bruck::<f64>);
        check(1, 8, vec![1; 8], bruck::<f64>);
    }

    #[test]
    fn bruck_irregular_counts() {
        check(2, 2, vec![1, 4, 0, 2], bruck::<f64>);
        check(1, 5, vec![0, 3, 1, 2, 4], bruck::<f64>);
        check(1, 7, vec![2, 0, 0, 5, 1, 1, 3], bruck::<f64>);
    }

    #[test]
    fn tuned_small_and_large() {
        let t = crate::Tuning::cray_mpich();
        let small: Kernel = {
            fn f(ctx: &mut Ctx, c: &Communicator, s: &Buf<f64>, n: &[usize], r: &mut Buf<f64>) {
                tuned(ctx, c, s, n, r, &crate::Tuning::cray_mpich());
            }
            f
        };
        check(2, 2, vec![1, 2, 3, 4], small);
        // Large: exceed the bruck threshold so the ring path runs.
        let per = t.allgatherv_bruck_threshold / 8 / 4 + 16;
        check(2, 2, vec![per; 4], small);
        check(1, 1, vec![4], small);
    }

    #[test]
    fn all_empty_blocks() {
        check(2, 2, vec![0; 4], ring::<f64>);
        check(2, 2, vec![0; 4], bruck::<f64>);
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        let irregular: Kernel = {
            fn f(ctx: &mut Ctx, c: &Communicator, s: &Buf<f64>, n: &[usize], r: &mut Buf<f64>) {
                let req = istart(ctx, c, s, n, r, Algo::AllgathervRing);
                msim::Request::wait(req, ctx);
            }
            f
        };
        check(2, 2, vec![1, 4, 0, 2], irregular);
        let brucked: Kernel = {
            fn f(ctx: &mut Ctx, c: &Communicator, s: &Buf<f64>, n: &[usize], r: &mut Buf<f64>) {
                let req = ituned(ctx, c, s, n, r, &crate::Tuning::cray_mpich());
                msim::Request::wait(req, ctx);
            }
            f
        };
        check(1, 5, vec![0, 3, 1, 2, 4], brucked);
    }

    #[test]
    fn allgatherv_slower_than_allgather_for_small_uniform_input() {
        // The paper's Fig. 8 effect: with one rank per node and equal
        // counts, tuned Allgatherv must not beat tuned Allgather.
        let count = 8usize;
        let nodes = 8usize;
        let tv = run(nodes, 1, move |ctx| {
            let world = ctx.world();
            let counts = vec![count; world.size()];
            let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(count * world.size());
            tuned(
                ctx,
                &world,
                &send,
                &counts,
                &mut recv,
                &crate::Tuning::cray_mpich(),
            );
            ctx.now()
        })
        .makespan();
        let tg = run(nodes, 1, move |ctx| {
            let world = ctx.world();
            let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
            let mut recv = ctx.buf_zeroed(count * world.size());
            crate::allgather::tuned(ctx, &world, &send, &mut recv, &crate::Tuning::cray_mpich());
            ctx.now()
        })
        .makespan();
        assert!(tv > tg, "allgatherv ({tv}) should trail allgather ({tg})");
        assert!(
            tv < tg * 4.0,
            "but only slightly (paper: 'slightly inferior')"
        );
    }

    #[test]
    #[should_panic(expected = "one count per rank")]
    fn wrong_counts_length_panics() {
        run(1, 2, |ctx| {
            let world = ctx.world();
            let send = ctx.buf_zeroed::<f64>(1);
            let mut recv = ctx.buf_zeroed::<f64>(1);
            ring(ctx, &world, &send, &[1], &mut recv);
        });
    }
}
