//! Broadcast algorithms (`MPI_Bcast`).
//!
//! * [`binomial`] — binomial tree, best for short messages;
//! * [`scatter_allgather`] — van de Geijn: binomial scatter of segments
//!   followed by a ring allgather, best for long messages;
//! * [`tuned`] — MPICH/OpenMPI-style runtime selection.
//!
//! Both are [`crate::rounds::Schedule`]s from the root, over the message
//! cut into balanced blocks indexed relative to the root, run in place by
//! the one split-phase driver; [`istart`]/[`ituned`] expose the same runs
//! as nonblocking [`msim::Request`]s (`MPI_Ibcast`).

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{ceil_log2, kleader_spec, Algo, AlgorithmSpec, CollectiveOp, CommCase};
use crate::rounds::{Layout, Rounds, Schedule};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;

/// Binomial-tree broadcast: ⌈log₂ p⌉ rounds; in round `k` every rank that
/// already holds the data forwards it to the rank `2^k` away (in
/// root-relative space).
pub fn binomial<T: ShmElem>(ctx: &mut Ctx, comm: &Communicator, buf: &mut Buf<T>, root: usize) {
    dispatch(ctx, comm, buf, root, Algo::BcastBinomial);
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
    dispatch(ctx, comm, buf, root, Algo::BcastScatterAllgather);
}

/// A drivable bcast with the selection and entry fee of [`tuned`] —
/// construction charges the fee and picks the algorithm; `drive`
/// advances. Public so the hybrid layer (`hmpi`) can poll its bridge
/// broadcast inside its own split-phase machines.
#[derive(Debug)]
pub struct TunedSm<T: ShmElem> {
    algo: Algo,
    /// The run from the root, built at the first drive, which names it.
    run: Option<Rounds<T>>,
}

impl<T: ShmElem> TunedSm<T> {
    /// Fee-and-selection identical to [`tuned`].
    pub fn new<'s>(
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &Buf<T>,
        select: impl Into<Select<'s>>,
    ) -> Self {
        let case = case_for(ctx, comm, buf);
        Self::for_algo(select.into().enter(ctx, Fee::Call, &case))
    }

    fn for_algo(algo: Algo) -> Self {
        Self { algo, run: None }
    }

    /// Advance; `Ok(true)` once the broadcast completed.
    ///
    /// # Panics
    /// Panics on a `root` outside the communicator, and on a schedule this
    /// family does not run. Selection picks only an applicable schedule
    /// of the case's op, and no flat case is windowed, so no other
    /// variant reaches here.
    pub fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        buf: &mut Buf<T>,
        root: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let (p, algo) = (comm.size(), self.algo);
        let run = self.run.get_or_insert_with(|| {
            assert!(root < p, "bcast root {root} out of range");
            let (schedule, tag) = match algo {
                Algo::BcastBinomial => (Schedule::Binomial { root }, tags::BCAST),
                Algo::BcastScatterAllgather => {
                    (Schedule::ScatterAllgather { root }, tags::BCAST + 1)
                }
                other => unreachable!("selection picks a flat bcast schedule, not {other}"),
            };
            Rounds::new(schedule, tag, p)
        });
        let layout = Layout::Balanced {
            total: buf.len(),
            parts: p,
        };
        run.drive(ctx, comm, layout, (None, buf), how)
    }
}

/// Runtime algorithm selection: under the legacy thresholds (MPICH-style),
/// binomial for short messages or small communicators, scatter+allgather
/// for long messages. Charges the per-call collective entry fee.
pub fn tuned<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    select: impl Into<Select<'s>>,
) {
    let case = case_for(ctx, comm, buf);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    dispatch(ctx, comm, buf, root, algo);
}

/// [`tuned`] without the entry fee (internal-stage use).
pub fn tuned_uncharged<'s, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    select: impl Into<Select<'s>>,
) {
    let case = case_for(ctx, comm, buf);
    let algo = select.into().enter(ctx, Fee::Stage, &case);
    dispatch(ctx, comm, buf, root, algo);
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

/// Run `algo`.
///
/// # Panics
/// Panics on a schedule this family does not run: another op's, or a
/// hybrid one.
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &mut Buf<T>,
    root: usize,
    algo: Algo,
) {
    run_blocking(TunedSm::for_algo(algo).drive(ctx, comm, buf, root, Drive::Block));
}

/// The body of an in-flight nonblocking broadcast (see [`istart`]).
pub struct IBcastBody<'a, T: ShmElem> {
    comm: Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    sm: TunedSm<T>,
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

/// Start `algo` nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    algo: Algo,
) -> IBcast<'a, T> {
    IColl::start(
        ctx,
        IBcastBody {
            comm: comm.clone(),
            buf,
            root,
            sm: TunedSm::for_algo(algo),
        },
    )
}

/// Nonblocking form of [`tuned`].
pub fn ituned<'a, 's, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    buf: &'a mut Buf<T>,
    root: usize,
    select: impl Into<Select<'s>>,
) -> IBcast<'a, T> {
    let case = case_for(ctx, comm, buf);
    let algo = select.into().enter(ctx, Fee::Call, &case);
    istart(ctx, comm, buf, root, algo)
}

/// This module's schedules, then the k-leader one `hmpi` runs.
pub(crate) const SPECS: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::BcastBinomial,
        applicable: |_| true,
        // ⌈log₂ p⌉ rounds, each forwarding the full message.
        estimate: |e, c| e.uniform_rounds(ceil_log2(c.comm_size), c.total_bytes),
    },
    AlgorithmSpec {
        algo: Algo::BcastScatterAllgather,
        applicable: |c| c.comm_size > 1,
        // Binomial scatter of halving segments + ring allgather of the
        // p segments (van de Geijn).
        estimate: |e, c| {
            let p = c.comm_size;
            e.halving_rounds(p, c.total_bytes)
                + e.uniform_rounds(p.saturating_sub(1), c.total_bytes / p.max(1))
        },
    },
    kleader_spec(Algo::BcastHyKleaderSegmented),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, run};
    use crate::Tuning;

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
    #[should_panic(expected = "out of range")]
    fn bad_root_panics() {
        check_bcast(1, 2, 4, 5, binomial::<f64>);
    }

    #[test]
    fn nonblocking_istart_wait_matches_blocking() {
        for algo in [Algo::BcastBinomial, Algo::BcastScatterAllgather] {
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
