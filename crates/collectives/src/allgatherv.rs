//! Irregular allgather (`MPI_Allgatherv`).
//!
//! Rank `r` contributes `counts[r]` elements; every rank ends up with the
//! concatenation in rank order. Real MPI libraries implement the `v`
//! variant with weaker schedules than the regular one — it never gets the
//! recursive-doubling fast path, pays per-call bookkeeping for the
//! counts/displacements vectors, and its step costs are governed by the
//! *maximum* block size (Träff, the paper's reference [29]). That deficit
//! is exactly what the paper's Fig. 8 measures when the hybrid approach
//! degenerates to one process per node, so this module reproduces it
//! faithfully: Bruck for short totals, ring for long, plus the
//! [`crate::Tuning::v_overhead_per_rank_us`] bookkeeping charge in
//! [`tuned`].
//!
//! Both schedules are split-phase state machines (see [`crate::split`]);
//! the blocking entry points are thin `Drive::Block` drivers,
//! [`istart`]/[`ituned`]/[`iwith_policy`] expose the machines as
//! nonblocking requests, and [`InPlaceSm`] is the drivable in-place form
//! the hybrid bridge exchange builds on.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{legacy_choice, SelectionPolicy};
use crate::registry::{AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::selection::Tuning;
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;
use crate::util::{displs_of, VectorLayout};

fn check_args<T: ShmElem>(comm: &Communicator, send: &Buf<T>, counts: &[usize], recv: &Buf<T>) {
    assert_eq!(counts.len(), comm.size(), "one count per rank required");
    assert_eq!(
        send.len(),
        counts[comm.rank()],
        "send length must equal counts[rank]"
    );
    assert_eq!(
        recv.len(),
        counts.iter().sum::<usize>(),
        "recv must hold the full result"
    );
}

fn check_in_place_args<T: ShmElem>(comm: &Communicator, counts: &[usize], recv: &Buf<T>) {
    assert_eq!(counts.len(), comm.size(), "one count per rank required");
    assert_eq!(
        recv.len(),
        counts.iter().sum::<usize>(),
        "recv must hold the full result"
    );
}

/// Ring allgatherv state machine: p−1 neighbor-exchange steps with
/// per-block sizes. With `send = None` it runs in place (own block
/// already at its displacement in `recv`).
#[derive(Debug)]
struct RingvSm {
    placed: bool,
    step: usize,
    sent: bool,
}

impl RingvSm {
    fn new() -> Self {
        Self {
            placed: false,
            step: 0,
            sent: false,
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: Option<&Buf<T>>,
        counts: &[usize],
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        if !self.placed {
            match send {
                Some(s) => {
                    check_args(comm, s, counts, recv);
                    let displs = displs_of(counts);
                    recv.copy_from(displs[me], s, 0, counts[me]);
                    ctx.charge_copy(counts[me] * T::SIZE);
                }
                None => check_in_place_args(comm, counts, recv),
            }
            self.placed = true;
        }
        if p == 1 {
            return Ok(true);
        }
        let displs = displs_of(counts);
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        while self.step < p - 1 {
            let s = self.step;
            let send_block = (me + p - s) % p;
            let recv_block = (me + p - s - 1) % p;
            if !self.sent {
                ctx.send_region(
                    comm,
                    right,
                    tags::ALLGATHERV,
                    recv,
                    displs[send_block],
                    counts[send_block],
                );
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, left, tags::ALLGATHERV, how)? else {
                return Ok(false);
            };
            recv.write_payload(displs[recv_block], &payload);
            self.step += 1;
            self.sent = false;
        }
        Ok(true)
    }
}

/// Ring allgatherv: p−1 neighbor-exchange steps with per-block sizes.
pub fn ring<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
) {
    run_blocking(RingvSm::new().drive(ctx, comm, Some(send), counts, recv, Drive::Block));
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
    run_blocking(RingvSm::new().drive::<T>(ctx, comm, None, counts, recv, Drive::Block));
}

/// Bruck allgatherv state machine: ⌈log₂ p⌉ rounds over a rotated
/// temporary, then a local rotation into rank order. With `send = None`
/// it runs in place.
#[derive(Debug)]
struct BruckvSm<T: ShmElem> {
    tmp: Option<Buf<T>>,
    filled: usize,
    dist: usize,
    sent: bool,
}

impl<T: ShmElem> BruckvSm<T> {
    fn new() -> Self {
        Self {
            tmp: None,
            filled: 1,
            dist: 1,
            sent: false,
        }
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: Option<&Buf<T>>,
        counts: &[usize],
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let VectorLayout { displs, total, .. } = VectorLayout::new(counts.to_vec());

        // Rotated layout: slot j holds block (me + j) mod p.
        let rot_counts: Vec<usize> = (0..p).map(|j| counts[(me + j) % p]).collect();
        let rot_displs = displs_of(&rot_counts);

        if self.tmp.is_none() {
            match send {
                Some(s) => check_args(comm, s, counts, recv),
                None => check_in_place_args(comm, counts, recv),
            }
            let mut tmp = ctx.buf_zeroed::<T>(total);
            match send {
                Some(s) => tmp.copy_from(0, s, 0, counts[me]),
                None => tmp.copy_from(0, recv, displs[me], counts[me]),
            }
            ctx.charge_copy(counts[me] * T::SIZE);
            self.tmp = Some(tmp);
        }
        let tmp = self.tmp.as_mut().unwrap();

        while self.filled < p {
            let blocks = self.dist.min(p - self.filled);
            let dst = (me + p - self.dist) % p;
            let src = (me + self.dist) % p;
            if !self.sent {
                let send_len = rot_displs[blocks - 1] + rot_counts[blocks - 1];
                ctx.send_region(comm, dst, tags::ALLGATHERV + 1, tmp, 0, send_len);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, src, tags::ALLGATHERV + 1, how)? else {
                return Ok(false);
            };
            tmp.write_payload(rot_displs[self.filled], &payload);
            self.filled += blocks;
            self.dist <<= 1;
            self.sent = false;
        }

        // Un-rotate into rank order.
        #[allow(clippy::needless_range_loop)] // offset arithmetic over two displacement tables
        for j in 0..p {
            let block = (me + j) % p;
            recv.copy_from(displs[block], tmp, rot_displs[j], counts[block]);
        }
        ctx.charge_copy(total * T::SIZE);
        Ok(true)
    }
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
    run_blocking(BruckvSm::new().drive(ctx, comm, Some(send), counts, recv, Drive::Block));
}

/// Bruck allgatherv with `MPI_IN_PLACE` semantics (own block already at
/// its displacement in `recv`).
pub fn bruck_in_place<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    counts: &[usize],
    recv: &mut Buf<T>,
) {
    run_blocking(BruckvSm::new().drive(ctx, comm, None, counts, recv, Drive::Block));
}

/// One allgatherv schedule as a split-phase machine, selected by name.
/// `Local` with a send buffer copies it to the front of `recv`; in place
/// it is a no-op (the block already sits at its displacement).
#[derive(Debug)]
enum AgvSm<T: ShmElem> {
    Local { done: bool },
    Bruck(BruckvSm<T>),
    Ring(RingvSm),
}

impl<T: ShmElem> AgvSm<T> {
    /// # Panics
    /// Panics on an unknown algorithm name.
    fn for_algo(algo: &str) -> Self {
        match algo {
            "allgatherv.local" => AgvSm::Local { done: false },
            "allgatherv.bruck" => AgvSm::Bruck(BruckvSm::new()),
            "allgatherv.ring" => AgvSm::Ring(RingvSm::new()),
            other => panic!("allgatherv: unknown algorithm {other:?}"),
        }
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: Option<&Buf<T>>,
        counts: &[usize],
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            AgvSm::Local { done } => {
                if !*done {
                    if let Some(s) = send {
                        check_args(comm, s, counts, recv);
                        recv.copy_from(0, s, 0, counts[0]);
                        ctx.charge_copy(counts[0] * T::SIZE);
                    }
                    *done = true;
                }
                Ok(true)
            }
            AgvSm::Bruck(sm) => sm.drive(ctx, comm, send, counts, recv, how),
            AgvSm::Ring(sm) => sm.drive(ctx, comm, send, counts, recv, how),
        }
    }
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

/// Run the named registered algorithm (see `allgather::dispatch` for the
/// name → kernel rationale).
///
/// # Panics
/// Panics on an unknown name.
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    algo: &str,
) {
    run_blocking(AgvSm::for_algo(algo).drive(ctx, comm, Some(send), counts, recv, Drive::Block));
}

/// Run the named registered algorithm with `MPI_IN_PLACE` semantics (own
/// block already at its displacement in `recv`).
///
/// # Panics
/// Panics on an unknown name.
pub fn dispatch_in_place<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    counts: &[usize],
    recv: &mut Buf<T>,
    algo: &str,
) {
    run_blocking(AgvSm::for_algo(algo).drive(ctx, comm, None, counts, recv, Drive::Block));
}

/// Runtime selection for the irregular variant: Bruck for short totals,
/// ring for long, plus the per-member bookkeeping overhead real `v`
/// implementations pay for processing the count/displacement vectors.
pub fn tuned<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    tuning: &Tuning,
) {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    tuned_uncharged(ctx, comm, send, counts, recv, tuning);
}

/// The selection logic without the entry fee (internal-stage use).
pub fn tuned_uncharged<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    tuning: &Tuning,
) {
    ctx.charge_time(tuning.v_overhead_per_rank_us * comm.size() as f64);
    let case = case_for::<T>(ctx, comm, counts);
    dispatch(ctx, comm, send, counts, recv, legacy_choice(tuning, &case));
}

/// Policy-driven selection. Charges the entry fee and the `v`-variant
/// bookkeeping overhead, in that order (same as [`tuned`]).
pub fn with_policy<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    policy: &SelectionPolicy,
) {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    ctx.charge_time(policy.tuning().v_overhead_per_rank_us * comm.size() as f64);
    let case = case_for::<T>(ctx, comm, counts);
    let algo = policy.choose(ctx, &case);
    dispatch(ctx, comm, send, counts, recv, algo);
}

/// In-place runtime selection (the paper's hybrid bridge exchange path).
/// Charges the per-call collective entry fee.
pub fn tuned_in_place<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    counts: &[usize],
    recv: &mut Buf<T>,
    tuning: &Tuning,
) {
    let mut sm = InPlaceSm::tuned(ctx, comm, counts, tuning);
    run_blocking(sm.drive(ctx, comm, counts, recv, Drive::Block));
}

/// Policy-driven in-place selection, fee-identical to [`tuned_in_place`].
pub fn with_policy_in_place<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    counts: &[usize],
    recv: &mut Buf<T>,
    policy: &SelectionPolicy,
) {
    let mut sm = InPlaceSm::with_policy(ctx, comm, counts, policy);
    run_blocking(sm.drive(ctx, comm, counts, recv, Drive::Block));
}

/// A drivable in-place allgatherv with the full entry-fee and selection
/// behavior of [`tuned_in_place`]/[`with_policy_in_place`] — the building
/// block the hybrid (`hmpi`) bridge exchange polls inside its own
/// split-phase machine. Construction charges the fees and records the
/// decision; [`InPlaceSm::drive`] then advances the chosen schedule.
#[derive(Debug)]
pub struct InPlaceSm<T: ShmElem> {
    sm: Option<AgvSm<T>>,
}

impl<T: ShmElem> InPlaceSm<T> {
    /// Legacy-threshold selection (mirror of [`tuned_in_place`]).
    pub fn tuned(ctx: &mut Ctx, comm: &Communicator, counts: &[usize], tuning: &Tuning) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        ctx.charge_time(tuning.v_overhead_per_rank_us * comm.size() as f64);
        if comm.size() == 1 {
            return Self { sm: None };
        }
        let case = case_for::<T>(ctx, comm, counts);
        Self {
            sm: Some(AgvSm::for_algo(legacy_choice(tuning, &case))),
        }
    }

    /// Policy-driven selection (mirror of [`with_policy_in_place`]).
    pub fn with_policy(
        ctx: &mut Ctx,
        comm: &Communicator,
        counts: &[usize],
        policy: &SelectionPolicy,
    ) -> Self {
        let fee = ctx.cost().coll_entry_us;
        ctx.charge_time(fee);
        ctx.charge_time(policy.tuning().v_overhead_per_rank_us * comm.size() as f64);
        if comm.size() == 1 {
            return Self { sm: None };
        }
        let case = case_for::<T>(ctx, comm, counts);
        let algo = policy.choose(ctx, &case);
        Self {
            sm: Some(AgvSm::for_algo(algo)),
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
        match &mut self.sm {
            None => Ok(true),
            Some(sm) => sm.drive(ctx, comm, None, counts, recv, how),
        }
    }
}

/// The body of an in-flight nonblocking allgatherv (see [`istart`]).
pub struct IAllgathervBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    counts: Vec<usize>,
    recv: &'a mut Buf<T>,
    sm: AgvSm<T>,
}

impl<T: ShmElem> DriveOp for IAllgathervBody<'_, T> {
    const OP: &'static str = "iallgatherv";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm.drive(
            ctx,
            &self.comm,
            Some(self.send),
            &self.counts,
            self.recv,
            how,
        )
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking allgatherv (`MPI_Iallgatherv`).
pub type IAllgatherv<'a, T> = IColl<IAllgathervBody<'a, T>>;

/// Start the named algorithm nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    algo: &str,
) -> IAllgatherv<'a, T> {
    IColl::start(
        ctx,
        IAllgathervBody {
            comm: comm.clone(),
            send,
            counts: counts.to_vec(),
            recv,
            sm: AgvSm::for_algo(algo),
        },
    )
}

/// Nonblocking form of [`tuned`]: same fees and selection.
pub fn ituned<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    tuning: &Tuning,
) -> IAllgatherv<'a, T> {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    ctx.charge_time(tuning.v_overhead_per_rank_us * comm.size() as f64);
    let case = case_for::<T>(ctx, comm, counts);
    let algo = legacy_choice(tuning, &case);
    istart(ctx, comm, send, counts, recv, algo)
}

/// Nonblocking form of [`with_policy`]: same fees, decision recorded.
pub fn iwith_policy<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    counts: &[usize],
    recv: &'a mut Buf<T>,
    policy: &SelectionPolicy,
) -> IAllgatherv<'a, T> {
    let fee = ctx.cost().coll_entry_us;
    ctx.charge_time(fee);
    ctx.charge_time(policy.tuning().v_overhead_per_rank_us * comm.size() as f64);
    let case = case_for::<T>(ctx, comm, counts);
    let algo = policy.choose(ctx, &case).to_string();
    istart(ctx, comm, send, counts, recv, &algo)
}

/// Register this module's algorithms.
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "allgatherv.local",
        op: CollectiveOp::Allgatherv,
        applicable: |c| c.comm_size <= 1,
        estimate: |e, c| e.copy(c.total_bytes),
    });
    reg.register(AlgorithmSpec {
        name: "allgatherv.bruck",
        op: CollectiveOp::Allgatherv,
        applicable: |_| true,
        // Same growth pattern as the regular Bruck, priced at the mean
        // block size (the schedule's steps are bounded by the max block;
        // the mean preserves the ranking on realistic count vectors).
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.doubling_rounds(c.comm_size, c.block_bytes(), c.total_bytes)
                + e.copy(c.total_bytes)
        },
    });
    reg.register(AlgorithmSpec {
        name: "allgatherv.ring",
        op: CollectiveOp::Allgatherv,
        applicable: |_| true,
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.uniform_rounds(c.comm_size.saturating_sub(1), c.block_bytes())
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, expected_allgatherv, run};

    type Algo = fn(&mut Ctx, &Communicator, &Buf<f64>, &[usize], &mut Buf<f64>);

    fn check(nodes: usize, ppn: usize, counts: Vec<usize>, algo: Algo) {
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
        let small: Algo = {
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
        let irregular: Algo = {
            fn f(ctx: &mut Ctx, c: &Communicator, s: &Buf<f64>, n: &[usize], r: &mut Buf<f64>) {
                let req = istart(ctx, c, s, n, r, "allgatherv.ring");
                msim::Request::wait(req, ctx);
            }
            f
        };
        check(2, 2, vec![1, 4, 0, 2], irregular);
        let brucked: Algo = {
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
