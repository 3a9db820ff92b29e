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
//! Every schedule is a split-phase state machine (see [`crate::split`]);
//! the blocking functions are thin `Drive::Block` drivers over the
//! machines, and [`istart`]/[`ituned`] expose the same machines as
//! nonblocking [`msim::Request`]s (`MPI_Iallgather`), selected the same
//! way.
//!
//! Every rank contributes `count` elements; the result (p·count elements,
//! blocks in rank order) lands in `recv` on every rank.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select, SelectionPolicy};
use crate::registry::{AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;

fn place_own_block<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
) {
    let count = send.len();
    recv.copy_from(comm.rank() * count, send, 0, count);
    ctx.charge_copy(count * T::SIZE);
}

fn check_args<T: ShmElem>(comm: &Communicator, send: &Buf<T>, recv: &Buf<T>) {
    assert_eq!(
        recv.len(),
        send.len() * comm.size(),
        "recv must hold comm.size() blocks of send.len() elements"
    );
}

/// Recursive-doubling state machine: in round k, exchange the 2^k blocks
/// accumulated so far with the partner `rank XOR 2^k`.
#[derive(Debug)]
struct RdSm {
    placed: bool,
    mask: usize,
    sent: bool,
}

impl RdSm {
    fn new() -> Self {
        Self {
            placed: false,
            mask: 1,
            sent: false,
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let count = send.len();
        if !self.placed {
            assert!(
                p.is_power_of_two(),
                "recursive doubling requires a power-of-two communicator"
            );
            check_args(comm, send, recv);
            place_own_block(ctx, comm, send, recv);
            self.placed = true;
        }
        while self.mask < p {
            let partner = me ^ self.mask;
            let my_block_start = me & !(self.mask - 1);
            let partner_block_start = partner & !(self.mask - 1);
            if !self.sent {
                ctx.send_region(
                    comm,
                    partner,
                    tags::ALLGATHER,
                    recv,
                    my_block_start * count,
                    self.mask * count,
                );
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, partner, tags::ALLGATHER, how)? else {
                return Ok(false);
            };
            recv.write_payload(partner_block_start * count, &payload);
            self.mask <<= 1;
            self.sent = false;
        }
        Ok(true)
    }
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
    run_blocking(RdSm::new().drive(ctx, comm, send, recv, Drive::Block));
}

/// Bruck state machine: ⌈log₂ p⌉ rounds over a rotated temporary buffer,
/// then a local inverse rotation into rank order.
#[derive(Debug)]
struct BruckSm<T: ShmElem> {
    tmp: Option<Buf<T>>,
    filled: usize,
    dist: usize,
    sent: bool,
}

impl<T: ShmElem> BruckSm<T> {
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
        send: &Buf<T>,
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let count = send.len();
        if self.tmp.is_none() {
            check_args(comm, send, recv);
            // tmp[j] holds block (me + j) mod p.
            let mut tmp = ctx.buf_zeroed::<T>(p * count);
            tmp.copy_from(0, send, 0, count);
            ctx.charge_copy(count * T::SIZE);
            self.tmp = Some(tmp);
        }
        let tmp = self.tmp.as_mut().unwrap();
        while self.filled < p {
            let blocks = self.dist.min(p - self.filled);
            let dst = (me + p - self.dist) % p;
            let src = (me + self.dist) % p;
            if !self.sent {
                ctx.send_region(comm, dst, tags::ALLGATHER + 1, tmp, 0, blocks * count);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, src, tags::ALLGATHER + 1, how)? else {
                return Ok(false);
            };
            tmp.write_payload(self.filled * count, &payload);
            self.filled += blocks;
            self.dist <<= 1;
            self.sent = false;
        }

        // Local inverse rotation: recv[(me + j) mod p] = tmp[j].
        for j in 0..p {
            let block = (me + j) % p;
            recv.copy_from(block * count, tmp, j * count, count);
        }
        ctx.charge_copy(p * count * T::SIZE);
        Ok(true)
    }
}

/// Bruck's algorithm: ⌈log₂ p⌉ rounds over a rotated temporary buffer,
/// followed by a local rotation into rank order (the rotation is the
/// overhead that keeps Bruck a short-message algorithm).
pub fn bruck<T: ShmElem>(ctx: &mut Ctx, comm: &Communicator, send: &Buf<T>, recv: &mut Buf<T>) {
    run_blocking(BruckSm::new().drive(ctx, comm, send, recv, Drive::Block));
}

/// Ring state machine: p−1 neighbor-exchange steps, each forwarding the
/// block received in the previous step.
#[derive(Debug)]
struct RingSm {
    placed: bool,
    step: usize,
    sent: bool,
}

impl RingSm {
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
        send: &Buf<T>,
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        let count = send.len();
        if !self.placed {
            check_args(comm, send, recv);
            place_own_block(ctx, comm, send, recv);
            self.placed = true;
        }
        if p == 1 {
            return Ok(true);
        }
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
                    tags::ALLGATHER + 2,
                    recv,
                    send_block * count,
                    count,
                );
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, left, tags::ALLGATHER + 2, how)? else {
                return Ok(false);
            };
            recv.write_payload(recv_block * count, &payload);
            self.step += 1;
            self.sent = false;
        }
        Ok(true)
    }
}

/// Ring: p−1 neighbor-exchange steps; each step forwards the block
/// received in the previous step. Bandwidth-optimal for long messages.
pub fn ring<T: ShmElem>(ctx: &mut Ctx, comm: &Communicator, send: &Buf<T>, recv: &mut Buf<T>) {
    run_blocking(RingSm::new().drive(ctx, comm, send, recv, Drive::Block));
}

/// One allgather schedule as a split-phase machine, selected by name.
#[derive(Debug)]
enum AgSm<T: ShmElem> {
    Local { done: bool },
    Rd(RdSm),
    Bruck(BruckSm<T>),
    Ring(RingSm),
}

impl<T: ShmElem> AgSm<T> {
    /// # Panics
    /// Panics on an unknown algorithm name.
    fn for_algo(algo: &str) -> Self {
        match algo {
            "allgather.local" => AgSm::Local { done: false },
            "allgather.recursive_doubling" => AgSm::Rd(RdSm::new()),
            "allgather.bruck" => AgSm::Bruck(BruckSm::new()),
            "allgather.ring" => AgSm::Ring(RingSm::new()),
            other => panic!("allgather: unknown algorithm {other:?}"),
        }
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            AgSm::Local { done } => {
                if !*done {
                    check_args(comm, send, recv);
                    place_own_block(ctx, comm, send, recv);
                    *done = true;
                }
                Ok(true)
            }
            AgSm::Rd(sm) => sm.drive(ctx, comm, send, recv, how),
            AgSm::Bruck(sm) => sm.drive(ctx, comm, send, recv, how),
            AgSm::Ring(sm) => sm.drive(ctx, comm, send, recv, how),
        }
    }
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

/// Run the named registered algorithm. The registry holds selection
/// metadata only (collective kernels are generic over the element type),
/// so name → kernel happens here.
///
/// # Panics
/// Panics on an unknown name or an inapplicable one (e.g. recursive
/// doubling on a non-power-of-two communicator).
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    algo: &str,
) {
    run_blocking(AgSm::for_algo(algo).drive(ctx, comm, send, recv, Drive::Block));
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
    sm: AgSm<T>,
}

impl<T: ShmElem> DriveOp for IAllgatherBody<'_, T> {
    const OP: &'static str = "iallgather";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm.drive(ctx, &self.comm, self.send, self.recv, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking allgather (`MPI_Iallgather`).
pub type IAllgather<'a, T> = IColl<IAllgatherBody<'a, T>>;

/// Start the named algorithm nonblocking: records the request start,
/// posts the first round's send, and returns a pollable request.
/// `istart(…) + wait` is bit-identical to [`dispatch`] in results,
/// virtual clock, and trace (modulo the `Req*` markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    algo: &str,
) -> IAllgather<'a, T> {
    IColl::start(
        ctx,
        IAllgatherBody {
            comm: comm.clone(),
            send,
            recv,
            sm: AgSm::for_algo(algo),
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

/// Register this module's algorithms (name, applicability, cost estimate).
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "allgather.local",
        op: CollectiveOp::Allgather,
        applicable: |c| c.comm_size <= 1,
        estimate: |e, c| e.copy(c.total_bytes),
    });
    reg.register(AlgorithmSpec {
        name: "allgather.recursive_doubling",
        op: CollectiveOp::Allgather,
        applicable: |c| c.comm_size.is_power_of_two(),
        // Own-block copy, then log₂ p rounds of doubling block counts.
        estimate: |e, c| {
            e.copy(c.block_bytes()) + e.doubling_rounds(c.comm_size, c.block_bytes(), c.total_bytes)
        },
    });
    reg.register(AlgorithmSpec {
        name: "allgather.bruck",
        op: CollectiveOp::Allgather,
        applicable: |_| true,
        // Initial copy into the rotated buffer, ⌈log₂ p⌉ doubling rounds,
        // and the full-buffer inverse rotation at the end.
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.doubling_rounds(c.comm_size, c.block_bytes(), c.total_bytes)
                + e.copy(c.total_bytes)
        },
    });
    reg.register(AlgorithmSpec {
        name: "allgather.ring",
        op: CollectiveOp::Allgather,
        applicable: |_| true,
        // Own-block copy, then p−1 balanced neighbor exchanges.
        estimate: |e, c| {
            e.copy(c.block_bytes())
                + e.uniform_rounds(c.comm_size.saturating_sub(1), c.block_bytes())
        },
    });
}

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
        for algo in ["allgather.bruck", "allgather.ring"] {
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
