//! All-to-all personalized exchange (`MPI_Alltoall`).
//!
//! [`pairwise`] is the long-message pairwise exchange (p−1 steps, XOR
//! partner order on power-of-two sizes, shifted otherwise); [`bruck`] is
//! the log-round short-message algorithm. Both are split-phase state
//! machines (see [`crate::split`]); the blocking functions are thin
//! `Drive::Block` drivers and [`istart`]/[`ituned`] expose the machines
//! as nonblocking requests (`MPI_Ialltoall`). [`tuned`] and [`ituned`]
//! take one [`Select`]: a `&Tuning` for the legacy thresholds or a
//! `&SelectionPolicy` that logs its decision.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{ceil_log2, AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::split::{run_blocking, DriveOp, IColl};
use crate::tags;

fn check_args<T: ShmElem>(comm: &Communicator, send: &Buf<T>, recv: &Buf<T>, count: usize) {
    let p = comm.size();
    assert_eq!(send.len(), p * count, "send must hold p blocks");
    assert_eq!(recv.len(), p * count, "recv must hold p blocks");
}

/// Pairwise-exchange state machine: p−1 rounds; in round k exchange
/// directly with the XOR partner (power-of-two) or the rank k away.
#[derive(Debug)]
struct PairwiseSm {
    placed: bool,
    k: usize,
    sent: bool,
}

impl PairwiseSm {
    fn new() -> Self {
        Self {
            placed: false,
            k: 1,
            sent: false,
        }
    }

    fn drive<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        count: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        if !self.placed {
            check_args(comm, send, recv, count);
            recv.copy_from(me * count, send, me * count, count);
            ctx.charge_copy(count * T::SIZE);
            self.placed = true;
        }
        while self.k < p {
            let k = self.k;
            let (dst, src) = if p.is_power_of_two() {
                let partner = me ^ k;
                (partner, partner)
            } else {
                ((me + k) % p, (me + p - k) % p)
            };
            if !self.sent {
                ctx.send_region(comm, dst, tags::ALLTOALL, send, dst * count, count);
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, src, tags::ALLTOALL, how)? else {
                return Ok(false);
            };
            recv.write_payload(src * count, &payload);
            self.k += 1;
            self.sent = false;
        }
        Ok(true)
    }
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
    run_blocking(PairwiseSm::new().drive(ctx, comm, send, recv, count, Drive::Block));
}

/// Bruck all-to-all state machine: local rotation, ⌈log₂ p⌉ pack/ship/
/// unpack rounds, inverse rotation.
#[derive(Debug)]
struct BruckSm<T: ShmElem> {
    tmp: Option<Buf<T>>,
    pack: Option<Buf<T>>,
    k: usize,
    sent: bool,
}

impl<T: ShmElem> BruckSm<T> {
    fn new() -> Self {
        Self {
            tmp: None,
            pack: None,
            k: 1,
            sent: false,
        }
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        count: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        if self.tmp.is_none() {
            check_args(comm, send, recv, count);
            // Phase 1: local rotation — tmp[j] = block for rank (me + j) mod p.
            let mut tmp = ctx.buf_zeroed::<T>(p * count);
            for j in 0..p {
                tmp.copy_from(j * count, send, ((me + j) % p) * count, count);
            }
            ctx.charge_copy(p * count * T::SIZE);
            self.tmp = Some(tmp);
            self.pack = Some(ctx.buf_zeroed::<T>(p * count));
        }
        let tmp = self.tmp.as_mut().unwrap();
        let pack = self.pack.as_mut().unwrap();

        // Phase 2: log rounds. In round k, send every block whose index has
        // bit k set to rank me + 2^k (they travel toward their destination).
        while self.k < p {
            let k = self.k;
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            let indices: Vec<usize> = (0..p).filter(|j| j & k != 0).collect();
            if !self.sent {
                for (slot, &j) in indices.iter().enumerate() {
                    pack.copy_from(slot * count, tmp, j * count, count);
                }
                ctx.charge_copy(indices.len() * count * T::SIZE);
                ctx.send_region(
                    comm,
                    dst,
                    tags::ALLTOALL + 1,
                    pack,
                    0,
                    indices.len() * count,
                );
                self.sent = true;
            }
            let Some(payload) = ctx.step_recv(comm, src, tags::ALLTOALL + 1, how)? else {
                return Ok(false);
            };
            pack.write_payload(0, &payload);
            for (slot, &j) in indices.iter().enumerate() {
                tmp.copy_from(j * count, pack, slot * count, count);
            }
            ctx.charge_copy(indices.len() * count * T::SIZE);
            self.k <<= 1;
            self.sent = false;
        }

        // Phase 3: inverse rotation. After phase 2, tmp[j] holds the block
        // sent by rank (me - j + p) mod p.
        for j in 0..p {
            recv.copy_from(((me + p - j) % p) * count, tmp, j * count, count);
        }
        ctx.charge_copy(p * count * T::SIZE);
        Ok(true)
    }
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
    run_blocking(BruckSm::new().drive(ctx, comm, send, recv, count, Drive::Block));
}

/// One alltoall schedule as a split-phase machine, selected by name.
#[derive(Debug)]
enum A2aSm<T: ShmElem> {
    Pairwise(PairwiseSm),
    Bruck(BruckSm<T>),
}

impl<T: ShmElem> A2aSm<T> {
    /// # Panics
    /// Panics on an unknown algorithm name.
    fn for_algo(algo: &str) -> Self {
        match algo {
            "alltoall.bruck" => A2aSm::Bruck(BruckSm::new()),
            "alltoall.pairwise" => A2aSm::Pairwise(PairwiseSm::new()),
            other => panic!("alltoall: unknown algorithm {other:?}"),
        }
    }

    fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        send: &Buf<T>,
        recv: &mut Buf<T>,
        count: usize,
        how: Drive,
    ) -> Result<bool, WaitError> {
        match self {
            A2aSm::Pairwise(sm) => sm.drive(ctx, comm, send, recv, count, how),
            A2aSm::Bruck(sm) => sm.drive(ctx, comm, send, recv, count, how),
        }
    }
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

/// Run the named registered algorithm.
///
/// # Panics
/// Panics on an unknown name.
pub fn dispatch<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    count: usize,
    algo: &str,
) {
    run_blocking(A2aSm::for_algo(algo).drive(ctx, comm, send, recv, count, Drive::Block));
}

/// The body of an in-flight nonblocking alltoall (see [`istart`]).
pub struct IAlltoallBody<'a, T: ShmElem> {
    comm: Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    count: usize,
    sm: A2aSm<T>,
}

impl<T: ShmElem> DriveOp for IAlltoallBody<'_, T> {
    const OP: &'static str = "ialltoall";

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        self.sm
            .drive(ctx, &self.comm, self.send, self.recv, self.count, how)
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.comm, 0)
    }
}

/// An in-flight nonblocking alltoall (`MPI_Ialltoall`).
pub type IAlltoall<'a, T> = IColl<IAlltoallBody<'a, T>>;

/// Start the named algorithm nonblocking; `istart(…) + wait` is
/// bit-identical to [`dispatch`] (modulo the `Req*` trace markers).
pub fn istart<'a, T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &'a Buf<T>,
    recv: &'a mut Buf<T>,
    count: usize,
    algo: &str,
) -> IAlltoall<'a, T> {
    IColl::start(
        ctx,
        IAlltoallBody {
            comm: comm.clone(),
            send,
            recv,
            count,
            sm: A2aSm::for_algo(algo),
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

/// Register this module's algorithms. `total_bytes` is one block.
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "alltoall.bruck",
        op: CollectiveOp::Alltoall,
        applicable: |_| true,
        // ⌈log₂ p⌉ rounds of p/2 blocks each, plus two full rotations and
        // per-round pack/unpack of the shipped half.
        estimate: |e, c| {
            let p = c.comm_size;
            let total = p * c.total_bytes;
            let half = total / 2;
            e.copy(total) + ceil_log2(p) as f64 * (e.msg(half) + 2.0 * e.copy(half)) + e.copy(total)
        },
    });
    reg.register(AlgorithmSpec {
        name: "alltoall.pairwise",
        op: CollectiveOp::Alltoall,
        applicable: |_| true,
        // p−1 single-block exchanges plus the own-block copy.
        estimate: |e, c| {
            e.copy(c.total_bytes) + e.uniform_rounds(c.comm_size.saturating_sub(1), c.total_bytes)
        },
    });
}

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
            let req = istart(ctx, c, s, r, count, "alltoall.pairwise");
            msim::Request::wait(req, ctx);
        });
        check(1, 5, 2, |ctx, c, s, r, count| {
            let req = istart(ctx, c, s, r, count, "alltoall.bruck");
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
