//! Barrier synchronization.
//!
//! The paper's hybrid collectives synchronize on-node processes with
//! `MPI_Barrier` over the shared-memory communicator (its "heavy-weight"
//! flavor, §6). The standard implementation is the dissemination barrier:
//! ⌈log₂ p⌉ rounds of zero-byte messages.

use msim::{Communicator, Ctx, Drive, Payload, WaitError};

use crate::policy::{Fee, Select};
use crate::registry::{AlgorithmRegistry, AlgorithmSpec, CollectiveOp, CommCase};
use crate::selection::Tuning;
use crate::split::run_blocking;
use crate::tags;

/// Whether a [`BarrierSm`] disseminates through zero-byte messages or
/// shared-memory flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarrierKind {
    Msg,
    Flags,
}

/// Split-phase dissemination barrier: in round `k`, rank `r` signals
/// `r + 2^k` and waits for a signal from `r - 2^k` (mod p). Public so
/// the hybrid sync layer (`hmpi`) can poll a barrier inside its own
/// split-phase machines.
#[derive(Debug)]
pub struct BarrierSm {
    kind: BarrierKind,
    round: u32,
    dist: usize,
    sent: bool,
}

impl BarrierSm {
    /// A message-based dissemination barrier machine.
    pub fn msg() -> Self {
        Self::with_kind(BarrierKind::Msg)
    }

    /// A shared-memory-flag dissemination barrier machine (single-node
    /// communicators only).
    pub fn shm() -> Self {
        Self::with_kind(BarrierKind::Flags)
    }

    fn with_kind(kind: BarrierKind) -> Self {
        Self {
            kind,
            round: 0,
            dist: 1,
            sent: false,
        }
    }

    /// Advance the rounds; `Ok(true)` once the barrier completed (the
    /// completing drive records the `Barrier` trace event).
    pub fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let p = comm.size();
        let me = comm.rank();
        while self.dist < p {
            let to = (me + self.dist) % p;
            let from = (me + p - self.dist) % p;
            match self.kind {
                BarrierKind::Msg => {
                    let tag = tags::BARRIER + self.round;
                    if !self.sent {
                        ctx.send(comm, to, tag, Payload::empty());
                        self.sent = true;
                    }
                    if ctx.step_recv(comm, from, tag, how)?.is_none() {
                        return Ok(false);
                    }
                }
                BarrierKind::Flags => {
                    let tag = tags::BARRIER + 32 + self.round;
                    if !self.sent {
                        ctx.post_flag(comm, to, tag);
                        self.sent = true;
                    }
                    if !ctx.step_wait_flag(comm, from, tag, how)? {
                        return Ok(false);
                    }
                }
            }
            self.dist <<= 1;
            self.round += 1;
            self.sent = false;
        }
        ctx.trace_barrier();
        Ok(true)
    }
}

/// Dissemination barrier: in round `k`, rank `r` signals `r + 2^k` and
/// waits for a signal from `r - 2^k` (mod p). After ⌈log₂ p⌉ rounds every
/// rank transitively depends on every other.
pub fn dissemination(ctx: &mut Ctx, comm: &Communicator) {
    run_blocking(BarrierSm::msg().drive(ctx, comm, Drive::Block));
}

/// Dissemination barrier over shared-memory flags instead of messages.
///
/// Real MPI libraries special-case intra-node barriers: the rounds go
/// through flags in the shared last-level cache rather than through the
/// messaging stack, which is why an on-node `MPI_Barrier` costs ~1 µs on
/// the paper's systems. Only valid when every member is on one node.
pub fn shm_dissemination(ctx: &mut Ctx, comm: &Communicator) {
    run_blocking(BarrierSm::shm().drive(ctx, comm, Drive::Block));
}

/// A drivable barrier with the selection and entry fee of [`tuned`] —
/// construction charges the fee and picks the flavor; `drive` advances.
pub fn tuned_sm(ctx: &mut Ctx, comm: &Communicator) -> BarrierSm {
    let case = case_for(ctx, comm);
    // The barrier split is node-structural, not threshold-driven, so any
    // Tuning yields the same legacy choice.
    match Select::Legacy(&Tuning::cray_mpich()).enter(ctx, Fee::Call, &case) {
        "barrier.shm_dissemination" => BarrierSm::shm(),
        _ => BarrierSm::msg(),
    }
}

/// The default barrier (what `MPI_Barrier` resolves to): flag-based on
/// single-node communicators, message-based dissemination otherwise.
/// Charges the per-call barrier entry fee.
pub fn tuned(ctx: &mut Ctx, comm: &Communicator) {
    run_blocking(tuned_sm(ctx, comm).drive(ctx, comm, Drive::Block));
}

/// The [`CommCase`] one barrier call presents to a selection policy.
pub fn case_for(ctx: &Ctx, comm: &Communicator) -> CommCase {
    CommCase::new(
        CollectiveOp::Barrier,
        comm.size(),
        comm.num_nodes(ctx.map()),
        0,
    )
}

/// Run the named registered algorithm.
///
/// # Panics
/// Panics on an unknown name.
pub fn dispatch(ctx: &mut Ctx, comm: &Communicator, algo: &str) {
    match algo {
        "barrier.dissemination" => dissemination(ctx, comm),
        "barrier.shm_dissemination" => shm_dissemination(ctx, comm),
        other => panic!("barrier: unknown algorithm {other:?}"),
    }
}

/// Register this module's algorithms.
pub fn register(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "barrier.dissemination",
        op: CollectiveOp::Barrier,
        applicable: |_| true,
        estimate: |e, c| e.barrier(c.comm_size),
    });
    reg.register(AlgorithmSpec {
        name: "barrier.shm_dissemination",
        op: CollectiveOp::Barrier,
        // Flag rounds only exist inside one node.
        applicable: |c| c.num_nodes <= 1,
        estimate: |e, c| {
            simnet::Estimator::new(e.cost(), simnet::LinkClass::SharedMem).barrier(c.comm_size)
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;
    use msim::Payload;

    #[test]
    fn barrier_orders_cross_rank_effects() {
        // Rank 0 sends a message *before* the barrier; rank p-1 receives it
        // *after*. If the barrier is correct, the receive cannot complete
        // at a virtual time earlier than rank 0's barrier entry.
        let r = run(2, 2, |ctx| {
            let world = ctx.world();
            let p = ctx.nranks();
            if ctx.rank() == 0 {
                ctx.send(&world, p - 1, 9, Payload::empty());
            }
            let before = ctx.now();
            dissemination(ctx, &world);
            if ctx.rank() == p - 1 {
                ctx.recv(&world, 0, 9);
            }
            (before, ctx.now())
        });
        let entry0 = r.per_rank[0].0;
        let exit_last = r.per_rank[3].1;
        assert!(exit_last >= entry0);
    }

    #[test]
    fn all_ranks_leave_after_the_latest_entry() {
        // Rank 2 arrives late (big compute); everyone must leave the
        // barrier no earlier than rank 2 arrived.
        let r = run(1, 4, |ctx| {
            if ctx.rank() == 2 {
                ctx.compute(1000.0);
            }
            let world = ctx.world();
            dissemination(ctx, &world);
            ctx.now()
        });
        for (rank, &t) in r.per_rank.iter().enumerate() {
            assert!(t >= 1000.0, "rank {rank} left the barrier at {t} < 1000");
        }
    }

    #[test]
    fn single_rank_barrier_is_free() {
        let r = run(1, 1, |ctx| {
            let world = ctx.world();
            dissemination(ctx, &world);
            ctx.now()
        });
        assert_eq!(r.per_rank[0], 0.0);
    }

    #[test]
    fn barrier_cost_is_logarithmic() {
        let time_for = |ppn: usize| {
            let r = run(1, ppn, |ctx| {
                let world = ctx.world();
                dissemination(ctx, &world);
                ctx.now()
            });
            r.makespan()
        };
        let t4 = time_for(4);
        let t16 = time_for(16);
        // 16 ranks = 4 rounds vs 2 rounds: roughly 2x, definitely not 4x.
        assert!(t16 < t4 * 3.0, "t16={t16} t4={t4}");
        assert!(t16 > t4, "more rounds must cost more");
    }

    #[test]
    fn barrier_is_traced() {
        let cfg = msim::SimConfig::new(
            simnet::ClusterSpec::regular(1, 3),
            simnet::CostModel::uniform_test(),
        )
        .traced();
        let r = msim::Universe::run(cfg, |ctx| {
            let world = ctx.world();
            dissemination(ctx, &world);
        })
        .unwrap();
        let barriers = r
            .tracer
            .events()
            .iter()
            .filter(|e| matches!(e.kind, simnet::EventKind::Barrier))
            .count();
        assert_eq!(barriers, 3);
    }
}
