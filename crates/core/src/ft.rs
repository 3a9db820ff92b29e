//! Fault-tolerant driver for the hybrid collectives.
//!
//! Real MPI has no fault tolerance in the standard; the ULFM proposal
//! (User-Level Failure Mitigation) adds exactly three user-visible
//! mechanisms: operations *fail* with an error instead of hanging,
//! survivors *agree* on who died (`MPI_Comm_agree`), and the
//! communicator is rebuilt without the dead (`MPI_Comm_shrink`). This
//! module layers those semantics over the hybrid MPI+MPI collectives:
//!
//! * [`FtComm`] owns the (possibly already shrunk) parent communicator
//!   and a recipe for rebuilding the [`HybridComm`] hierarchy over it;
//! * [`FtComm::run`] executes one collective "round" under the
//!   configured [`FaultPolicy`]: it traps the typed
//!   [`WaitError`] unwinds produced by the simulator's failure detector,
//!   drives the agree → shrink → rebuild → re-run recovery loop, and
//!   round-calls a commit protocol so that ranks which completed the
//!   round *before* a peer died still join the recovery deterministically;
//! * leader failover is not a special case: the hybrid hierarchy elects
//!   the lowest parent rank of each node as leader, so rebuilding the
//!   hierarchy on the shrunk communicator automatically promotes the
//!   lowest-rank surviving follower and re-allocates the shared window.
//!
//! Beyond shrink-only recovery, the module implements **elastic**
//! recovery (spawn-and-merge): a respawn pool of spare ranks parks on
//! per-universe grow boards, and after a shrink the survivors can
//! [`grow`](FtComm::grow) replacement ranks back in at a round boundary
//! — a deterministic roll-call recruits the lowest-ranked live spares,
//! rebuilds the communicator (and with it hierarchy, bridge, windows and
//! any multi-leader [`LeaderSet`](collectives::LeaderSet) on the next
//! round's rebuild), and hands recruits the survivors' epoch and
//! operation sequence so all sides stay in lockstep. The
//! [`run_elastic`](FtComm::run_elastic) driver packages the whole
//! kill → shrink → grow → re-run loop.
//!
//! Recovery is deterministic: the agreed dead set, the new epoch, the
//! survivor count, and any recruited replacements are recorded as
//! `EventKind::Recovery` trace events, byte-identical across same-seed
//! runs and executor modes.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use collectives::{CollectiveOp, FaultPolicy, ReduceOp, SelectionPolicy, Tuning};
use msim::{CommitOutcome, Communicator, Ctx, ShmElem, WaitError};

use crate::hybrid::HybridComm;
use crate::sync::SyncMethod;
use crate::{HyAllgatherv, HyAllreduce, HyBcast};

/// How to rebuild the hybrid context after the communicator shrinks.
#[derive(Clone)]
enum Rebuild {
    Sync(Tuning, SyncMethod),
    Policy(SelectionPolicy),
}

impl Rebuild {
    fn hybrid(&self, ctx: &mut Ctx, comm: &Communicator) -> HybridComm {
        match self {
            Rebuild::Sync(tuning, sync) => HybridComm::with_sync(ctx, comm, tuning.clone(), *sync),
            Rebuild::Policy(policy) => HybridComm::with_policy(ctx, comm, policy.clone()),
        }
    }
}

/// How many node leaders the built-in fault-tolerant collectives
/// ([`FtComm::allgatherv`] and friends) drive the bridge with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaders {
    /// Always use `k` leader slots per node (`1` = the paper's
    /// single-leader hierarchy).
    Fixed(usize),
    /// Re-evaluate [`HybridComm::recommended_leaders`] for every attempt
    /// — in particular after a shrink or grow changes the communicator
    /// shape, the leader count rebalances to the post-recovery world.
    Auto {
        /// Upper bound on the evaluated leader counts.
        max_k: usize,
    },
}

impl Default for Leaders {
    fn default() -> Self {
        Leaders::Fixed(1)
    }
}

impl Leaders {
    /// Effective k for one attempt of `op` moving `total_bytes`.
    fn effective(self, ctx: &Ctx, hc: &HybridComm, op: CollectiveOp, total_bytes: usize) -> usize {
        match self {
            Leaders::Fixed(k) => k.max(1),
            Leaders::Auto { max_k } => hc.recommended_leaders(ctx, op, total_bytes, max_k),
        }
    }
}

/// Respawn-pool state carried by an elastic [`FtComm`].
#[derive(Debug, Clone)]
struct PoolState {
    /// Board namespace shared by every participant (the original world's
    /// communicator id).
    pool_id: u32,
    /// Live spares still parked, ascending global ranks.
    spares: Vec<usize>,
    /// Next grow roll-call sequence number.
    grow_seq: u64,
    /// Deaths not yet replaced by a grow.
    pending: usize,
}

/// A fault-tolerant communicator: the survivor-side state of the ULFM
/// recovery loop.
///
/// Collectively constructed by every member of the parent communicator
/// and then driven in lockstep: each [`run`](FtComm::run) /
/// [`run_raw`](FtComm::run_raw) call is one protected round. After a
/// recovery the handle owns the *shrunk* communicator, so later rounds
/// (and [`comm`](FtComm::comm)) see the reduced world — until a
/// [`grow`](FtComm::grow) merges replacements back in.
pub struct FtComm {
    comm: Communicator,
    rebuild: Rebuild,
    fault: FaultPolicy,
    op_seq: u64,
    leaders: Leaders,
    pool: Option<PoolState>,
}

impl FtComm {
    /// A fault-tolerant context rebuilding hierarchies with an explicit
    /// tuning + sync flavor (fault policy: [`FaultPolicy::Abort`] until
    /// overridden with [`with_fault`](FtComm::with_fault)).
    pub fn new(comm: &Communicator, tuning: Tuning, sync: SyncMethod) -> Self {
        Self {
            comm: comm.clone(),
            rebuild: Rebuild::Sync(tuning, sync),
            fault: FaultPolicy::default(),
            op_seq: 0,
            leaders: Leaders::default(),
            pool: None,
        }
    }

    /// A fault-tolerant context rebuilding hierarchies through a
    /// [`SelectionPolicy`]; the fault policy is taken from
    /// [`SelectionPolicy::fault_policy`].
    pub fn with_policy(comm: &Communicator, policy: SelectionPolicy) -> Self {
        let fault = policy.fault_policy();
        Self {
            comm: comm.clone(),
            rebuild: Rebuild::Policy(policy),
            fault,
            op_seq: 0,
            leaders: Leaders::default(),
            pool: None,
        }
    }

    /// Override the fault policy.
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Drive the built-in collectives with `k` leader slots per node
    /// (bridge striping; `k = 1`, one leader, is the default).
    pub fn with_leaders(mut self, k: usize) -> Self {
        self.leaders = Leaders::Fixed(k);
        self
    }

    /// Re-pick the leader count per attempt from the cost model (at most
    /// `max_k`) — so after a shrink or grow the striping rebalances to
    /// the recovered communicator shape.
    pub fn with_auto_leaders(mut self, max_k: usize) -> Self {
        self.leaders = Leaders::Auto { max_k };
        self
    }

    /// Attach a respawn pool: the spare global ranks in `spares` (order
    /// irrelevant; deduplicated ascending) park on grow boards under the
    /// `pool_id` namespace and can be recruited by [`grow`](FtComm::grow)
    /// after deaths. All members must pass identical arguments.
    pub fn with_pool(mut self, pool_id: u32, spares: &[usize]) -> Self {
        let mut s = spares.to_vec();
        s.sort_unstable();
        s.dedup();
        self.pool = Some(PoolState {
            pool_id,
            spares: s,
            grow_seq: 0,
            pending: 0,
        });
        self
    }

    /// The configured leader-count policy.
    pub fn leaders(&self) -> Leaders {
        self.leaders
    }

    /// Live spares still parked in the respawn pool (`None` when the
    /// handle has no pool).
    pub fn spares_left(&self) -> Option<&[usize]> {
        self.pool.as_ref().map(|p| p.spares.as_slice())
    }

    /// Deaths not yet replaced by a grow (0 without a pool).
    pub fn pending_replacements(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.pending)
    }

    /// The current (post-recovery) parent communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// The active fault policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault
    }

    /// Run one protected round, rebuilding the [`HybridComm`] hierarchy
    /// for every attempt (after a shrink this is what re-elects node
    /// leaders and re-allocates the shared window).
    ///
    /// `body` must be a *restartable* collective round: it may be run
    /// several times, each time over the communicator it is handed, and
    /// only the final completed attempt's effects count.
    pub fn run<T>(
        &mut self,
        ctx: &mut Ctx,
        label: &str,
        mut body: impl FnMut(&mut Ctx, &HybridComm) -> T,
    ) -> T {
        let rebuild = self.rebuild.clone();
        self.run_raw(ctx, label, move |ctx, comm| {
            let hc = rebuild.hybrid(ctx, comm);
            body(ctx, &hc)
        })
    }

    /// Run one protected round directly over the parent communicator
    /// (for bodies like whole applications that build their own
    /// sub-communicators).
    ///
    /// Disarmed (no fault plan): runs `body` once, no wrapping — the
    /// instruction stream is identical to calling `body` directly.
    ///
    /// Armed: traps [`WaitError`] unwinds from `body` and applies the
    /// [`FaultPolicy`]:
    ///
    /// * `Abort` — rethrow; the run fails with the root-cause error.
    /// * `Shrink` — agree on the dead set, shrink, re-run on survivors.
    /// * `Retry` — transport timeouts re-run the round (up to
    ///   `max_retries`, charging `backoff_us * 2^i` of virtual time
    ///   before retry `i`); confirmed failures shrink as above.
    ///
    /// A completed `body` is followed by a commit round-call: if any
    /// peer diverted into recovery instead of committing, this rank
    /// joins the same recovery and re-runs, keeping all survivors in
    /// lockstep. Recovery always rebuilds the communicator — even when
    /// the agreed dead set is empty — so that retransmitted rounds run
    /// under a fresh communicator id, isolated from stale packets.
    pub fn run_raw<T>(
        &mut self,
        ctx: &mut Ctx,
        label: &str,
        mut body: impl FnMut(&mut Ctx, &Communicator) -> T,
    ) -> T {
        self.op_seq += 1;
        ctx.set_op_label(label);
        if !ctx.ft_armed() {
            return body(ctx, &self.comm);
        }
        let mut timeouts = 0u32;
        loop {
            ctx.set_op_label(label);
            let comm = self.comm.clone();
            match catch_unwind(AssertUnwindSafe(|| body(ctx, &comm))) {
                Ok(v) => match ctx.ft_commit(&comm, self.op_seq) {
                    CommitOutcome::AllOk => return v,
                    CommitOutcome::Diverted => self.recover(ctx, label),
                },
                Err(payload) => {
                    let err = match payload.downcast::<WaitError>() {
                        Ok(e) => *e,
                        // Injected kills, assertion failures, SPMD bugs:
                        // not recoverable conditions — surface verbatim.
                        Err(other) => resume_unwind(other),
                    };
                    match self.fault {
                        FaultPolicy::Abort => resume_unwind(Box::new(err)),
                        FaultPolicy::Shrink => self.recover(ctx, label),
                        FaultPolicy::Retry {
                            max_retries,
                            backoff_us,
                        } => {
                            if matches!(err, WaitError::Timeout { .. }) {
                                timeouts += 1;
                                if timeouts > max_retries {
                                    resume_unwind(Box::new(err));
                                }
                                ctx.charge_time(backoff_us * f64::powi(2.0, timeouts as i32 - 1));
                            }
                            // Confirmed failures don't consume retries:
                            // retrying against a dead rank cannot succeed,
                            // so go straight to the shrink path.
                            self.recover(ctx, label);
                        }
                    }
                }
            }
        }
    }

    /// One joint recovery round: publish the divert marker (so peers
    /// blocked in this round's waits unwind promptly), agree on the dead
    /// set, shrink, advance the epoch, and trace the outcome.
    fn recover(&mut self, ctx: &mut Ctx, label: &str) {
        let epoch = ctx.ft_epoch() + 1;
        ctx.ft_divert(epoch);
        let outcome = ctx.ft_agree(&self.comm, ctx.ft_epoch());
        let shrunk = self.comm.shrink(ctx, &outcome);
        ctx.set_ft_epoch(epoch);
        ctx.trace_recovery(label, epoch, &outcome.dead, shrunk.size(), &[]);
        if let Some(pool) = &mut self.pool {
            pool.pending += outcome.dead.len();
        }
        self.comm = shrunk;
    }

    /// One grow roll-call at a round boundary: rendezvous with every
    /// parked spare, recruit replacements for the deaths accumulated
    /// since the last grow (up to the live pool size), and merge them
    /// into a fresh communicator. Every current member must call this at
    /// the same point of the round sequence with the same `cookie`
    /// (recruits resume their driver at `cookie + 1`). A no-op without a
    /// pool or when disarmed; still a roll-call (advancing the parked
    /// spares) when there is nothing to replace, so spares and survivors
    /// stay in lockstep round for round.
    ///
    /// Returns the recruited global ranks (empty when none).
    pub fn grow(&mut self, ctx: &mut Ctx, cookie: u64) -> Vec<usize> {
        if !ctx.ft_armed() {
            return Vec::new();
        }
        let Some(pool) = &self.pool else {
            return Vec::new();
        };
        let (pool_id, seq, want) = (pool.pool_id, pool.grow_seq, pool.pending);
        let base = self.comm.members().to_vec();
        let spares = pool.spares.clone();
        let out = ctx.ft_grow(
            pool_id,
            seq,
            &base,
            &spares,
            want,
            self.op_seq,
            cookie,
            false,
        );
        let pool = self.pool.as_mut().expect("pool checked above");
        pool.grow_seq = seq + 1;
        pool.spares = out.pool_left.clone();
        pool.pending = out.pending;
        if !out.recruits.is_empty() {
            // Chaos-harness sensitivity hook: with `HMPI_MUTANT=stale-grow`
            // the survivors deliberately keep driving the stale pre-grow
            // communicator while the recruit joins the grown one — the
            // membership bug the chaos invariant checker must catch.
            // Never set outside `chaos --mutant-check`.
            let stale = std::env::var_os("HMPI_MUTANT").is_some_and(|v| v == "stale-grow");
            if !stale {
                let grown = Communicator::from_grow(ctx, &out);
                ctx.trace_recovery("ft.grow", out.epoch, &[], grown.size(), &out.recruits);
                self.comm = grown;
            }
        }
        out.recruits
    }

    /// Close the respawn pool: one final roll-call that recruits nobody
    /// and tells every still-parked spare to exit its standby loop.
    /// Collective over the current members; a no-op without a pool or
    /// when disarmed.
    pub fn retire(&mut self, ctx: &mut Ctx) {
        if !ctx.ft_armed() {
            return;
        }
        let Some(pool) = &self.pool else {
            return;
        };
        let (pool_id, seq) = (pool.pool_id, pool.grow_seq);
        let base = self.comm.members().to_vec();
        let spares = pool.spares.clone();
        ctx.ft_grow(pool_id, seq, &base, &spares, 0, self.op_seq, 0, true);
        let pool = self.pool.as_mut().expect("pool checked above");
        pool.grow_seq = seq + 1;
    }

    /// The elastic-recovery driver: run `rounds` protected rounds over
    /// the non-spare members of `world`, with the ranks in `spares`
    /// parked as a respawn pool. After every round the actives hold a
    /// grow roll-call — deaths from that round are replaced by the
    /// lowest-ranked live spares, which adopt the survivors' epoch and
    /// operation sequence and join the very next round. After the final
    /// round the pool is retired so leftover spares return.
    ///
    /// Every rank of `world` must call this with identical arguments
    /// (SPMD). The return value has one slot per round: `Some` for
    /// rounds this rank executed, `None` for rounds it sat out as a
    /// spare (or everything, for a spare never recruited). `body`
    /// receives the per-round [`FtComm`] and the round index; like
    /// [`run`](FtComm::run) bodies it must be restartable.
    ///
    /// Disarmed, the actives simply run their rounds (no boards, no
    /// wrapping — the instruction stream is identical to a plain loop)
    /// and spares return immediately.
    #[allow(clippy::too_many_arguments)]
    pub fn run_elastic<T>(
        ctx: &mut Ctx,
        world: &Communicator,
        spares: &[usize],
        tuning: Tuning,
        sync: SyncMethod,
        fault: FaultPolicy,
        leaders: Leaders,
        rounds: u64,
        mut body: impl FnMut(&mut Ctx, &mut FtComm, u64) -> T,
    ) -> Vec<Option<T>> {
        let me = ctx.rank();
        let is_spare = spares.contains(&me);
        let pool_id = world.id();
        let color = if is_spare { None } else { Some(0) };
        let active = world.split(ctx, color, me as i64);

        let mut results: Vec<Option<T>> = (0..rounds).map(|_| None).collect();
        if !ctx.ft_armed() {
            if let Some(comm) = active {
                let mut ft = FtComm::new(&comm, tuning, sync).with_fault(fault);
                ft.leaders = leaders;
                for round in 0..rounds {
                    results[round as usize] = Some(body(ctx, &mut ft, round));
                }
            }
            return results;
        }

        match active {
            Some(comm) => {
                let mut ft = FtComm::new(&comm, tuning, sync)
                    .with_fault(fault)
                    .with_pool(pool_id, spares);
                ft.leaders = leaders;
                for round in 0..rounds {
                    results[round as usize] = Some(body(ctx, &mut ft, round));
                    ft.grow(ctx, round);
                }
                ft.retire(ctx);
            }
            None => {
                // Spare: park on the grow boards until recruited (join
                // the next round) or the pool retires.
                let mut seq = 0u64;
                loop {
                    let out = ctx.ft_grow_standby(pool_id, seq);
                    seq += 1;
                    if out.recruits.contains(&me) {
                        ctx.set_ft_epoch(out.epoch);
                        let comm = Communicator::from_grow(ctx, &out);
                        ctx.trace_recovery("ft.grow", out.epoch, &[], comm.size(), &out.recruits);
                        let mut ft = FtComm::new(&comm, tuning, sync).with_fault(fault);
                        ft.leaders = leaders;
                        ft.op_seq = out.op_seq;
                        ft.pool = Some(PoolState {
                            pool_id,
                            spares: out.pool_left.clone(),
                            grow_seq: seq,
                            pending: out.pending,
                        });
                        for round in (out.cookie + 1)..rounds {
                            results[round as usize] = Some(body(ctx, &mut ft, round));
                            ft.grow(ctx, round);
                        }
                        ft.retire(ctx);
                        break;
                    }
                    if out.retire {
                        break;
                    }
                }
            }
        }
        results
    }

    /// Fault-tolerant irregular allgather. `count_of` maps a *global*
    /// rank to its block length (so shrunk worlds keep per-rank counts
    /// stable); `mine` must have `count_of(my_rank)` elements. Returns
    /// the survivor blocks concatenated in communicator order. Bridge
    /// striping follows the [`Leaders`] config.
    pub fn allgatherv<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        mine: &[T],
        count_of: impl Fn(usize) -> usize + Copy,
    ) -> Vec<T> {
        let leaders = self.leaders;
        self.run(ctx, "ft.allgatherv", |ctx, hc| {
            let counts: Vec<usize> = hc.comm().members().iter().map(|&g| count_of(g)).collect();
            let total: usize = counts.iter().sum::<usize>() * T::SIZE;
            let k = leaders.effective(ctx, hc, CollectiveOp::Allgatherv, total);
            let ag = HyAllgatherv::with_leaders(ctx, hc, &counts, k);
            ag.write_my_block(ctx, mine);
            ag.execute(ctx);
            let mut out = Vec::with_capacity(counts.iter().sum());
            for r in 0..hc.comm().size() {
                out.extend(ag.read_block(r));
            }
            out
        })
    }

    /// Fault-tolerant regular allgather (every rank contributes
    /// `mine.len()` elements).
    pub fn allgather<T: ShmElem>(&mut self, ctx: &mut Ctx, mine: &[T]) -> Vec<T> {
        let n = mine.len();
        self.allgatherv(ctx, mine, move |_| n)
    }

    /// Fault-tolerant broadcast. `root` is a *global* rank; if it died
    /// in an earlier round the lowest-rank survivor takes over as
    /// effective root. `message_of` maps the effective root's global
    /// rank to the `len`-element message (every rank must be able to
    /// produce it if elected — in practice apps broadcast
    /// rank-independent or replicated state).
    pub fn bcast<T: ShmElem>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        len: usize,
        message_of: impl Fn(usize) -> Vec<T> + Copy,
    ) -> Vec<T> {
        let leaders = self.leaders;
        self.run(ctx, "ft.bcast", |ctx, hc| {
            let members = hc.comm().members();
            let eff_local = members.iter().position(|&g| g == root).unwrap_or(0);
            let eff_global = members[eff_local];
            let k = leaders.effective(ctx, hc, CollectiveOp::Bcast, len * T::SIZE);
            let bc = HyBcast::with_leaders(ctx, hc, len, k);
            if hc.comm().rank() == eff_local {
                bc.write_message(ctx, &message_of(eff_global));
            }
            bc.execute(ctx, eff_local);
            bc.read_message()
        })
    }

    /// Fault-tolerant allreduce over the survivors' contributions.
    pub fn allreduce<T: ShmElem, O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        mine: &[T],
        op: O,
    ) -> Vec<T> {
        let leaders = self.leaders;
        self.run(ctx, "ft.allreduce", |ctx, hc| {
            let contribution = ctx.buf_from_fn(mine.len(), |i| mine[i]);
            let k = leaders.effective(ctx, hc, CollectiveOp::Allreduce, mine.len() * T::SIZE);
            let ar = HyAllreduce::with_leaders(ctx, hc, mine.len(), k);
            ar.execute(ctx, &contribution, op);
            ar.read_result()
        })
    }
}
