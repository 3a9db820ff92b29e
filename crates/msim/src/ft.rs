//! Fault-tolerance primitives: the per-universe liveness table, typed
//! wait errors, and the ULFM-style `agree`/`commit` consensus boards.
//!
//! The design follows User-Level Failure Mitigation (ULFM) as adapted to
//! the simulator's determinism contract:
//!
//! * Every rank that dies from an injected [`crate::KillRule`] marks
//!   itself dead in the shared `Liveness` table *before* its kill panic
//!   unwinds (all its prior sends happened-before the mark via the
//!   mailbox mutex, so an observer that sees the mark and then drains its
//!   mailbox once more cannot lose a message).
//! * Armed wait paths (mailbox pop, flag wait, oob rendezvous) check the
//!   table before they park and raise a typed [`WaitError`] instead of
//!   parking forever. A death or divert wakes every parked rank to
//!   recheck, so a failure reaches its waiters as a schedule event.
//! * Survivors run a *commit* roll-call after every protected operation
//!   (`Liveness::commit`); a failed round diverts every survivor into
//!   the same recovery epoch, where `Liveness::agree` reaches consensus
//!   on the dead set and mints a fresh communicator token
//!   (`Comm_agree` + `Comm_shrink`).
//!
//! Nothing here reads a clock, and all of it has **zero virtual cost**:
//! recovery control traffic is out-of-band, like the setup collectives
//! (splits, window allocation) the paper excludes from measurements. A
//! wait that nothing wakes gives up when the pool has been quiescent for
//! its budget on the executor's stall clock (`crate::exec`). See
//! `docs/fault-tolerance.md`.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::exec::{self, PoolCore, Woke};

/// Board kind for recovery-epoch consensus entries ([`Liveness::agree`]).
const KIND_AGREE: u8 = 16;
/// Board kind for per-operation commit roll-calls ([`Liveness::commit`]).
const KIND_COMMIT: u8 = 17;
/// Board kind for grow roll-calls ([`Liveness::grow_join`]): survivors and
/// pooled spare ranks rendezvous to recruit replacements after a shrink.
const KIND_GROW: u8 = 18;

/// Typed error raised by deadline-aware wait paths when fault tolerance
/// is armed. Doubles as the `panic_any` payload of the plain (infallible)
/// wait paths, so a fault-aware driver above can `catch_unwind` and
/// recover while an unaware program still aborts loudly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The wait exceeded the fault-detection deadline without the peer
    /// being declared dead — transport-level loss (all retransmissions
    /// dropped) or a genuinely silent peer.
    Timeout {
        /// Global rank that was waiting.
        rank: usize,
        /// Communicator context id of the pending wait.
        comm: u32,
        /// Expected source (communicator-local rank).
        src: usize,
        /// Expected tag (or flag id for window waits).
        tag: u32,
    },
    /// The awaited peer was declared dead by the failure detector.
    RankFailed {
        /// Global rank that was waiting.
        rank: usize,
        /// Global rank of the dead peer.
        failed: usize,
        /// Communicator context id of the pending wait.
        comm: u32,
        /// Expected tag (or flag id for window waits).
        tag: u32,
    },
    /// The awaited peer abandoned the current epoch and entered recovery;
    /// the waiter must divert too or it would wait forever.
    PeerDiverted {
        /// Global rank that was waiting.
        rank: usize,
        /// Global rank of the diverted peer.
        peer: usize,
        /// Communicator context id of the pending wait.
        comm: u32,
        /// Expected tag (or flag id for window waits).
        tag: u32,
    },
}

impl WaitError {
    /// Global rank of the failed/diverted peer, when known.
    pub fn peer(&self) -> Option<usize> {
        match self {
            WaitError::Timeout { .. } => None,
            WaitError::RankFailed { failed, .. } => Some(*failed),
            WaitError::PeerDiverted { peer, .. } => Some(*peer),
        }
    }

    /// Global rank that was waiting.
    pub fn rank(&self) -> usize {
        match self {
            WaitError::Timeout { rank, .. }
            | WaitError::RankFailed { rank, .. }
            | WaitError::PeerDiverted { rank, .. } => *rank,
        }
    }
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::Timeout {
                rank,
                comm,
                src,
                tag,
            } => write!(
                f,
                "rank {rank} timed out waiting on comm={comm}, src={src}, tag={tag} \
                 (message lost past all retransmissions?)"
            ),
            WaitError::RankFailed {
                rank,
                failed,
                comm,
                tag,
            } => write!(
                f,
                "rank {rank} detected failure of rank {failed} while waiting \
                 on comm={comm}, tag={tag}"
            ),
            WaitError::PeerDiverted {
                rank,
                peer,
                comm,
                tag,
            } => write!(
                f,
                "rank {rank} observed rank {peer} divert into recovery while \
                 waiting on comm={comm}, tag={tag}"
            ),
        }
    }
}

impl std::error::Error for WaitError {}

/// Result of a `Liveness::agree` consensus round: the dead set every
/// survivor observed, plus a freshly minted communicator context id for
/// the shrunk communicator. Matching on a *fresh* id is what isolates a
/// recovered run from stale packets of the aborted attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreeOutcome {
    /// Globally agreed dead ranks (sorted global ranks).
    pub dead: Vec<usize>,
    /// Fresh communicator context id for the shrunk communicator.
    pub token: u32,
}

/// Result of a grow roll-call (`Liveness::grow_join`): the regrown
/// membership every participant observed, published exactly once by the
/// first completing survivor. Spares parked in
/// `Liveness::grow_standby` read the same outcome to learn whether they
/// were recruited; recruits seed their recovery drivers from the carried
/// `epoch` / `op_seq` / `cookie` so post-grow rounds run in lockstep with
/// the survivors (ULFM's spawn-and-merge, deterministically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowOutcome {
    /// Full membership of the regrown communicator, in communicator rank
    /// order: the (still live) survivors in their prior order, then the
    /// recruits ascending.
    pub members: Vec<usize>,
    /// Recruited spare ranks (ascending global ranks). Empty when the
    /// pool had no live spare left, and always empty for a retire.
    pub recruits: Vec<usize>,
    /// Live spares remaining in the pool after this grow (ascending).
    pub pool_left: Vec<usize>,
    /// Fresh communicator context id for the regrown communicator.
    pub token: u32,
    /// The survivors' recovery epoch at grow time (adopted by recruits).
    pub epoch: u64,
    /// The survivors' protected-operation sequence at grow time; recruits
    /// seed their drivers from it so commit roll-calls line up.
    pub op_seq: u64,
    /// Opaque driver cookie (e.g. the round index the survivors just
    /// finished) letting a recruit resume mid-sequence.
    pub cookie: u64,
    /// Deaths still unreplaced after this grow (`want` minus the recruit
    /// count — nonzero when the pool ran dry). Carried in the outcome so
    /// recruits adopt the same replacement debt as survivors and later
    /// grow rounds stay in lockstep.
    pub pending: usize,
    /// True when the pool is being closed: no recruits, parked spares
    /// exit their standby loops.
    pub retire: bool,
}

/// Result of a per-operation commit roll-call (`Liveness::commit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Every member completed the protected operation; its results stand.
    AllOk,
    /// Some member died or entered recovery mid-operation; every survivor
    /// must divert into recovery and re-run.
    Diverted,
}

/// Key of a roll-call board: `(comm or pool id, sequence, kind)`.
type BoardKey = (u32, u64, u8);

/// One roll-call board entry: registrations, the ranks parked on it, and
/// the outcome once published (agree and grow; commit never sets it).
#[derive(Debug)]
struct Entry<O> {
    /// Global ranks that have checked in.
    registered: BTreeSet<usize>,
    /// Global ranks parked until the board settles.
    waiting: Vec<usize>,
    /// Published outcome (first completer wins).
    outcome: Option<O>,
}

impl<O> Default for Entry<O> {
    fn default() -> Self {
        Self {
            registered: BTreeSet::new(),
            waiting: Vec::new(),
            outcome: None,
        }
    }
}

/// Roll-call boards whose entries publish an `O`.
type Boards<O> = Mutex<HashMap<BoardKey, Entry<O>>>;

/// The per-universe liveness table: who is dead, who has abandoned which
/// epoch, last heartbeat seen per rank, and the consensus boards. One
/// instance is shared by all ranks; allocated only when the fault plan
/// arms fault tolerance, so disarmed runs carry no overhead.
#[derive(Debug)]
pub(crate) struct Liveness {
    /// `dead[g]`: global rank `g` died (kill panic). Set by the victim
    /// itself before unwinding.
    dead: Vec<AtomicBool>,
    /// `diverted[g]`: the recovery epoch rank `g` is entering (0 = none).
    /// Monotonic; a waiter at epoch `e` diverges when it observes a
    /// marker `> e`.
    diverted: Vec<AtomicU64>,
    /// `beats[g]`: rank `g`'s own heartbeat epoch, bumped at every
    /// fault-step and piggybacked on outgoing packets.
    beats: Vec<AtomicU64>,
    /// `seen[g]`: highest heartbeat of rank `g` observed by any receiver.
    seen: Vec<AtomicU64>,
    /// Consensus boards keyed by `(comm id, sequence, kind)`. Entries are
    /// never removed: recovery is rare and bounded, and keeping them
    /// makes late re-checks (a slow rank reading a completed round)
    /// trivially correct.
    boards: Boards<AgreeOutcome>,
    /// Grow roll-call boards keyed by `(pool id, grow sequence,
    /// KIND_GROW)`; separate from `boards` because the published outcome
    /// is a [`GrowOutcome`]. Entries are never removed (same rationale).
    grow_boards: Boards<GrowOutcome>,
    /// The scheduler that parks the boards' waiters, and that a death or
    /// divert wakes.
    exec: Arc<PoolCore>,
}

impl Liveness {
    pub(crate) fn new(nranks: usize, exec: Arc<PoolCore>) -> Self {
        Self {
            dead: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            diverted: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            beats: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            seen: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            boards: Mutex::default(),
            grow_boards: Mutex::default(),
            exec,
        }
    }

    /// Mark `rank` dead and wake every parked rank to recheck. Called by
    /// the victim itself before its kill panic unwinds; `SeqCst` so any
    /// observer that sees the mark also sees every board registration
    /// the victim made before dying.
    pub(crate) fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
        self.exec.wake_all();
    }

    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }

    /// Record that `rank` is abandoning its current epoch and entering
    /// recovery epoch `epoch`. Monotonic max; a raised marker wakes every
    /// parked rank to recheck, as a death does.
    pub(crate) fn divert(&self, rank: usize, epoch: u64) {
        if self.diverted[rank].fetch_max(epoch, Ordering::SeqCst) < epoch {
            self.exec.wake_all();
        }
    }

    /// Whether `rank` has announced a recovery epoch newer than `epoch`.
    pub(crate) fn diverted_past(&self, rank: usize, epoch: u64) -> bool {
        self.diverted[rank].load(Ordering::SeqCst) > epoch
    }

    /// Bump and return `rank`'s own heartbeat epoch.
    pub(crate) fn bump_beat(&self, rank: usize) -> u64 {
        self.beats[rank].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// `rank`'s current heartbeat epoch (piggybacked on outgoing packets).
    pub(crate) fn current_beat(&self, rank: usize) -> u64 {
        self.beats[rank].load(Ordering::Relaxed)
    }

    /// Fold a heartbeat piggybacked on a received packet into the table.
    pub(crate) fn observe_beat(&self, src: usize, beat: u64) {
        self.seen[src].fetch_max(beat, Ordering::Relaxed);
    }

    /// Highest heartbeat of `src` any receiver has observed (diagnostics).
    pub(crate) fn last_seen(&self, src: usize) -> u64 {
        self.seen[src].load(Ordering::Relaxed)
    }

    /// Register `me` on the board entry at `key` and wait there until
    /// `settle`, run under the board lock at once and after every wake,
    /// answers. The first answer wakes the ranks parked on the board, so
    /// a board wakes its members once, when it completes or publishes; a
    /// death or divert wakes them through [`Liveness::mark_dead`] and
    /// [`Liveness::divert`]. With `nudge`, the first registration also
    /// wakes them: it may complete a roll-call that only they can judge.
    ///
    /// # Panics
    /// Panics with `stuck()` when the pool stalls `timeout` unanswered.
    #[allow(clippy::too_many_arguments)]
    fn roll_call<O, T>(
        &self,
        boards: &Boards<O>,
        key: BoardKey,
        me: usize,
        timeout: Duration,
        nudge: bool,
        mut settle: impl FnMut(&mut Entry<O>) -> Option<T>,
        stuck: impl Fn() -> String,
    ) -> T {
        loop {
            // Ranks are killed by panics, so the mutex may be poisoned;
            // the map is never left torn (all mutations are single
            // statements).
            let mut map = boards.lock().unwrap_or_else(PoisonError::into_inner);
            let e = map.entry(key).or_default();
            e.waiting.retain(|&r| r != me);
            let fresh = e.registered.insert(me);
            let out = settle(e);
            let wake = if out.is_some() || (fresh && nudge) {
                std::mem::take(&mut e.waiting)
            } else {
                Vec::new()
            };
            if out.is_none() {
                e.waiting.push(me);
            }
            drop(map);
            for rank in wake {
                self.exec.wake(rank);
            }
            if let Some(out) = out {
                return out;
            }
            assert!(exec::park_current(timeout) == Woke::Signal, "{}", stuck());
        }
    }

    /// `Comm_agree`: block until every member of the communicator is
    /// either registered on this epoch's board or dead, then return the
    /// outcome the first completer published — the sorted dead set and a
    /// fresh communicator token from `alloc_token`. All survivors return
    /// the identical outcome (the token is allocated exactly once, under
    /// the board lock).
    ///
    /// Known limitation (documented non-goal): with *multiple* kills the
    /// agreed dead set snapshots whichever deaths are visible when the
    /// last survivor checks in; a second death racing the roll-call edge
    /// may land in the next epoch instead.
    pub(crate) fn agree(
        &self,
        me: usize,
        comm_id: u32,
        gen: u64,
        members: &[usize],
        alloc_token: impl Fn() -> u32,
        timeout: Duration,
    ) -> AgreeOutcome {
        let key = (comm_id, gen, KIND_AGREE);
        let settle = |e: &mut Entry<AgreeOutcome>| {
            let complete = || {
                members
                    .iter()
                    .all(|&m| e.registered.contains(&m) || self.is_dead(m))
            };
            if e.outcome.is_none() && complete() {
                let dead = members
                    .iter()
                    .copied()
                    .filter(|&m| self.is_dead(m))
                    .collect();
                e.outcome = Some(AgreeOutcome {
                    dead,
                    token: alloc_token(),
                });
            }
            e.outcome.clone()
        };
        self.roll_call(&self.boards, key, me, timeout, false, settle, || {
            format!(
                "ft agree(comm={comm_id}, gen={gen}) timed out at rank {me}: \
                 some member neither registered nor died"
            )
        })
    }

    /// Per-operation commit roll-call: after finishing a protected
    /// operation's body, every member registers under the operation's
    /// sequence number and waits until either **all** members registered
    /// ([`CommitOutcome::AllOk`] — checked first, so a victim that
    /// completed the body before dying still commits the round) or some
    /// member is dead / diverted past `epoch` while the roll-call is
    /// incomplete ([`CommitOutcome::Diverted`]).
    ///
    /// Determinism: registrations are monotonic and a victim's death mark
    /// is ordered after its own registrations (see [`Liveness::mark_dead`]),
    /// so whether a given round commits is a pure function of *where* the
    /// victim's kill op lies in its program — not of wall-clock timing.
    pub(crate) fn commit(
        &self,
        me: usize,
        comm_id: u32,
        op_seq: u64,
        epoch: u64,
        members: &[usize],
        timeout: Duration,
    ) -> CommitOutcome {
        let key = (comm_id, op_seq, KIND_COMMIT);
        let settle = |e: &mut Entry<AgreeOutcome>| {
            if members.iter().all(|&m| e.registered.contains(&m)) {
                return Some(CommitOutcome::AllOk);
            }
            let failed = members
                .iter()
                .any(|&m| m != me && (self.is_dead(m) || self.diverted_past(m, epoch)));
            failed.then_some(CommitOutcome::Diverted)
        };
        self.roll_call(&self.boards, key, me, timeout, false, settle, || {
            format!(
                "ft commit(comm={comm_id}, op={op_seq}) timed out at rank {me}: \
                 no member died yet the roll-call never completed"
            )
        })
    }

    /// Survivor side of the grow roll-call (ULFM spawn-and-merge): block
    /// until every current member of `base` and every pooled spare in
    /// `pool` is either registered on this grow round's board or dead,
    /// then return the outcome the first completer published — the
    /// lowest-ranked `want` live spares recruited, the regrown membership
    /// (live `base` members in order, recruits appended ascending), the
    /// live pool remainder, and a fresh communicator token allocated
    /// exactly once under the board lock. All participants return the
    /// identical outcome, so the regrown communicator can be built purely
    /// locally on every side.
    ///
    /// With `retire = true` the round closes the pool instead: no spare
    /// is recruited and parked spares exit their standby loops.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn grow_join(
        &self,
        me: usize,
        pool_id: u32,
        grow_seq: u64,
        base: &[usize],
        pool: &[usize],
        want: usize,
        epoch: u64,
        op_seq: u64,
        cookie: u64,
        retire: bool,
        alloc_token: impl Fn() -> u32,
        timeout: Duration,
    ) -> GrowOutcome {
        let key = (pool_id, grow_seq, KIND_GROW);
        let settle = |e: &mut Entry<GrowOutcome>| {
            let complete = || {
                base.iter()
                    .chain(pool.iter())
                    .all(|&m| e.registered.contains(&m) || self.is_dead(m))
            };
            if e.outcome.is_none() && complete() {
                let live: Vec<usize> = pool.iter().copied().filter(|&s| !self.is_dead(s)).collect();
                let take = if retire { 0 } else { want.min(live.len()) };
                let recruits: Vec<usize> = live[..take].to_vec();
                let pool_left: Vec<usize> = live[take..].to_vec();
                let mut members: Vec<usize> =
                    base.iter().copied().filter(|&m| !self.is_dead(m)).collect();
                members.extend(recruits.iter().copied());
                e.outcome = Some(GrowOutcome {
                    members,
                    recruits,
                    pool_left,
                    token: alloc_token(),
                    epoch,
                    op_seq,
                    cookie,
                    pending: if retire { 0 } else { want - take },
                    retire,
                });
            }
            e.outcome.clone()
        };
        self.roll_call(&self.grow_boards, key, me, timeout, false, settle, || {
            format!(
                "ft grow(pool={pool_id}, seq={grow_seq}) timed out at rank {me}: \
                 some survivor or spare neither registered nor died"
            )
        })
    }

    /// Spare side of the grow roll-call: register on the board for
    /// `grow_seq` and park until a survivor publishes the outcome. The
    /// caller inspects [`GrowOutcome::recruits`] for its own rank (it was
    /// recruited — build the regrown communicator and join the run) and
    /// [`GrowOutcome::retire`] (the pool closed — exit); otherwise it
    /// re-parks on the next sequence. Its registration wakes the
    /// survivors parked on the board: only they know whether it completed
    /// the roll-call.
    pub(crate) fn grow_standby(
        &self,
        me: usize,
        pool_id: u32,
        grow_seq: u64,
        timeout: Duration,
    ) -> GrowOutcome {
        let key = (pool_id, grow_seq, KIND_GROW);
        let settle = |e: &mut Entry<GrowOutcome>| e.outcome.clone();
        self.roll_call(&self.grow_boards, key, me, timeout, true, settle, || {
            format!(
                "ft grow standby(pool={pool_id}, seq={grow_seq}) timed out at \
                 spare rank {me}: no survivor ever published an outcome"
            )
        })
    }
}

/// What an armed wait path needs to watch for failures: the liveness
/// table plus the waiting communicator's membership and the waiter's
/// current recovery epoch.
#[derive(Clone)]
pub(crate) struct FtWatch {
    pub(crate) live: std::sync::Arc<Liveness>,
    pub(crate) members: Vec<usize>,
    pub(crate) epoch: u64,
}

impl FtWatch {
    /// First member (excluding `me`) that is dead or diverted past the
    /// watcher's epoch — the condition on which an armed wait path must
    /// stop waiting. Deterministic tie-break: lowest global rank wins.
    pub(crate) fn failed_member(&self, me: usize) -> Option<usize> {
        self.members
            .iter()
            .copied()
            .filter(|&m| m != me)
            .find(|&m| self.live.is_dead(m) || self.live.diverted_past(m, self.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PickPolicy;
    use crate::universe::tests::on_ranks;
    use simnet::{ClusterSpec, Placement};
    use std::sync::OnceLock;

    /// A table of `nranks` on a scheduler no rank runs on: its wakes
    /// find every rank ready and do nothing.
    fn table(nranks: usize) -> Liveness {
        let map = Placement::SmpBlock.build(&ClusterSpec::regular(1, nranks));
        Liveness::new(nranks, Arc::new(PoolCore::new(&map, PickPolicy::Fifo, 1)))
    }

    /// Run `f(table, rank)` on every rank of an `nranks` universe on a
    /// pool of `workers`, over one liveness table that parks and wakes
    /// through that universe's scheduler, with `dead` marked dead before
    /// any rank reads it.
    fn on_table<T: Send>(
        nranks: usize,
        workers: usize,
        dead: &[usize],
        f: impl Fn(&Liveness, usize) -> T + Send + Sync,
    ) -> Vec<T> {
        let shared_table = OnceLock::new();
        on_ranks(nranks, workers, |shared, me| {
            let l = shared_table.get_or_init(|| {
                let l = Liveness::new(nranks, Arc::clone(&shared.exec));
                dead.iter().for_each(|&d| l.mark_dead(d));
                l
            });
            f(l, me)
        })
        .unwrap()
    }

    #[test]
    fn dead_and_divert_marks() {
        let l = table(4);
        assert!(!l.is_dead(2));
        l.mark_dead(2);
        assert!(l.is_dead(2));
        assert!(!l.diverted_past(1, 0));
        l.divert(1, 1);
        assert!(l.diverted_past(1, 0));
        assert!(!l.diverted_past(1, 1), "strict: marker == epoch is stale");
        l.divert(1, 1);
        l.divert(1, 3);
        assert!(l.diverted_past(1, 2));
    }

    #[test]
    fn heartbeats_fold_monotonically() {
        let l = table(2);
        assert_eq!(l.bump_beat(0), 1);
        assert_eq!(l.bump_beat(0), 2);
        l.observe_beat(0, 2);
        l.observe_beat(0, 1);
        assert_eq!(l.last_seen(0), 2);
        assert_eq!(l.last_seen(1), 0);
    }

    #[test]
    fn failed_member_skips_self_and_prefers_lowest() {
        let l = Arc::new(table(4));
        l.mark_dead(0);
        l.mark_dead(3);
        let watch = |members: &[usize]| FtWatch {
            live: Arc::clone(&l),
            members: members.to_vec(),
            epoch: 0,
        };
        assert_eq!(watch(&[0, 1, 3]).failed_member(0), Some(3));
        assert_eq!(watch(&[0, 1, 3]).failed_member(1), Some(0));
        assert_eq!(watch(&[1, 2]).failed_member(1), None);
    }

    /// Every survivor must check in before either completes; the first
    /// completer publishes the outcome, the other adopts it (token
    /// allocated exactly once, so both see the same value).
    #[test]
    fn agree_completes_when_survivors_register() {
        for workers in [1, 2] {
            let t = Duration::from_secs(5);
            let got = on_table(3, workers, &[1], |l, me| {
                (me != 1).then(|| l.agree(me, 7, 1, &[0, 1, 2], || 99, t))
            });
            let (a, b) = (got[0].clone().unwrap(), got[2].clone().unwrap());
            assert_eq!(a, b, "width {workers}");
            assert_eq!(a.dead, vec![1]);
            assert_eq!(a.token, 99);
        }
    }

    #[test]
    fn commit_all_ok_beats_late_death() {
        for workers in [1, 2] {
            let t = Duration::from_secs(5);
            let got = on_table(2, workers, &[], |l, me| {
                let first = l.commit(me, 3, 0, 0, &[0, 1], t);
                if me == 1 {
                    // Registered, then dead: the round still commits.
                    l.mark_dead(1);
                    return (first, None);
                }
                // Next round: rank 1 is dead and never registers.
                (first, Some(l.commit(me, 3, 1, 0, &[0, 1], t)))
            });
            use CommitOutcome::{AllOk, Diverted};
            assert_eq!(
                got,
                vec![(AllOk, Some(Diverted)), (AllOk, None)],
                "width {workers}"
            );
        }
    }

    #[test]
    fn grow_recruits_lowest_live_spares_once_everyone_checks_in() {
        for workers in [1, 2] {
            // World: survivors {0, 2} after a shrink; spares {3, 4, 5}
            // with 4 dead, so a grow wanting 2 recruits must pick {3, 5}
            // and leave an empty pool.
            let t = Duration::from_secs(5);
            let got = on_table(6, workers, &[1, 4], |l, me| match me {
                0 | 2 => {
                    Some(l.grow_join(me, 9, 0, &[0, 2], &[3, 4, 5], 2, 1, 40, 6, false, || 77, t))
                }
                3 | 5 => Some(l.grow_standby(me, 9, 0, t)),
                _ => None,
            });
            let a = got[0].clone().unwrap();
            for me in [2, 3, 5] {
                assert_eq!(got[me].as_ref(), Some(&a), "width {workers}, rank {me}");
            }
            assert_eq!(a.recruits, vec![3, 5], "dead spare 4 skipped");
            assert_eq!(a.members, vec![0, 2, 3, 5]);
            assert!(a.pool_left.is_empty());
            assert_eq!(a.token, 77);
            assert_eq!((a.epoch, a.op_seq, a.cookie), (1, 40, 6));
            assert_eq!(a.pending, 0);
            assert!(!a.retire);
        }
    }

    /// One grow round of survivor 0 over base `[0]` and pool `[spare]`,
    /// the spare standing by, on a pool of `workers`: what each saw.
    #[allow(clippy::too_many_arguments)]
    fn grow_pair(
        workers: usize,
        spare: usize,
        pool_id: u32,
        grow_seq: u64,
        want: usize,
        retire: bool,
        token: u32,
    ) -> (GrowOutcome, GrowOutcome) {
        let t = Duration::from_secs(5);
        let got = on_table(spare + 1, workers, &[], |l, me| match me {
            0 => Some(l.grow_join(
                0,
                pool_id,
                grow_seq,
                &[0],
                &[spare],
                want,
                0,
                0,
                0,
                retire,
                || token,
                t,
            )),
            _ if me == spare => Some(l.grow_standby(spare, pool_id, grow_seq, t)),
            _ => None,
        });
        (got[0].clone().unwrap(), got[spare].clone().unwrap())
    }

    #[test]
    fn grow_retire_round_recruits_nobody_and_keeps_pool() {
        for workers in [1, 2] {
            let (a, s2) = grow_pair(workers, 2, 9, 1, 1, true, 5);
            assert_eq!(a, s2, "width {workers}");
            assert!(a.retire, "spares observe the pool closing");
            assert!(a.recruits.is_empty(), "retire never recruits");
            assert_eq!(a.members, vec![0]);
            assert_eq!(a.pool_left, vec![2], "pool survives retire unchanged");
        }
    }

    #[test]
    fn grow_want_clamps_to_live_pool() {
        // One spare, two recruits wanted: grow returns what it can.
        for workers in [1, 2] {
            let (a, s1) = grow_pair(workers, 1, 4, 0, 2, false, 8);
            assert_eq!(a, s1, "width {workers}");
            assert_eq!(a.recruits, vec![1]);
            assert_eq!(a.members, vec![0, 1]);
            assert!(a.pool_left.is_empty());
            assert_eq!(a.pending, 1, "the unfilled slot stays on the books");
        }
    }

    #[test]
    fn wait_error_display_names_peers() {
        let e = WaitError::RankFailed {
            rank: 2,
            failed: 5,
            comm: 1,
            tag: 9,
        };
        assert!(e.to_string().contains("rank 2"));
        assert!(e.to_string().contains("rank 5"));
        assert_eq!(e.peer(), Some(5));
        assert_eq!(e.rank(), 2);
        let t = WaitError::Timeout {
            rank: 0,
            comm: 1,
            src: 2,
            tag: 3,
        };
        assert_eq!(t.peer(), None);
    }
}
