//! The per-rank execution context.

use std::sync::Arc;
use std::time::Duration;

use simnet::{Clock, CostModel, EventKind, LinkClass, RankMap};

use crate::buffer::Buf;
use crate::comm::Communicator;
use crate::elem::ShmElem;
use crate::error::SimError;
use crate::exec::Woke;
use crate::fault::KILL_MARKER;
use crate::ft::{AgreeOutcome, CommitOutcome, FtWatch, GrowOutcome, WaitError};
use crate::hash::KeyMap;
use crate::mailbox::{MatchKey, SlotMap};
use crate::msg::{Packet, Payload};
use crate::request::Drive;
use crate::universe::{DataMode, Shared};

/// Handle through which a rank's program interacts with the simulated
/// machine: messaging, clock, cost charging, buffer construction.
pub struct Ctx {
    global_rank: usize,
    clock: Clock,
    shared: Arc<Shared>,
    oob_seqs: KeyMap<u32, u32>,
    /// Operations executed so far (fault-injection event counter).
    op_count: u64,
    /// Messages sent so far per destination global rank (perturbation
    /// sequence numbers; only maintained when a perturbation is active).
    send_seqs: KeyMap<usize, u64>,
    /// Shared windows allocated so far by this rank (feeds the
    /// deterministic window identity used by the race detector).
    win_seq: u64,
    /// Recovery epoch this rank is currently executing in (0 before any
    /// recovery). Armed wait paths treat a peer whose divert marker
    /// exceeds this epoch as having abandoned the current attempt.
    ft_epoch: u64,
    /// Human-readable label of the operation in flight (fault reporting).
    op_label: String,
    /// Progress-engine state — packets claimed from the mailbox on behalf
    /// of outstanding nonblocking receives, per matching key, FIFO. Every
    /// packet-obtaining path checks the stash before the mailbox, so a
    /// claimed packet can never be stranded.
    stash: SlotMap,
    /// Keys with an outstanding nonblocking receive, in registration
    /// order (the deterministic drain order at park sites).
    watched: Vec<MatchKey>,
    /// Packets the progress engine has claimed so far (diagnostics; lets
    /// tests prove the engine actually engaged).
    progress_claims: u64,
    /// Next nonblocking-request sequence number (trace correlation).
    req_seq: u64,
    /// When set, polls ([`Drive::Poll`] steps, `try_recv`)
    /// deterministically find nothing (see [`Ctx::suppress_claims`]).
    claims_suppressed: bool,
}

/// What travels on the one message path, in either direction: the two
/// things a deposit and a wait are priced, traced and labelled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// A message through the MPI stack: `o_send`/`o_recv` of software
    /// overhead, in transit for the link's α + β·n plus topology and
    /// perturbation extras.
    Msg,
    /// A store to (poll of) a flag in the node's shared cache:
    /// `flag_post_us`/`flag_poll_us`, visible `flag_latency_us` later,
    /// traced as zero on-node bytes.
    Flag,
}

impl Ctx {
    pub(crate) fn new(global_rank: usize, shared: Arc<Shared>) -> Self {
        Self {
            global_rank,
            clock: Clock::new(),
            shared,
            oob_seqs: KeyMap::default(),
            op_count: 0,
            send_seqs: KeyMap::default(),
            win_seq: 0,
            ft_epoch: 0,
            op_label: String::new(),
            stash: SlotMap::default(),
            watched: Vec::new(),
            progress_claims: 0,
            req_seq: 0,
            claims_suppressed: false,
        }
    }

    /// Run `f` with message claims suppressed: every [`Drive::Poll`] step
    /// (and `try_recv`, which is one) finds nothing, while sends, flag
    /// posts, and local work proceed normally.
    ///
    /// This is the determinism guard of the nonblocking starts. Whether
    /// a poll can claim a message depends on how far the *sender* has
    /// progressed in wall-clock — executor-scheduling state that must
    /// never influence virtual time. A claim that succeeds early lets a
    /// state machine stamp its next round's sends with the current
    /// clock; had the claim raced the other way, those sends would carry
    /// the (later) clock of the blocking wait. Suppressing claims pins
    /// every completion to the wait position, so `istart → compute →
    /// wait` yields bit-identical times on every executor.
    pub fn suppress_claims<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.claims_suppressed;
        self.claims_suppressed = true;
        let out = f(self);
        self.claims_suppressed = prev;
        out
    }

    /// Fault-injection hook run at entry to every `Ctx` operation: counts
    /// the op, kills this rank if the plan says so, and (for message
    /// operations under an adversarial schedule) injects a seeded
    /// wall-clock sleep. Wall-clock sleeps are invisible to virtual time
    /// by construction — the clock only advances by modeled costs.
    #[inline]
    fn fault_step(&mut self, message_op: bool) {
        if self.shared.fault.is_none() {
            return;
        }
        let op = self.op_count;
        self.op_count += 1;
        let fault = &self.shared.fault;
        if let Some(ft) = &self.shared.ft {
            ft.bump_beat(self.global_rank);
        }
        let mut kill_at = fault.kill_op_of(self.global_rank);
        if !fault.node_kills.is_empty() {
            let node_at = fault.node_kill_op_of(self.shared.map.node_of(self.global_rank));
            kill_at = match (kill_at, node_at) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        if let Some(at) = kill_at {
            if op >= at {
                // Mark death *before* unwinding: every message this rank
                // pushed happened-before the mark (mailbox mutex), so an
                // observer that sees the mark and drains once more loses
                // nothing. Also publish the interrupted op's label so the
                // failure report names the collective (not just an index).
                if let Some(ft) = &self.shared.ft {
                    ft.mark_dead(self.global_rank);
                }
                self.shared.set_op_label(self.global_rank, &self.op_label);
                let during = if self.op_label.is_empty() {
                    String::new()
                } else {
                    format!(" during {}", self.op_label)
                };
                panic!(
                    "{KILL_MARKER}: rank {} killed at op {op}{during}",
                    self.global_rank
                );
            }
        }
        if message_op {
            if let Some(d) = fault.sched_sleep(self.global_rank, op) {
                std::thread::sleep(d);
            }
        }
    }

    /// Perturbation outcome for the next message to `global_dst`: extra
    /// modeled wire latency (µs, including deterministic retransmit
    /// penalties under transport loss) and whether the message is
    /// delivered at all (false once every retransmission attempt was
    /// dropped). `(0.0, true)` when unperturbed.
    fn perturb_transit(&mut self, global_dst: usize) -> (f64, bool) {
        let perturb = &self.shared.fault.perturb;
        if perturb.is_none() {
            return (0.0, true);
        }
        let seq = self.send_seqs.entry(global_dst).or_insert(0);
        let s = *seq;
        *seq += 1;
        let perturb = &self.shared.fault.perturb;
        let mut extra = perturb.message_extra(self.global_rank, global_dst, s);
        let mut delivered = true;
        if perturb.has_drops() {
            // Seeded per-attempt loss with sender-side retransmission:
            // each failed attempt charges a deterministic (optionally
            // jittered), exponentially backed-off virtual timeout; when
            // every attempt is lost the message is simply never pushed
            // (the receiver's deadline path reports `WaitError::Timeout`).
            // Each attempt is evaluated at the virtual time it would
            // actually fire — the send time plus the penalty accrued by
            // the earlier attempts — so retransmissions can outlive a
            // partition window or a link flap's down phase.
            let retry = &self.shared.fault.retry;
            let src_node = self.shared.map.node_of(self.global_rank);
            let dst_node = self.shared.map.node_of(global_dst);
            let t_send = self.clock.now();
            let mut penalty = 0.0;
            let mut timeout = retry.timeout_us;
            delivered = false;
            for attempt in 0..=retry.max_retries {
                let lost = perturb.attempt_lost(
                    self.global_rank,
                    global_dst,
                    s,
                    attempt,
                    src_node,
                    dst_node,
                    t_send + penalty,
                );
                if !lost {
                    delivered = true;
                    break;
                }
                penalty += timeout + retry.jitter_for(self.global_rank, global_dst, s, attempt);
                timeout *= retry.backoff;
            }
            extra += penalty;
        }
        (extra, delivered)
    }

    /// Global rank (position in `MPI_COMM_WORLD`).
    pub fn rank(&self) -> usize {
        self.global_rank
    }

    /// Total number of ranks in the universe.
    pub fn nranks(&self) -> usize {
        self.shared.map.nranks()
    }

    /// The node this rank lives on.
    pub fn node(&self) -> usize {
        self.shared.map.node_of(self.global_rank)
    }

    /// The rank→node map.
    pub fn map(&self) -> &RankMap {
        &self.shared.map
    }

    /// The cluster cost model.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Whether buffers/payloads carry real data or sizes only.
    pub fn mode(&self) -> DataMode {
        self.shared.mode
    }

    /// Convenience: true in phantom (size-only) universes.
    pub fn mode_is_phantom(&self) -> bool {
        self.shared.mode == DataMode::Phantom
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Reset this rank's virtual clock to zero (benchmark harness use;
    /// always pair with a barrier so all ranks reset together).
    pub fn reset_clock(&mut self) {
        self.clock.reset();
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> Communicator {
        Communicator {
            inner: self.shared.world.clone(),
            local_rank: self.global_rank,
        }
    }

    /// Charge `flops` of modeled computation to this rank's clock. A
    /// fault-injection perturbation may scale this rank's compute time
    /// (modeling a slow core).
    pub fn compute(&mut self, flops: f64) {
        self.fault_step(false);
        let dt = self.shared.cost.compute(flops)
            * self.shared.fault.perturb.compute_scale_of(self.global_rank);
        self.clock.advance(dt);
        self.shared.tracer.record(
            self.global_rank,
            self.clock.now(),
            EventKind::Compute { flops },
        );
    }

    /// Charge a raw amount of CPU time (µs) — for software overheads that
    /// are neither messages, copies nor flops (e.g. argument vector
    /// processing in irregular collectives).
    pub fn charge_time(&mut self, us: f64) {
        self.clock.advance(us);
    }

    /// Charge an explicit memcpy of `bytes` through shared memory.
    pub fn charge_copy(&mut self, bytes: usize) {
        let dt = self.shared.cost.copy(bytes);
        self.clock.advance(dt);
        self.shared.tracer.record(
            self.global_rank,
            self.clock.now(),
            EventKind::Copy { bytes },
        );
    }

    /// A zero-initialized buffer respecting the universe's data mode.
    pub fn buf_zeroed<T: ShmElem>(&self, len: usize) -> Buf<T> {
        match self.shared.mode {
            DataMode::Real => Buf::Real(vec![T::default(); len]),
            DataMode::Phantom => Buf::Phantom(len),
        }
    }

    /// A buffer initialized by `f(i)` (real mode) or size-only (phantom).
    pub fn buf_from_fn<T: ShmElem>(&self, len: usize, f: impl FnMut(usize) -> T) -> Buf<T> {
        match self.shared.mode {
            DataMode::Real => Buf::Real((0..len).map(f).collect()),
            DataMode::Phantom => Buf::Phantom(len),
        }
    }

    /// Post a message to communicator-local rank `dst`. Eager/buffered:
    /// never blocks. Charges the sender's software overhead and computes
    /// the packet's arrival time from the link's α/β.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or the payload's data mode
    /// contradicts the universe's.
    pub fn send(&mut self, comm: &Communicator, dst: usize, tag: u32, payload: Payload) {
        self.deposit(comm, Some(dst), tag, Wire::Msg, payload);
    }

    /// The one way a packet leaves this rank: fault step, CPU charge and
    /// arrival stamp, trace, race release, heartbeat, mailbox push, probe
    /// — for a message, a shared flag, or (`dst: None`, flags only) one
    /// flag store that every other member of `comm` observes. A
    /// [`Wire::Msg`] has exactly one destination and hands it `payload`;
    /// a flag carries none.
    fn deposit(
        &mut self,
        comm: &Communicator,
        dst: Option<usize>,
        tag: u32,
        wire: Wire,
        mut payload: Payload,
    ) {
        self.fault_step(true);
        let me = self.global_rank;
        let dsts = dst.map_or(0..comm.size(), |d| d..d + 1);
        match wire {
            Wire::Msg => {
                assert!(
                    dsts.end <= comm.size(),
                    "send destination {} out of range (comm size {})",
                    dsts.start,
                    comm.size()
                );
                match (self.shared.mode, &payload) {
                    (DataMode::Real, Payload::Phantom(n)) if *n > 0 => {
                        panic!("phantom payload sent in a real-mode universe")
                    }
                    (DataMode::Phantom, Payload::Real(b)) if !b.is_empty() => {
                        panic!("real payload sent in a phantom-mode universe")
                    }
                    _ => {}
                }
            }
            Wire::Flag => {
                for d in dsts.clone() {
                    assert_eq!(
                        self.shared.map.node_of(comm.global_of(d)),
                        self.node(),
                        "shared flags only work between on-node ranks"
                    );
                }
            }
        }
        let bytes = payload.len();
        let (overhead, what) = match wire {
            Wire::Msg => (self.shared.cost.o_send, "send"),
            Wire::Flag => (self.shared.cost.flag_post_us, "flag"),
        };
        self.clock.advance(overhead);
        // One cache-line store is one release event: a multicast takes a
        // single clock snapshot (and tick), shared by every observer's
        // packet — and takes it even when nobody observes.
        let mut vc = match (&self.shared.race, dst) {
            (Some(r), None) => Some(r.on_send(me, format!("flag multicast tag {tag}"))),
            _ => None,
        };
        let beat = self.shared.ft.as_ref().map(|ft| ft.current_beat(me));
        let key = (comm.id(), comm.rank() as u32, tag);
        for d in dsts {
            if dst.is_none() && d == comm.rank() {
                continue;
            }
            let global_dst = comm.global_of(d);
            let (arrival, intra, delivered) = match wire {
                Wire::Msg => {
                    let link = self.shared.map.link(me, global_dst);
                    // Inter-node messages may pay a topology surcharge
                    // (dragonfly group crossing).
                    let topo_extra = if link == LinkClass::Network {
                        self.shared.cost.topology.group_extra(
                            self.shared.map.node_of(me),
                            self.shared.map.node_of(global_dst),
                        )
                    } else {
                        0.0
                    };
                    let (perturb_extra, delivered) = self.perturb_transit(global_dst);
                    let arrival = self.clock.now()
                        + self.shared.cost.transit(link, bytes)
                        + topo_extra
                        + perturb_extra;
                    (arrival, link == LinkClass::SharedMem, delivered)
                }
                // Flags model a write to the shared last-level cache:
                // they bypass the messaging stack and the wire.
                Wire::Flag => (
                    self.clock.now() + self.shared.cost.flag_latency_us,
                    true,
                    true,
                ),
            };
            self.shared.tracer.record(
                me,
                self.clock.now(),
                EventKind::Send {
                    to: global_dst,
                    bytes,
                    intra,
                },
            );
            if !delivered {
                // Lost in transit past all retransmissions: the sender moves
                // on (eager semantics); detection is the receiver's job.
                continue;
            }
            if let (Some(r), Some(_)) = (&self.shared.race, dst) {
                vc = Some(r.on_send(me, format!("{what} to g{global_dst} tag {tag}")));
            }
            self.shared.mailboxes[global_dst].push(
                key,
                Packet {
                    payload: std::mem::replace(&mut payload, Payload::Phantom(0)),
                    arrival,
                    vc: vc.clone(),
                    beat,
                },
            );
            // Every destination gets its own push op: a multicast's match
            // key is shared across observers, so `dst` is what pairs each
            // observer's pop with it.
            if let Some(p) = &self.shared.probe {
                p.record(crate::mcheck::Op::Push {
                    key,
                    dst: global_dst,
                });
            }
        }
    }

    /// Blocking receive of the message from communicator-local rank `src`
    /// with tag `tag`. Advances the clock to
    /// `max(now + o_recv, arrival)`.
    ///
    /// # Panics
    /// Panics (with a [`SimError::DeadlockSuspected`] payload the universe
    /// converts into an error) if no matching message shows up within the
    /// configured timeout.
    pub fn recv(&mut self, comm: &Communicator, src: usize, tag: u32) -> Payload {
        match self.wait(comm, src, tag, Wire::Msg, Drive::Block) {
            Ok(Some(payload)) => payload,
            _ => unreachable!("a blocking wait returns with its packet or unwinds"),
        }
    }

    /// Deadline-aware receive: like [`Ctx::recv`] but returns a typed
    /// [`WaitError`] (peer dead, peer diverted into recovery, or — under
    /// transport loss — detection timeout) instead of parking forever.
    /// With fault tolerance disarmed it still converts a wait exceeding
    /// the detection timeout into [`WaitError::Timeout`].
    pub fn recv_deadline(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: u32,
    ) -> Result<Payload, WaitError> {
        self.wait(comm, src, tag, Wire::Msg, Drive::Deadline)
            .map(|p| p.expect("a deadline wait returns its packet or an error"))
    }

    /// Register an outstanding nonblocking interest in `key`: the
    /// progress engine will claim matching packets at every park site.
    fn watch(&mut self, key: MatchKey) {
        if !self.watched.contains(&key) {
            self.watched.push(key);
        }
    }

    /// Drop the progress-engine interest in `key` (its packet was
    /// consumed). A stale entry would be harmless — claimed packets are
    /// found by every receive path — but unbounded growth would not be.
    fn unwatch(&mut self, key: MatchKey) {
        if let Some(pos) = self.watched.iter().position(|k| *k == key) {
            self.watched.remove(pos);
        }
    }

    /// The progress engine: claim every immediately-available packet for
    /// the watched keys into the stash. Called at every park site (the
    /// places a rank is about to block), so outstanding nonblocking
    /// requests advance whenever the rank yields. Claiming is invisible
    /// to virtual time, tracing, races and fault accounting — all of that
    /// happens at `finish`, using the packet's own fields — so the
    /// engine can never perturb a deterministic schedule.
    pub(crate) fn drain_progress(&mut self) {
        if self.watched.is_empty() {
            return;
        }
        let mailbox = &self.shared.mailboxes[self.global_rank];
        for i in 0..self.watched.len() {
            let key = self.watched[i];
            while let Ok(p) = mailbox.pop(key, Duration::ZERO) {
                self.stash.push_back(key, p);
                self.progress_claims += 1;
            }
        }
    }

    /// Packets the progress engine has claimed so far on this rank.
    pub fn progress_claims(&self) -> u64 {
        self.progress_claims
    }

    /// Outstanding nonblocking state on this rank: progress-engine
    /// interests still registered plus claimed-but-unconsumed packets in
    /// the stash. Zero once every posted request has been waited (or
    /// dropped after its packet was consumed) — the chaos harness pins
    /// this after every campaign round.
    pub fn open_interests(&self) -> usize {
        self.watched.len() + self.stash.len()
    }

    /// Nonblocking receive attempt: complete the message from `src` with
    /// `tag` if it is already available (stashed by the progress engine
    /// or sitting in the mailbox), else return `None` **without any
    /// side effect** — no clock charge, no trace event, no fault-plan op.
    /// A successful `try_recv` is bit-identical to a blocking
    /// [`Ctx::recv`] of the same message, which is what makes
    /// `istart → poll… → wait` equivalent to the blocking call.
    pub fn try_recv(&mut self, comm: &Communicator, src: usize, tag: u32) -> Option<Payload> {
        self.wait(comm, src, tag, Wire::Msg, Drive::Poll)
            .expect("a poll raises no wait error")
    }

    /// One receive step under a [`Drive`] mode — the primitive the
    /// split-phase collective state machines are written against:
    ///
    /// * [`Drive::Poll`] → `Ok(None)` when the message has not arrived
    ///   (free, invisible), `Ok(Some(_))` when it completed;
    /// * [`Drive::Block`] → always `Ok(Some(_))` (plain [`Ctx::recv`]);
    /// * [`Drive::Deadline`] → [`Ctx::recv_deadline`]'s typed
    ///   [`WaitError`]s instead of parking forever.
    pub fn step_recv(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: u32,
        how: Drive,
    ) -> Result<Option<Payload>, WaitError> {
        self.wait(comm, src, tag, Wire::Msg, how)
    }

    /// One flag-wait step under a [`Drive`] mode (see [`Ctx::step_recv`]),
    /// with flag-poll cost accounting (see [`Ctx::wait_flag`]); `Ok(true)`
    /// when the flag was consumed.
    pub fn step_wait_flag(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: u32,
        how: Drive,
    ) -> Result<bool, WaitError> {
        Ok(self.wait(comm, src, tag, Wire::Flag, how)?.is_some())
    }

    /// The one way a packet reaches this rank's program: match `(comm,
    /// src, tag)` against the stash (packets the progress engine already
    /// claimed), then the mailbox, as `how` says, and account for the
    /// completion ([`Ctx::finish`]).
    ///
    /// * [`Drive::Poll`] looks once. A hit is a fault op *after* the
    ///   match. A miss has no side effect but a progress-engine interest
    ///   and the probe's `PollMiss` (the matching push may or may not
    ///   have happened yet, so the model checker treats the poll as
    ///   dependent with it); under [`Ctx::suppress_claims`] not even those.
    /// * [`Drive::Block`] and [`Drive::Deadline`] are a fault op *before*
    ///   the match. They park on the mailbox until the packet is pushed
    ///   or the pool has stalled for the wait's budget: the deadlock
    ///   timeout, or the detection timeout for `Deadline` and wherever
    ///   transport loss could starve the wait. Disarmed, an expired
    ///   `Block` unwinds with [`SimError::DeadlockSuspected`] and an
    ///   expired `Deadline` returns [`WaitError::Timeout`]. Armed, both
    ///   check the awaited peer in the liveness table before they park,
    ///   and a death or divert wakes them to check again: a peer seen
    ///   dead or diverted past this rank's epoch gets **one final look**
    ///   (its last pushes happened-before the mark) before the typed
    ///   error is raised. An armed expiry is [`WaitError::Timeout`] under
    ///   transport loss and a deadlock otherwise. `Deadline` returns a
    ///   typed error; `Block`, which cannot, unwinds with it as the
    ///   payload, so a fault-aware driver above can `catch_unwind` and
    ///   recover while an unaware program aborts naming the peer, not a
    ///   deadlock.
    fn wait(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: u32,
        wire: Wire,
        how: Drive,
    ) -> Result<Option<Payload>, WaitError> {
        let polled = how == Drive::Poll;
        if !polled {
            self.fault_step(true);
        }
        if wire == Wire::Msg {
            assert!(
                src < comm.size(),
                "recv source {src} out of range (comm size {})",
                comm.size()
            );
        }
        if polled && self.claims_suppressed {
            return Ok(None);
        }
        let key = (comm.id(), src as u32, tag);
        let me = self.global_rank;
        let armed = !polled && self.shared.ft.is_some();
        // Whether an expiry is a detection timeout rather than a
        // deadlock: loss can starve an armed wait (drops arm fault
        // tolerance), and a disarmed deadline wait has nothing else to
        // detect.
        let detects = if armed {
            self.shared.fault.perturb.has_drops()
        } else {
            how == Drive::Deadline
        };
        let budget = match how {
            Drive::Poll => Duration::ZERO,
            _ if detects => self.shared.fault.detect_timeout(),
            _ => self.shared.recv_timeout,
        };
        // A typed error ends an infallible wait by unwinding with it.
        let raise = |e: WaitError| match how {
            Drive::Block => std::panic::panic_any(e),
            _ => Err(e),
        };
        // Set once the awaited peer is seen dead or diverted: the wait's
        // outcome unless one final look (stash first — the engine may
        // have claimed the victim's last push — then the mailbox) still
        // finds the packet.
        let mut verdict: Option<WaitError> = None;
        let packet = loop {
            if !polled {
                self.drain_progress();
            }
            if armed && verdict.is_none() {
                verdict = self.check_peer(comm, comm.global_of(src), tag).err();
            }
            let budget = if verdict.is_some() {
                Duration::ZERO
            } else {
                budget
            };
            let found = match self.stash.pop_front(key) {
                Some(packet) => Ok(packet),
                None => self.shared.mailboxes[me].pop(key, budget),
            };
            let woke = match found {
                Ok(packet) => break packet,
                Err(woke) => woke,
            };
            if let Some(e) = verdict {
                return raise(e);
            }
            // Woken without the packet (a death, a divert, a stale wake
            // token): look again. Expired: the pool stalled the budget.
            if woke == Woke::Signal {
                continue;
            }
            return match how {
                Drive::Poll => {
                    if let Some(p) = &self.shared.probe {
                        p.record(crate::mcheck::Op::PollMiss { key, dst: me });
                    }
                    self.watch(key);
                    Ok(None)
                }
                _ if detects => raise(WaitError::Timeout {
                    rank: me,
                    comm: comm.id(),
                    src,
                    tag,
                }),
                _ => std::panic::panic_any(SimError::DeadlockSuspected {
                    rank: me,
                    comm: comm.id(),
                    src,
                    tag,
                }),
            };
        };
        self.unwatch(key);
        if polled {
            self.fault_step(true);
        }
        Ok(Some(self.finish(comm, src, tag, wire, packet, polled)))
    }

    /// Completion half of every wait: clock advance (`o_recv` through
    /// the messaging stack, `flag_poll_us` for a flag), trace, race edge,
    /// heartbeat fold. `polled` marks a nonblocking match: the model
    /// checker must see those distinctly, because scheduling the poller
    /// before the push turns the hit into a miss — a real schedule
    /// divergence — whereas a blocking wait just waits.
    ///
    /// Never inlined: `wait`'s frame sits on the stack of every parked
    /// rank, and with this body's locals folded into it a few ranks of a
    /// 4096-rank universe reach one more stack page (`scale_events` peak
    /// RSS: medians 25.50–25.54 MiB against 25.52–25.58 inlined, lower
    /// in 8 of 10 alternating pairs).
    #[inline(never)]
    fn finish(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: u32,
        wire: Wire,
        packet: Packet,
        polled: bool,
    ) -> Payload {
        let me = self.global_rank;
        let global_src = comm.global_of(src);
        let (overhead, bytes, intra, what) = match wire {
            Wire::Msg => (
                self.shared.cost.o_recv,
                packet.payload.len(),
                self.shared.map.link(me, global_src) == LinkClass::SharedMem,
                "recv",
            ),
            Wire::Flag => (self.shared.cost.flag_poll_us, 0, true, "flag"),
        };
        self.clock.advance(overhead);
        self.clock.advance_to(packet.arrival);
        self.shared.tracer.record(
            me,
            self.clock.now(),
            EventKind::Recv {
                from: global_src,
                bytes,
                intra,
            },
        );
        if let Some(r) = &self.shared.race {
            r.on_recv(
                me,
                packet.vc.as_ref(),
                format!("{what} from g{global_src} tag {tag}"),
            );
        }
        if let (Some(ft), Some(beat)) = (&self.shared.ft, packet.beat) {
            ft.observe_beat(global_src, beat);
        }
        if let Some(p) = &self.shared.probe {
            let key = (comm.id(), src as u32, tag);
            p.record(if polled {
                crate::mcheck::Op::PollHit { key, dst: me }
            } else {
                crate::mcheck::Op::Pop { key, dst: me }
            });
        }
        packet.payload
    }

    /// A **zero-virtual-cost** rendezvous over `comm`: all members block
    /// (in wall-clock time) until everyone has arrived, but no virtual
    /// time is charged.
    ///
    /// This exists because the simulator interleaves ranks in wall-clock
    /// time: virtual-time synchronization (barriers) orders the *model*,
    /// but a rank that lags in wall-clock time could observe a shared window
    /// being rewritten by the next iteration. Placing an `oob_fence`
    /// before window-reuse writes makes real-data runs deterministic
    /// without perturbing the modeled timings. (On a real MPI system this
    /// role is played by the collective's own synchronization semantics.)
    pub fn oob_fence(&mut self, comm: &Communicator) {
        let seq = self.next_oob_seq(comm.id());
        self.drain_progress();
        let shared = Arc::clone(&self.shared);
        let key = (comm.id(), seq, crate::oob::KIND_FENCE);
        if let Some(r) = &shared.race {
            r.fence_deposit(self.global_rank, key, comm.size());
        }
        let watch = self.ft_watch(comm);
        if let Some(p) = &shared.probe {
            p.record(crate::mcheck::Op::OobDeposit { key });
        }
        shared.board.rendezvous(
            &shared.exec,
            self.rank(),
            key,
            comm.rank(),
            comm.size(),
            (),
            shared.recv_timeout,
            watch.as_ref(),
            |_| (),
        );
        if let Some(p) = &shared.probe {
            p.record(crate::mcheck::Op::OobJoin { key });
        }
        if let Some(r) = &shared.race {
            r.fence_join(self.global_rank, key, format!("oob fence #{seq}"));
        }
    }

    /// A **zero-virtual-cost** all-to-all value exchange over `comm`, for
    /// one-off *setup* computations: every member deposits `value`; the
    /// last member to arrive runs `finish` once over all deposits (sorted
    /// by communicator-local rank); everyone receives the same
    /// `Arc`-shared result.
    ///
    /// This is the scalability primitive behind topology discovery
    /// (`Hierarchy`-style grouping): computing a node grouping needs
    /// every rank's placement, but doing that *per rank* is O(p) work and
    /// O(p) memory times p ranks — quadratic, and the wall that kept
    /// phantom sweeps under ~4k ranks. Exchanging through the rendezvous
    /// board computes the grouping **once** per communicator and hands
    /// every rank an `Arc` to it. Like the other setup collectives
    /// (`MPI_Comm_split`, `MPI_Win_allocate_shared`), it charges no
    /// virtual time — the paper excludes one-off setup from measurements.
    ///
    /// # Panics
    /// Panics on timeout (not all members made the same call — an SPMD
    /// bug) exactly like the other setup collectives.
    pub fn setup_exchange<V, R>(
        &mut self,
        comm: &Communicator,
        value: V,
        finish: impl FnOnce(Vec<(usize, V)>) -> R,
    ) -> Arc<R>
    where
        V: Send + 'static,
        R: Send + Sync + 'static,
    {
        let seq = self.next_oob_seq(comm.id());
        self.drain_progress();
        let shared = Arc::clone(&self.shared);
        let key = (comm.id(), seq, crate::oob::KIND_SETUP);
        if let Some(r) = &shared.race {
            r.fence_deposit(self.global_rank, key, comm.size());
        }
        let watch = self.ft_watch(comm);
        if let Some(p) = &shared.probe {
            p.record(crate::mcheck::Op::OobDeposit { key });
        }
        let result = shared.board.rendezvous(
            &shared.exec,
            self.rank(),
            key,
            comm.rank(),
            comm.size(),
            value,
            shared.recv_timeout,
            watch.as_ref(),
            finish,
        );
        if let Some(p) = &shared.probe {
            p.record(crate::mcheck::Op::OobJoin { key });
        }
        if let Some(r) = &shared.race {
            r.fence_join(self.global_rank, key, format!("setup exchange #{seq}"));
        }
        result
    }

    /// Post a shared synchronization flag for communicator-local rank
    /// `dst`, which must be on the same node. Flags model a write to the
    /// shared last-level cache: they bypass the MPI messaging stack, so
    /// they only cost [`simnet::CostModel::flag_post_us`] plus a cache
    /// propagation latency — the "light-weight" synchronization of the
    /// paper's §6.
    ///
    /// # Panics
    /// Panics if `dst` lives on a different node.
    pub fn post_flag(&mut self, comm: &Communicator, dst: usize, tag: u32) {
        self.deposit(comm, Some(dst), tag, Wire::Flag, Payload::Phantom(0));
    }

    /// Post a single shared flag observed by **every** other member of
    /// `comm` (all of whom must be on this node): one cache-line write
    /// that any number of pollers can see, so the CPU cost is charged
    /// once regardless of the member count.
    ///
    /// # Panics
    /// Panics if any member lives on a different node.
    pub fn post_flag_multicast(&mut self, comm: &Communicator, tag: u32) {
        self.deposit(comm, None, tag, Wire::Flag, Payload::Phantom(0));
    }

    /// Wait for a flag posted by communicator-local rank `src` (same-node).
    pub fn wait_flag(&mut self, comm: &Communicator, src: usize, tag: u32) {
        let consumed = self.wait(comm, src, tag, Wire::Flag, Drive::Block);
        debug_assert!(matches!(consumed, Ok(Some(_))), "a blocking wait unwinds");
    }

    /// Send region `[off, off+len)` of `buf` to `dst`.
    pub fn send_region<T: ShmElem>(
        &mut self,
        comm: &Communicator,
        dst: usize,
        tag: u32,
        buf: &Buf<T>,
        off: usize,
        len: usize,
    ) {
        let payload = buf.payload(off, len);
        self.send(comm, dst, tag, payload);
    }

    /// Post a nonblocking receive. Matching and completion are deferred
    /// to [`RecvRequest::wait`]; because the clock only advances at the
    /// wait, a receive posted early and waited late models genuine
    /// communication/computation overlap.
    pub fn irecv(&mut self, comm: &Communicator, src: usize, tag: u32) -> RecvRequest {
        assert!(
            src < comm.size(),
            "irecv source {src} out of range (comm size {})",
            comm.size()
        );
        RecvRequest::new(comm.clone(), src, tag)
    }

    /// Nonblocking send. Sends in this runtime are always eager, so this
    /// is the plain send returning a (trivially complete) request — the
    /// MPI shape, for programs written in Isend/Irecv/Wait style.
    pub fn isend(
        &mut self,
        comm: &Communicator,
        dst: usize,
        tag: u32,
        payload: Payload,
    ) -> SendRequest {
        self.send(comm, dst, tag, payload);
        SendRequest { _done: true }
    }

    /// Record a barrier completion in the trace (called by barrier
    /// implementations after their last message).
    pub fn trace_barrier(&self) {
        self.shared
            .tracer
            .record(self.global_rank, self.clock.now(), EventKind::Barrier);
    }

    /// Record an algorithm-selection decision (policy layer). Charges no
    /// virtual time — selection is free, only the chosen schedule costs.
    pub fn trace_decision(&self, op: &str, algo: &str, why: &str) {
        self.shared
            .tracer
            .record_with(self.global_rank, self.clock.now(), || EventKind::Decision {
                op: op.to_string(),
                algo: algo.to_string(),
                why: why.to_string(),
            });
    }

    /// Record the start of a nonblocking request and return its per-rank
    /// sequence id (deterministic across runs and executors — it counts
    /// this rank's request starts in program order). Charges no virtual
    /// time; recorded **only** by nonblocking entry points, so blocking
    /// programs keep byte-identical traces.
    pub fn trace_req_start(&mut self, op: &str) -> u64 {
        let id = self.req_seq;
        self.req_seq += 1;
        self.shared
            .tracer
            .record_with(self.global_rank, self.clock.now(), || EventKind::ReqStart {
                op: op.to_string(),
                id,
            });
        id
    }

    /// Record the completion of the nonblocking request `id` (pairs with
    /// [`Ctx::trace_req_start`]). Charges no virtual time.
    pub fn trace_req_complete(&self, op: &str, id: u64) {
        self.shared
            .tracer
            .record_with(self.global_rank, self.clock.now(), || {
                EventKind::ReqComplete {
                    op: op.to_string(),
                    id,
                }
            });
    }

    /// Whether the fault-tolerance machinery is armed for this run (some
    /// rank can die or messages can be lost).
    pub fn ft_armed(&self) -> bool {
        self.shared.ft.is_some()
    }

    /// Label the operation about to run (e.g. `"allgatherv"`), for fault
    /// reports: an injected kill names the interrupted collective, and
    /// executor failures carry the victim's last label. Free.
    pub fn set_op_label(&mut self, label: &str) {
        self.op_label.clear();
        self.op_label.push_str(label);
        self.shared.set_op_label(self.global_rank, label);
    }

    /// The current operation label (empty when none was set).
    pub fn op_label(&self) -> &str {
        &self.op_label
    }

    /// Recovery epoch this rank is executing in (0 before any recovery).
    pub fn ft_epoch(&self) -> u64 {
        self.ft_epoch
    }

    /// Enter recovery epoch `epoch` (called by the recovery driver after
    /// consensus). Armed waits thereafter ignore divert markers `<= epoch`.
    pub fn set_ft_epoch(&mut self, epoch: u64) {
        self.ft_epoch = epoch;
    }

    /// Announce that this rank is abandoning the current attempt and
    /// entering recovery epoch `epoch` — peers blocked on this rank then
    /// observe `WaitError::PeerDiverted` instead of hanging. No-op when
    /// disarmed.
    pub fn ft_divert(&mut self, epoch: u64) {
        if let Some(ft) = &self.shared.ft {
            ft.divert(self.global_rank, epoch);
        }
    }

    /// `Comm_agree` over `comm`: block until every member is registered
    /// or dead, returning the consensus dead set and a fresh communicator
    /// token (identical on every survivor). `gen` is the recovery epoch
    /// being agreed on; zero virtual cost.
    ///
    /// # Panics
    /// Panics when fault tolerance is disarmed.
    pub fn ft_agree(&mut self, comm: &Communicator, gen: u64) -> AgreeOutcome {
        let ft = Arc::clone(
            self.shared
                .ft
                .as_ref()
                .expect("ft_agree requires an armed fault plan"),
        );
        let shared = Arc::clone(&self.shared);
        ft.agree(
            self.global_rank,
            comm.id(),
            gen,
            comm.members(),
            || {
                shared
                    .next_comm_id
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            },
            shared.recv_timeout,
        )
    }

    /// Grow roll-call (survivor side): recruit up to `want` replacement
    /// ranks from the respawn `pool` into the membership `base`, blocking
    /// until every survivor and every pooled spare has registered on the
    /// board for `grow_seq` (or died). Returns the published
    /// [`GrowOutcome`] — identical on every participant — carrying the
    /// regrown member list, the recruits, the remaining pool and a fresh
    /// communicator token. `op_seq` and `cookie` are echoed into the
    /// outcome so recruits can adopt the survivors' protected-op sequence
    /// and resume the elastic driver at the right round; `retire = true`
    /// closes the pool instead of recruiting. Zero virtual cost.
    ///
    /// # Panics
    /// Panics when fault tolerance is disarmed.
    #[allow(clippy::too_many_arguments)]
    pub fn ft_grow(
        &mut self,
        pool_id: u32,
        grow_seq: u64,
        base: &[usize],
        pool: &[usize],
        want: usize,
        op_seq: u64,
        cookie: u64,
        retire: bool,
    ) -> GrowOutcome {
        // A grow round is an observable step in the rank's op stream, so
        // scheduled kills can land exactly on it (chaos campaigns kill
        // ranks *during* recovery).
        self.fault_step(false);
        let ft = Arc::clone(
            self.shared
                .ft
                .as_ref()
                .expect("ft_grow requires an armed fault plan"),
        );
        let shared = Arc::clone(&self.shared);
        ft.grow_join(
            self.global_rank,
            pool_id,
            grow_seq,
            base,
            pool,
            want,
            self.ft_epoch,
            op_seq,
            cookie,
            retire,
            || {
                shared
                    .next_comm_id
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            },
            shared.recv_timeout,
        )
    }

    /// Grow roll-call (spare side): park on the board for `grow_seq`
    /// until some survivor publishes the outcome. The spare then checks
    /// [`GrowOutcome::recruits`] for its own rank and
    /// [`GrowOutcome::retire`] to decide whether to join, keep waiting on
    /// the next sequence, or exit. Zero virtual cost.
    ///
    /// # Panics
    /// Panics when fault tolerance is disarmed.
    pub fn ft_grow_standby(&mut self, pool_id: u32, grow_seq: u64) -> GrowOutcome {
        self.fault_step(false);
        let ft = Arc::clone(
            self.shared
                .ft
                .as_ref()
                .expect("ft_grow_standby requires an armed fault plan"),
        );
        ft.grow_standby(
            self.global_rank,
            pool_id,
            grow_seq,
            self.shared.recv_timeout,
        )
    }

    /// Per-operation commit roll-call over `comm` (see
    /// [`crate::ft::CommitOutcome`]): returns `AllOk` when every member
    /// completed protected operation `op_seq`, `Diverted` when some
    /// member died or entered recovery mid-operation. Trivially `AllOk`
    /// when disarmed. Zero virtual cost.
    pub fn ft_commit(&mut self, comm: &Communicator, op_seq: u64) -> CommitOutcome {
        let Some(ft) = self.shared.ft.as_ref().map(Arc::clone) else {
            return CommitOutcome::AllOk;
        };
        ft.commit(
            self.global_rank,
            comm.id(),
            op_seq,
            self.ft_epoch,
            comm.members(),
            self.shared.recv_timeout,
        )
    }

    /// Watch handle over `comm`'s members for the armed setup-collective
    /// wait paths (`None` when disarmed).
    pub(crate) fn ft_watch(&self, comm: &Communicator) -> Option<FtWatch> {
        self.shared.ft.as_ref().map(|ft| FtWatch {
            live: Arc::clone(ft),
            members: comm.members().to_vec(),
            epoch: self.ft_epoch,
        })
    }

    /// Typed liveness probe over `comm` for nonblocking wait loops
    /// ([`crate::Request::ft_check`]): `Err` with the same [`WaitError`]
    /// the blocking paths raise when some member (excluding this rank) is
    /// dead or diverted past this rank's epoch, `Ok` when disarmed or all
    /// members are live. Free — reads the failure detector's shared state
    /// without advancing clock, trace, or fault ops. `tag` labels the
    /// pending wait in the error. Deterministic: the lowest-ranked failed
    /// member is reported, death taking precedence over divert.
    pub fn ft_check_comm(&self, comm: &Communicator, tag: u32) -> Result<(), WaitError> {
        if self.shared.ft.is_none() {
            return Ok(());
        }
        let others = comm.members().iter().filter(|&&m| m != self.global_rank);
        others
            .copied()
            .try_for_each(|m| self.check_peer(comm, m, tag))
    }

    /// The typed error every wait on global rank `peer` raises once the
    /// failure detector has seen it dead or diverted past this rank's
    /// epoch (death taking precedence); `Ok` while it is live or when
    /// disarmed. `comm` and `tag` label the pending wait.
    fn check_peer(&self, comm: &Communicator, peer: usize, tag: u32) -> Result<(), WaitError> {
        let (rank, comm) = (self.global_rank, comm.id());
        match &self.shared.ft {
            Some(ft) if ft.is_dead(peer) => Err(WaitError::RankFailed {
                rank,
                failed: peer,
                comm,
                tag,
            }),
            Some(ft) if ft.diverted_past(peer, self.ft_epoch) => Err(WaitError::PeerDiverted {
                rank,
                peer,
                comm,
                tag,
            }),
            _ => Ok(()),
        }
    }

    /// Highest heartbeat epoch observed from `rank` (failure-detector
    /// diagnostics; `None` when disarmed).
    pub fn ft_last_seen(&self, rank: usize) -> Option<u64> {
        self.shared.ft.as_ref().map(|ft| ft.last_seen(rank))
    }

    /// Record a completed recovery step on this rank: the protected
    /// operation `op` was re-run in epoch `epoch` after the members in
    /// `dead` were excluded (and, in a grow phase, the replacements in
    /// `grown` were recruited), leaving `survivors` members. Charges no
    /// virtual time, so same-seed recovery traces are byte-identical.
    pub fn trace_recovery(
        &self,
        op: &str,
        epoch: u64,
        dead: &[usize],
        survivors: usize,
        grown: &[usize],
    ) {
        self.shared.tracer.record(
            self.global_rank,
            self.clock.now(),
            EventKind::Recovery {
                op: op.to_string(),
                epoch,
                dead: dead.to_vec(),
                survivors,
                grown: grown.to_vec(),
            },
        );
    }

    /// Record a shared-window allocation of `bytes` by this rank.
    pub(crate) fn trace_win_alloc(&self, bytes: usize) {
        self.shared.tracer.record(
            self.global_rank,
            self.clock.now(),
            EventKind::WinAlloc { bytes },
        );
    }

    /// Next out-of-band sequence number for setup collectives on the given
    /// communicator id (SPMD programs call setup ops in the same order on
    /// every rank, so per-rank counters agree).
    pub(crate) fn next_oob_seq(&mut self, comm_id: u32) -> u32 {
        let seq = self.oob_seqs.entry(comm_id).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    /// Next window-allocation sequence number of this rank. Combined
    /// with the global rank it yields a window identity that is stable
    /// across runs and execution modes (unlike communicator context
    /// ids, which are allocated in wall-clock completion order).
    pub(crate) fn next_win_seq(&mut self) -> u64 {
        let s = self.win_seq;
        self.win_seq += 1;
        s
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

/// A pending nonblocking receive (see [`Ctx::irecv`]).
///
/// Also implements [`crate::Request`], so it can be polled (advancing via
/// [`Ctx::try_recv`]), mixed into [`crate::request::waitall`] /
/// [`crate::request::testany`] batches, and completed with a deadline.
#[derive(Debug)]
pub struct RecvRequest {
    comm: Communicator,
    src: usize,
    tag: u32,
    /// Payload already completed by a successful poll, awaiting `wait`.
    got: Option<Payload>,
    done: bool,
}

impl RecvRequest {
    pub(crate) fn new(comm: Communicator, src: usize, tag: u32) -> Self {
        Self {
            comm,
            src,
            tag,
            got: None,
            done: false,
        }
    }

    /// Block until the matching message arrives and return its payload.
    /// If an earlier poll already completed the receive, this returns the
    /// stored payload without further cost.
    ///
    /// # Panics
    /// Panics if the request was already waited on.
    pub fn wait(mut self, ctx: &mut Ctx) -> Payload {
        assert!(!self.done, "request already completed");
        self.done = true;
        match self.got.take() {
            Some(p) => p,
            None => ctx.recv(&self.comm, self.src, self.tag),
        }
    }
}

impl crate::request::Request for RecvRequest {
    type Output = Payload;

    fn poll(&mut self, ctx: &mut Ctx) -> bool {
        if self.got.is_some() {
            return true;
        }
        match ctx.try_recv(&self.comm, self.src, self.tag) {
            Some(p) => {
                self.got = Some(p);
                true
            }
            None => false,
        }
    }

    fn is_complete(&self) -> bool {
        self.got.is_some()
    }

    fn complete(&mut self, ctx: &mut Ctx) {
        if self.got.is_none() {
            self.got = Some(ctx.recv(&self.comm, self.src, self.tag));
        }
    }

    fn complete_deadline(&mut self, ctx: &mut Ctx) -> Result<(), WaitError> {
        if self.got.is_none() {
            self.got = Some(ctx.recv_deadline(&self.comm, self.src, self.tag)?);
        }
        Ok(())
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        if self.got.is_some() {
            return Ok(());
        }
        ctx.check_peer(&self.comm, self.comm.global_of(self.src), self.tag)
    }

    fn into_output(mut self) -> Payload {
        self.got.take().expect("request not complete")
    }
}

/// A completed nonblocking send (sends are eager; see [`Ctx::isend`]).
#[derive(Debug)]
pub struct SendRequest {
    _done: bool,
}

impl SendRequest {
    /// No-op: the send already completed locally.
    pub fn wait(self, _ctx: &mut Ctx) {}
}

impl crate::request::Request for SendRequest {
    type Output = ();

    fn poll(&mut self, _ctx: &mut Ctx) -> bool {
        true
    }

    fn is_complete(&self) -> bool {
        true
    }

    fn complete(&mut self, _ctx: &mut Ctx) {}

    fn into_output(self) -> Self::Output {}
}
