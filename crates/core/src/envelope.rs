//! The synchronization envelope every split-phase hybrid collective runs
//! inside, written once.
//!
//! The paper's recipe (Figs. 4 and 6) is *sync → leaders exchange over
//! the bridge, in place in the node window → sync*. With `k` leader
//! slots per node ([`collectives::LeaderSet`]) only the middle changes —
//! how many ranks run the bridge stage — so the whole family is one
//! machine, [`HyOp`], parameterised by a [`Stage`] that supplies the
//! family's window layout and data movement:
//!
//! ```text
//! [single node: full]  |  arrive → pre → go(1..k) → bridge → quiesce(1..k) → release
//! ```
//!
//! * **arrive / release / full** — the on-node [`SyncSm`] stages of the
//!   handle's [`SyncMethod`];
//! * **pre** — a family-specific wait before the bridge input is ordered
//!   (the broadcast root's window write, the allreduce cooperative fill);
//! * **go** — the directional syncs order the children before rank 0
//!   only, so after an arrive rank 0 tells slots `1..k` that the window
//!   is complete;
//! * **quiesce** — slots `1..k` report their stripe done to rank 0 before
//!   it releases the readers.
//!
//! Both loops range over `1..k`: at `k = 1` they post and await nothing,
//! and the envelope *is* the paper's single-leader sandwich. Under
//! [`SyncMethod::Barrier`] neither exists at any `k` — a barrier is
//! already an all-pairs fence.
//!
//! ## Tag map
//!
//! Envelope signals are zero-byte, on the
//! [`collectives::tags::MULTILEADER`] namespace; a signal at `base` uses
//! flag tag `base` under shared flags and message tag `base + 1` under
//! p2p:
//!
//! | signal | base | direction |
//! |---|---|---|
//! | `GO` | `+0` | rank 0 → slots `1..k`, after arrive |
//! | `QUIESCE` | `+2` | slots `1..k` → rank 0, before release |
//! | `READY` | `+4` | bcast root → its node's other slots (p2p under every sync method) |
//! | `FILL` | `+5` | every rank → rank 0, after the allreduce fill |
//! | `GO_ALL` | `+7` | rank 0 → every on-node rank, before the allreduce fill |
//! | `RING` | `+16` | striped allgather ring payload, over the stripe bridge |

use collectives::{run_blocking, DriveOp, IColl, LeaderSet};
use msim::{Communicator, Ctx, Drive, Payload, WaitError};

use crate::hybrid::HybridComm;
use crate::sync::{SyncMethod, SyncSm};

const ML: u32 = collectives::tags::MULTILEADER;
const GO: u32 = ML;
const QUIESCE: u32 = ML + 2;
pub(crate) const READY: u32 = ML + 4;
pub(crate) const FILL: u32 = ML + 5;
pub(crate) const GO_ALL: u32 = ML + 7;
pub(crate) const RING: u32 = ML + 16;

/// Post one directional envelope signal to on-node rank `dst`.
pub(crate) fn post_signal(
    ctx: &mut Ctx,
    shm: &Communicator,
    dst: usize,
    base: u32,
    sync: SyncMethod,
) {
    match sync {
        SyncMethod::SharedFlags => ctx.post_flag(shm, dst, base),
        SyncMethod::P2p => ctx.send(shm, dst, base + 1, Payload::empty()),
        SyncMethod::Barrier => unreachable!("barrier sync needs no envelope signals"),
    }
}

/// Advance the wait side of one directional envelope signal from `src`.
pub(crate) fn step_signal(
    ctx: &mut Ctx,
    shm: &Communicator,
    src: usize,
    base: u32,
    sync: SyncMethod,
    how: Drive,
) -> Result<bool, WaitError> {
    match sync {
        SyncMethod::SharedFlags => ctx.step_wait_flag(shm, src, base, how),
        SyncMethod::P2p => Ok(ctx.step_recv(shm, src, base + 1, how)?.is_some()),
        SyncMethod::Barrier => unreachable!("barrier sync needs no envelope signals"),
    }
}

/// How a collective opens, decided by its [`Stage`] per call.
pub enum Open {
    /// Single-node communicator: the data already sits in the node's
    /// window, so one full on-node synchronization is the whole
    /// operation.
    Full,
    /// Every on-node rank wrote its part of the window: fan in to rank 0,
    /// which then tells the other slots to go.
    Arrive,
    /// The bridge input is ordered by [`Stage::pre`] alone.
    Pre,
    /// The bridge input is this rank's own: slots start the bridge stage
    /// right away, everyone else waits for the release.
    Bridge,
}

/// What one collective family supplies to the envelope: where its data
/// lives and how its slot leaders move it across the bridge.
pub trait Stage {
    /// Trace label of the nonblocking form, e.g. `"ihyallgatherv"`.
    const OP: &'static str;
    /// The in-flight bridge exchange of one slot leader.
    type Bridge;

    /// The hybrid communicator the handle was built over.
    fn hc(&self) -> &HybridComm;
    /// The handle's leader set: how many slots, which one is this rank's,
    /// over which (stripe) bridge.
    fn leaders(&self) -> &LeaderSet;
    /// How this call opens. What the blocking call does before its first
    /// wait (deposits, rooted on-node reductions, root signals) has
    /// already happened, in the stage's constructor.
    fn open(&self) -> Open;
    /// Advance the family's own pre-bridge waits; `Ok(true)` once the
    /// bridge input is ordered. Default: nothing to wait for.
    fn pre(&mut self, _ctx: &mut Ctx, _how: Drive) -> Result<bool, WaitError> {
        Ok(true)
    }
    /// Construct this slot's bridge exchange (its fees land here, at the
    /// blocking call's position). Only called on slot leaders.
    fn start(&mut self, ctx: &mut Ctx) -> Self::Bridge;
    /// Advance the bridge exchange; `Ok(true)` once it completed.
    fn drive(
        &mut self,
        ctx: &mut Ctx,
        sm: &mut Self::Bridge,
        how: Drive,
    ) -> Result<bool, WaitError>;
}

/// Where an in-flight [`HyOp`] stands. Each machine is constructed only
/// when its phase begins, so its fees and signal posts land at exactly
/// the blocking call's position.
enum Phase<B> {
    Arrive(SyncSm),
    Pre,
    /// Slot `1..k` waiting for rank 0's go (flags/p2p only).
    Go,
    Bridge(B),
    /// Rank 0 collecting the `k − 1` quiesce signals (flags/p2p only).
    Quiesce {
        next: usize,
    },
    /// The last on-node synchronization: the release, or the single-node
    /// full sync.
    Closing(SyncSm),
    Done,
}

/// One in-flight hybrid collective: the envelope around `S`'s bridge
/// stage. [`HyOp::run`] is the blocking `execute` of every handle,
/// [`HyOp::start`] its `iexecute`; the two are bit-identical modulo the
/// `Req*` trace markers.
pub struct HyOp<S: Stage> {
    stage: S,
    /// Whether the op opened with an arrive (and so needs the go).
    arrived: bool,
    phase: Phase<S::Bridge>,
}

fn sync_of<S: Stage>(stage: &S) -> (SyncMethod, &Communicator) {
    let hc = stage.hc();
    (hc.sync(), &hc.hierarchy().shm)
}

fn release<S: Stage>(stage: &S, ctx: &mut Ctx) -> Phase<S::Bridge> {
    let (sync, shm) = sync_of(stage);
    Phase::Closing(SyncSm::release(ctx, sync, shm))
}

/// The bridge input is ordered at rank 0 (or is this rank's own): hand
/// the ordering on to the other slots and start the bridge stage.
fn after_pre<S: Stage>(stage: &mut S, arrived: bool, ctx: &mut Ctx) -> Phase<S::Bridge> {
    let (sync, shm) = sync_of(stage);
    let ls = stage.leaders();
    match ls.slot {
        None => return release(stage, ctx),
        // A barrier arrive is an all-pairs fence: no go needed.
        Some(j) if arrived && sync != SyncMethod::Barrier => {
            if j != 0 {
                return Phase::Go;
            }
            for slot in 1..ls.k {
                post_signal(ctx, shm, slot, GO, sync);
            }
        }
        Some(_) => {}
    }
    Phase::Bridge(stage.start(ctx))
}

fn after_bridge<S: Stage>(stage: &S, ctx: &mut Ctx) -> Phase<S::Bridge> {
    let (sync, shm) = sync_of(stage);
    match stage.leaders().slot {
        // The release barrier is itself all-pairs: no quiesce needed.
        _ if sync == SyncMethod::Barrier => {}
        Some(0) => return Phase::Quiesce { next: 1 },
        Some(_) => post_signal(ctx, shm, 0, QUIESCE, sync),
        None => unreachable!("only slot leaders run the bridge"),
    }
    release(stage, ctx)
}

impl<S: Stage> HyOp<S> {
    fn new(ctx: &mut Ctx, mut stage: S) -> Self {
        let open = stage.open();
        let (sync, shm) = sync_of(&stage);
        let arrived = matches!(open, Open::Arrive);
        let phase = match open {
            Open::Full => Phase::Closing(SyncSm::full(ctx, sync, shm)),
            Open::Arrive => Phase::Arrive(SyncSm::arrive(ctx, sync, shm)),
            Open::Pre => Phase::Pre,
            Open::Bridge => after_pre(&mut stage, false, ctx),
        };
        Self {
            stage,
            arrived,
            phase,
        }
    }

    /// Run the collective to completion (the handles' `execute`).
    pub fn run(ctx: &mut Ctx, stage: S) {
        let mut op = Self::new(ctx, stage);
        run_blocking(op.drive_op(ctx, Drive::Block));
    }

    /// Start the collective nonblocking (the handles' `iexecute`): the
    /// opening signals are posted immediately; everything else advances
    /// on [`msim::Request`] polls.
    pub fn start(ctx: &mut Ctx, stage: S) -> IColl<Self> {
        let op = Self::new(ctx, stage);
        IColl::start(ctx, op)
    }
}

impl<S: Stage> DriveOp for HyOp<S> {
    const OP: &'static str = S::OP;

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        ctx.ft_check_comm(&self.stage.hc().hierarchy().shm, 0)?;
        match &self.stage.leaders().bridge {
            Some(b) => ctx.ft_check_comm(b, 0),
            None => Ok(()),
        }
    }

    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError> {
        let Self {
            stage,
            arrived,
            phase,
        } = self;
        loop {
            *phase = match phase {
                Phase::Arrive(sm) => {
                    if !sm.drive(ctx, sync_of(stage).1, how)? {
                        return Ok(false);
                    }
                    Phase::Pre
                }
                Phase::Pre => {
                    if !stage.pre(ctx, how)? {
                        return Ok(false);
                    }
                    after_pre(stage, *arrived, ctx)
                }
                Phase::Go => {
                    let (sync, shm) = sync_of(stage);
                    if !step_signal(ctx, shm, 0, GO, sync, how)? {
                        return Ok(false);
                    }
                    Phase::Bridge(stage.start(ctx))
                }
                Phase::Bridge(sm) => {
                    if !stage.drive(ctx, sm, how)? {
                        return Ok(false);
                    }
                    after_bridge(stage, ctx)
                }
                Phase::Quiesce { next } => {
                    let (sync, shm) = sync_of(stage);
                    while *next < stage.leaders().k {
                        if !step_signal(ctx, shm, *next, QUIESCE, sync, how)? {
                            return Ok(false);
                        }
                        *next += 1;
                    }
                    release(stage, ctx)
                }
                Phase::Closing(sm) => {
                    if !sm.drive(ctx, sync_of(stage).1, how)? {
                        return Ok(false);
                    }
                    Phase::Done
                }
                Phase::Done => return Ok(true),
            };
        }
    }
}
