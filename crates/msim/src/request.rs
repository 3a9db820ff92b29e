//! Nonblocking request handles (`MPI_Request` analogue).
//!
//! A [`Request`] is an in-flight operation — a posted receive
//! ([`crate::RecvRequest`]), an eagerly-completed send
//! ([`crate::SendRequest`]), or a split-phase collective (the
//! `collectives`/`hmpi` crates build theirs on the same trait). The
//! contract mirrors MPI's:
//!
//! * [`Request::poll`] makes progress **without blocking** and reports
//!   completion (MPI_Test). Polling is free when nothing arrived: no
//!   virtual time, no trace events, no fault-plan ops — so inserting or
//!   removing polls can never change a deterministic schedule.
//! * [`Request::wait`] blocks to completion and yields the output
//!   (MPI_Wait). For a request that was never polled this is bit-identical
//!   to the blocking form of the same operation.
//! * [`Request::wait_deadline`] reuses the typed [`WaitError`] paths
//!   (peer death, divert, detection timeout) instead of parking forever.
//! * [`waitall`] / [`testany`] are the batch forms (MPI_Waitall /
//!   MPI_Testany), with deterministic posting-order / index-order
//!   semantics — there is no wall-clock–dependent "whichever finished
//!   first" anywhere.
//!
//! Outstanding receives registered by a failed poll are advanced by the
//! per-rank **progress engine**: whenever the rank reaches a park site
//! (any blocking receive, flag wait, fence or setup exchange), already-
//! arrived packets for watched keys are claimed into the rank's stash
//! (see `Ctx::drain_progress`). Claiming moves a packet closer
//! to its request but performs no accounting — clock, trace, race and
//! heartbeat effects all happen at completion, from the packet's own
//! fields, so progress is invisible to virtual time by construction.

use crate::ctx::Ctx;
use crate::ft::WaitError;

/// How a split-phase state machine should treat a not-yet-arrived
/// message (see [`Ctx::step_recv`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Return without blocking; the machine parks its state and reports
    /// "not done".
    Poll,
    /// Block until the message arrives (the thin-driver mode of the
    /// blocking entry points — bit-identical to the monolithic form).
    Block,
    /// Block, but fail with a typed [`WaitError`] on peer death, divert,
    /// or detection timeout instead of parking forever.
    Deadline,
}

/// An in-flight nonblocking operation.
pub trait Request {
    /// What the operation yields on completion.
    type Output;

    /// Make progress without blocking; `true` once complete. Polling a
    /// completed request is a no-op returning `true`.
    fn poll(&mut self, ctx: &mut Ctx) -> bool;

    /// Whether the operation has already completed (no progress attempt).
    fn is_complete(&self) -> bool;

    /// Block until complete (idempotent).
    fn complete(&mut self, ctx: &mut Ctx);

    /// Block until complete, failing with a typed [`WaitError`] where the
    /// operation's blocking paths would (default: fall back to
    /// [`Request::complete`] for requests that cannot fail).
    fn complete_deadline(&mut self, ctx: &mut Ctx) -> Result<(), WaitError> {
        self.complete(ctx);
        Ok(())
    }

    /// Armed-mode liveness probe for a not-yet-complete request: `Err`
    /// when the operation can no longer complete because a peer it
    /// depends on is dead or has diverted into recovery. Free — it reads
    /// the failure detector's shared state without advancing anything —
    /// and always `Ok` when fault tolerance is disarmed. Requests that
    /// cannot be stranded (eager sends) keep the default.
    fn ft_check(&self, _ctx: &Ctx) -> Result<(), WaitError> {
        Ok(())
    }

    /// The operation's output. Only call after completion.
    fn into_output(self) -> Self::Output;

    /// Block until complete and yield the output (MPI_Wait).
    fn wait(mut self, ctx: &mut Ctx) -> Self::Output
    where
        Self: Sized,
    {
        self.complete(ctx);
        self.into_output()
    }

    /// Deadline-aware wait: like [`Request::wait`] but surfaces the typed
    /// [`WaitError`]s of the underlying deadline receive paths.
    fn wait_deadline(mut self, ctx: &mut Ctx) -> Result<Self::Output, WaitError>
    where
        Self: Sized,
    {
        self.complete_deadline(ctx)?;
        Ok(self.into_output())
    }
}

/// Wait on every request, **in posting order** (MPI_Waitall). The order
/// is part of the determinism contract: completion accounting happens in
/// index order regardless of arrival interleaving.
pub fn waitall<R: Request>(ctx: &mut Ctx, requests: Vec<R>) -> Vec<R::Output> {
    requests.into_iter().map(|r| r.wait(ctx)).collect()
}

/// Poll every request once, **in index order**, removing and returning
/// the first one found complete (MPI_Testany shape). Returns the removed
/// request's original index and output, or `None` when nothing is ready.
/// Scanning in index order (not arrival order) keeps the result
/// deterministic.
pub fn testany<R: Request>(ctx: &mut Ctx, requests: &mut Vec<R>) -> Option<(usize, R::Output)> {
    for i in 0..requests.len() {
        if requests[i].poll(ctx) {
            let r = requests.remove(i);
            return Some((i, r.into_output()));
        }
    }
    // Nothing ready. Under an armed fault plan a pending request whose
    // peer died (or diverted into recovery) will never complete, so a
    // testany spin loop would otherwise hang forever. Surface the failure
    // the way the blocking paths do — unwind with the typed error so a
    // fault-aware driver above can `catch_unwind` and recover — checking
    // in index order so the reported peer is deterministic.
    for r in requests.iter() {
        if let Err(e) = r.ft_check(ctx) {
            std::panic::panic_any(e);
        }
    }
    None
}
