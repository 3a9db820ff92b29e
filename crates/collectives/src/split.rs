//! Split-phase plumbing shared by every collective family.
//!
//! Every collective algorithm in this crate is a state machine with one
//! entry point, `drive(…, how: Drive) -> Result<bool, WaitError>`:
//!
//! * `Drive::Block` runs the machine to completion — this is what the
//!   blocking entry points (`tuned`, `dispatch`, …) do, and it executes
//!   **exactly** the operation sequence of the former monolithic
//!   functions (same sends, receives, copies, charges, in the same
//!   order), so results, virtual clocks and traces are bit-identical.
//! * `Drive::Poll` advances as far as already-arrived messages allow and
//!   then returns `Ok(false)`. A failed message probe is completely free
//!   (no clock, no trace, no fault op), so a `Poll` that finds nothing is
//!   invisible; a `Poll` that finds the message performs the identical
//!   completion a blocking receive would.
//! * `Drive::Deadline` blocks but surfaces the typed
//!   [`WaitError`] paths (peer death, divert, detection timeout).
//!
//! Machines keep their loop variables (`mask`, `filled`, round indices)
//! as fields plus a `sent` flag per round, preserving the monoliths'
//! send-then-receive order: the round's send is posted exactly once, then
//! the receive is attempted under the caller's drive mode.
//!
//! [`IColl`] wraps a machine body into an [`msim::Request`], adding the
//! request-lifecycle trace markers (`ReqStart`/`ReqComplete`) that only
//! nonblocking entry points emit.

use msim::{Ctx, Drive, Request, WaitError};

/// A family-specific request body: the state machine plus the buffers it
/// operates on.
pub trait DriveOp {
    /// Trace label of the nonblocking form, e.g. `"iallgather"`.
    const OP: &'static str;

    /// Advance under `how`; `Ok(true)` when the collective completed.
    fn drive_op(&mut self, ctx: &mut Ctx, how: Drive) -> Result<bool, WaitError>;

    /// Armed-mode liveness probe (see [`Request::ft_check`]): `Err` when
    /// a peer this machine's pending receives depend on is dead or
    /// diverted, so a `testany` spin loop surfaces the failure instead of
    /// hanging. Bodies typically delegate to [`Ctx::ft_check_comm`] on
    /// the communicator(s) they wait on. Default: cannot be stranded.
    fn ft_check(&self, _ctx: &Ctx) -> Result<(), WaitError> {
        Ok(())
    }
}

/// An in-flight nonblocking collective over a [`DriveOp`] body.
///
/// Created by the per-family `istart`/`ituned` entry points, which post
/// the first round's sends eagerly (one claim-suppressed `Poll` drive)
/// before returning — a genuine nonblocking start. The borrowed receive
/// buffer stays inside the request until `wait`, so the borrow checker enforces
/// MPI's "don't touch the buffer while the operation is in flight" rule
/// at compile time.
pub struct IColl<D: DriveOp> {
    body: D,
    done: bool,
    id: u64,
}

impl<D: DriveOp> IColl<D> {
    /// Wrap `body`, record the request start, and make one *post-only*
    /// progress attempt: the first round's sends go out, but message
    /// claims are suppressed ([`Ctx::suppress_claims`]). Whether a poll
    /// could claim an already-sent message depends on wall-clock
    /// executor scheduling, and an early claim would stamp the machine's
    /// later sends with the start-time clock instead of the wait-time
    /// clock — nondeterministic virtual time as soon as the caller
    /// computes between start and wait. Post-only starts keep every
    /// completion at the deterministic wait position while still putting
    /// the first round's traffic in flight under the caller's compute.
    pub fn start(ctx: &mut Ctx, body: D) -> Self {
        let id = ctx.trace_req_start(D::OP);
        let mut r = Self {
            body,
            done: false,
            id,
        };
        ctx.suppress_claims(|ctx| Request::poll(&mut r, ctx));
        r
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        self.done = true;
        ctx.trace_req_complete(D::OP, self.id);
    }
}

impl<D: DriveOp> Request for IColl<D> {
    type Output = ();

    fn poll(&mut self, ctx: &mut Ctx) -> bool {
        if !self.done
            && self
                .body
                .drive_op(ctx, Drive::Poll)
                .expect("a Poll drive never fails")
        {
            self.finish(ctx);
        }
        self.done
    }

    fn is_complete(&self) -> bool {
        self.done
    }

    fn complete(&mut self, ctx: &mut Ctx) {
        if !self.done {
            let done = self
                .body
                .drive_op(ctx, Drive::Block)
                .expect("a Block drive never fails");
            debug_assert!(done, "a Block drive must run to completion");
            self.finish(ctx);
        }
    }

    fn complete_deadline(&mut self, ctx: &mut Ctx) -> Result<(), WaitError> {
        if !self.done {
            let done = self.body.drive_op(ctx, Drive::Deadline)?;
            debug_assert!(done, "a Deadline drive completes unless it errors");
            self.finish(ctx);
        }
        Ok(())
    }

    fn ft_check(&self, ctx: &Ctx) -> Result<(), WaitError> {
        if self.done {
            Ok(())
        } else {
            self.body.ft_check(ctx)
        }
    }

    fn into_output(self) -> Self::Output {}
}

/// Drive a machine step to completion in blocking mode — the thin-driver
/// helper behind every blocking entry point (here and in the hybrid
/// layer).
#[inline]
pub fn run_blocking<E: std::fmt::Debug>(result: Result<bool, E>) {
    let done = result.expect("a Block drive never fails");
    debug_assert!(done, "a Block drive must run to completion");
}
