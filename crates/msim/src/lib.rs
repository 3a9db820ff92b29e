//! # msim — an MPI-like message-passing runtime with virtual time
//!
//! `msim` plays the role of the MPI library in this reproduction. Each MPI
//! rank is a stackful coroutine multiplexed onto a bounded worker pool
//! (see [`ExecMode`], which only chooses the pool's width); point-to-point
//! messages flow through
//! in-process mailboxes; every communication, copy and computation
//! advances the rank's deterministic *virtual clock* according to the
//! `simnet` cost model.
//!
//! The API mirrors the MPI concepts the paper relies on:
//!
//! * [`Universe::run`] — launch an SPMD program over a virtual cluster,
//! * [`Communicator`] — `MPI_COMM_WORLD`, `MPI_Comm_split`, and
//!   `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`,
//! * [`Ctx`] — per-rank handle: `send`/`recv` (typed or raw), virtual-clock
//!   queries, modeled compute and memcpy charging,
//! * [`SharedWindow`] — `MPI_Win_allocate_shared` + `MPI_Win_shared_query`:
//!   a node-wide shared buffer with per-rank partitions, implemented over
//!   atomics in real mode,
//! * [`Buf`] — a send/receive buffer that is either *real* (correctness
//!   runs) or *phantom* (size-only; lets paper-scale experiments with
//!   hundreds of GB of aggregate buffer space run on a laptop while
//!   producing bit-identical virtual times).
//!
//! Determinism: no wildcard receives exist; matching is by
//! `(communicator, source, tag)`, so virtual time does not depend on OS
//! scheduling. This is tested — and model-checked: [`mcheck::explore`]
//! drives a configuration through *every* inequivalent schedule (DPOR +
//! sleep sets) and emits replayable [`ScheduleCertificate`]
//! counterexamples on violation (see `docs/model-checking.md`).

pub mod buffer;
pub mod bytes;
pub mod comm;
pub mod ctx;
pub mod datatype;
pub mod elem;
pub mod error;
mod exec;
pub mod fault;
pub mod ft;
mod hash;
mod mailbox;
pub mod mcheck;
pub mod msg;
mod oob;
pub mod race;
mod ready;
pub mod request;
pub mod universe;
pub mod window;

pub use buffer::Buf;
pub use bytes::Bytes;
pub use comm::Communicator;
pub use ctx::{Ctx, RecvRequest, SendRequest};
pub use datatype::Layout;
pub use elem::ShmElem;
pub use error::SimError;
pub use exec::ExecMode;
pub use fault::{FaultPlan, KillRule, NodeKillRule, RetryPolicy, SchedulePolicy};
pub use ft::{AgreeOutcome, CommitOutcome, GrowOutcome, WaitError};
pub use mcheck::{
    explore, replay, ExploreOpts, ExploreReport, ExploreStats, ScheduleCertificate, Violation,
    ViolationKind,
};
pub use msg::Payload;
pub use race::{AccessKind, RaceAccess, RaceReport, VectorClock};
pub use request::{testany, waitall, Drive, Request};
pub use universe::{DataMode, FtSimResult, SimConfig, SimResult, SimStats, Universe};
pub use window::SharedWindow;
