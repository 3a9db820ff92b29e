//! # hybrid-mpi — MPI collectives for multi-core clusters
//!
//! A from-scratch Rust reproduction of *"MPI Collectives for Multi-core
//! Clusters: Optimized Performance of the Hybrid MPI+MPI Parallel Codes"*
//! (Zhou, Gracia, Schneider; ICPP 2019), complete with the substrate the
//! paper runs on:
//!
//! * [`simnet`] — a virtual multi-core cluster (topology, Hockney-style
//!   cost model with presets for the paper's two systems, placements),
//! * [`msim`] — an MPI-like runtime: ranks as threads, deterministic
//!   virtual time, communicators, MPI-3 shared-memory windows,
//! * [`collectives`] — the classic pure-MPI collective algorithms and the
//!   SMP-aware hierarchical baseline the paper compares against,
//! * [`hmpi`] — **the paper's contribution**: hybrid MPI+MPI collectives
//!   with one node-shared result copy and leader-only bridge exchanges,
//! * [`linalg`] — the dense linear algebra / sampling substrate,
//! * [`summa`] and [`bpmf`] — the paper's two applications, each in
//!   Ori_ (pure MPI) and Hy_ (hybrid) variants.
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_mpi::prelude::*;
//!
//! // A virtual cluster: 2 nodes x 4 cores, Cray-like costs.
//! let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries());
//! let out = Universe::run(cfg, |ctx| {
//!     let world = ctx.world();
//!     // One-off hybrid setup: hierarchy + node-shared window.
//!     let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
//!     let ag = HyAllgather::<f64>::new(ctx, &hc, 4);
//!     ag.write_my_block(ctx, &vec![ctx.rank() as f64; 4]);
//!     ag.execute(ctx); // barrier · bridge Allgatherv · barrier
//!     // Read any rank's block straight from the window, into a buffer
//!     // the caller keeps (`read_block` returns a fresh `Vec` instead).
//!     let mut block = [0.0; 4];
//!     ag.read_block_into(7, &mut block);
//!     block[0]
//! })
//! .unwrap();
//! assert!(out.per_rank.iter().all(|&v| v == 7.0));
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses that regenerate every figure of the paper (documented in
//! `EXPERIMENTS.md`).

pub use bpmf;
pub use cg;
pub use collectives;
pub use hmpi;
pub use linalg;
pub use msim;
pub use simnet;
pub use stencil;
pub use summa;

/// The most common imports in one place.
pub mod prelude {
    pub use collectives::{
        AlgorithmRegistry, CollectiveOp, CommCase, DecisionLog, MpiFlavor, PolicyKind,
        SelectionPolicy, Tuning, TuningTable,
    };
    pub use hmpi::{HyAllgather, HyAllgatherv, HyAllreduce, HyBcast, HybridComm, SyncMethod};
    pub use msim::{
        Buf, Communicator, Ctx, DataMode, FaultPlan, KillRule, SchedulePolicy, SimConfig,
        SimResult, Universe,
    };
    pub use simnet::{ClusterSpec, CostModel, Placement};
}
