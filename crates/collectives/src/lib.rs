//! # collectives — the pure-MPI collective algorithm stack
//!
//! This crate is the stand-in for the collective layer of an MPI library
//! (MPICH / Cray MPI / OpenMPI): the *baseline* that the paper's hybrid
//! MPI+MPI collectives are compared against. It provides
//!
//! * the classic algorithms from Thakur, Rabenseifner & Gropp
//!   ("Optimization of collective communication operations in MPICH",
//!   the paper's reference \[28\]): recursive doubling, Bruck, ring,
//!   binomial trees, scatter+allgather broadcast, dissemination barrier,
//!   Rabenseifner allreduce, pairwise all-to-all;
//! * irregular (`v`) variants, deliberately implemented with the weaker
//!   schedules real libraries use — the effect the paper's reference \[29\]
//!   describes and that drives Fig. 8;
//! * runtime algorithm selection through a trait-based registry
//!   ([`AlgorithmRegistry`]) of named schedules and pluggable
//!   [`SelectionPolicy`] kinds: the legacy MPICH/OpenMPI thresholds
//!   ([`MpiFlavor`], [`Tuning`]), persisted per-cluster tuning tables
//!   ([`TuningTable`]), and cost-model-driven autotuning, every decision
//!   recorded in a queryable [`DecisionLog`]; each family's selecting
//!   entry points take one [`Select`], a `&Tuning` or a
//!   `&SelectionPolicy`;
//! * SMP-aware hierarchical baselines (gather at a node leader → exchange
//!   over the bridge communicator → intra-node broadcast), the "naive pure
//!   MPI" approach of the paper's Fig. 3a, including a multi-leader
//!   variant (the paper's reference \[14\]);
//! * [`Hierarchy`] — the two-level communicator splitting of the paper's
//!   §3 (shared-memory communicator + bridge communicator), reused by the
//!   hybrid collectives in the `hmpi` crate.
//!
//! Every algorithm operates on [`msim::Buf`] so it runs identically over
//! real data (correctness tests) and phantom buffers (paper-scale cost
//! modeling).

#![forbid(unsafe_code)]

pub mod allgather;
pub mod allgatherv;
pub mod allreduce;
pub mod alltoall;
pub mod alltoallv;
pub mod barrier;
pub mod bcast;
pub mod gather;
pub mod hierarchy;
pub mod json;
pub mod op;
pub mod policy;
pub mod reduce;
pub mod reduce_scatter;
pub mod registry;
pub mod scan;
pub mod scatter;
pub mod selection;
pub mod smp_aware;
pub mod split;
pub mod tags;
pub mod util;

pub use hierarchy::{seg_bounds, Hierarchy, LeaderSet};
pub use op::ReduceOp;
pub use policy::{
    flavor_from_key, flavor_key, legacy_choice, Decision, DecisionLog, FaultPolicy, PolicyKind,
    Select, SelectionPolicy, TableEntry, TuningTable,
};
pub use registry::{AlgorithmRegistry, AlgorithmSpec, CollectiveAlgorithm, CollectiveOp, CommCase};
pub use selection::{MpiFlavor, Tuning};
pub use split::{run_blocking, DriveOp, IColl};

/// Test harness + analytic oracles, public so integration tests and
/// downstream crates validate against the same closed-form expectations.
pub mod testutil;
