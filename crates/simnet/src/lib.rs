//! # simnet — a virtual multi-core cluster
//!
//! This crate models the *hardware* side of the reproduction: a cluster of
//! multi-core SMP nodes connected by a network. It provides
//!
//! * [`ClusterSpec`] — how many nodes, how many cores on each (regular or
//!   irregularly populated, cf. Fig. 10 of the paper),
//! * [`CostModel`] — a Hockney/LogGP-style communication cost model with
//!   distinct intra-node and inter-node latency/bandwidth terms, per-call
//!   software overhead, memcpy bandwidth and a per-core flop rate. Two
//!   presets approximate the paper's systems: a Cray XC40 with Aries
//!   ([`CostModel::cray_aries`]) and a NEC cluster with InfiniBand
//!   ([`CostModel::nec_infiniband`]),
//! * [`Placement`] — the mapping of global MPI ranks onto cores/nodes
//!   (SMP-style block placement, round-robin, or custom; cf. §6 of the
//!   paper),
//! * [`Clock`] — a per-rank deterministic virtual clock in microseconds,
//! * [`Tracer`] — an optional event trace used by tests to assert *schedule*
//!   properties (e.g. "the hybrid allgather performs zero intra-node data
//!   copies"),
//! * [`json`] — the workspace's one JSON reader/writer (tuning tables,
//!   model-check certificates, BENCH artifacts); it sits here, below
//!   every other crate, so all of them share it.
//!
//! The message-passing runtime itself lives in the `msim` crate; `simnet`
//! deliberately knows nothing about ranks' program logic, only about where
//! they live and what an action costs.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod clock;
pub mod cost;
pub mod estimate;
pub mod json;
pub mod perturb;
pub mod placement;
pub mod rng;
pub mod stats;
pub mod topology;
pub mod trace;

pub use analysis::TrafficStats;
pub use clock::Clock;
pub use cost::{CostModel, LinkClass, NetTopology};
pub use estimate::Estimator;
pub use perturb::{LinkFlap, Partition, Perturbation};
pub use placement::{Placement, RankMap};
pub use stats::Summary;
pub use topology::ClusterSpec;
pub use trace::{Event, EventKind, Tracer};
