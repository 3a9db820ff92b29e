//! # hmpi — hybrid MPI+MPI collectives (the paper's contribution)
//!
//! Implements the collective-operation approach of *"MPI Collectives for
//! Multi-core Clusters: Optimized Performance of the Hybrid MPI+MPI
//! Parallel Codes"* (Zhou, Gracia, Schneider; ICPP 2019):
//!
//! * one copy of replicated data per **node** instead of per **rank** —
//!   the result buffer is an MPI-3 shared-memory window shared by all
//!   on-node processes ([`msim::SharedWindow`]);
//! * only the node **leaders** exchange data across nodes, over the
//!   **bridge communicator** ([`collectives::Hierarchy`]);
//! * the on-node aggregation/broadcast copies of the SMP-aware pure-MPI
//!   baseline vanish entirely;
//! * data integrity across the shared buffer is guaranteed by explicit
//!   synchronization ([`SyncMethod`]): `MPI_Barrier` (the paper's
//!   heavy-weight flavor), shared cache flags or point-to-point pairs
//!   (the light-weight flavors of §6).
//!
//! The entry point is [`HybridComm`]: the one-off hierarchical setup
//! (communicator splitting, window allocation, counts/displacements
//! computation) that the paper amortizes over repeated collective calls.
//! From it you build per-operation handles:
//!
//! * [`HyAllgather`] / [`HyAllgatherv`] — Fig. 4 of the paper,
//! * [`HyBcast`] — Fig. 6,
//! * [`HyAllreduce`], [`HyAlltoall`] / [`HyAlltoallv`],
//!   [`HyReduceScatter`], [`HyGather`] / [`HyScatter`] — extensions
//!   following the same recipe,
//! * [`pipeline::HyAllgatherPipelined`] — the large-message pipelined
//!   variant the paper's conclusion points to (its reference [30]).
//!
//! There is one handle per collective. The sync → bridge → sync sandwich
//! around every family but the pipeline is written once, in [`envelope`];
//! a family (gather and scatter included) supplies its window layout and
//! bridge stage, and gets `execute` and `iexecute` from it. The number of
//! leaders per node is a constructor argument
//! ([`HyAllgather::with_leaders`], [`HyAllgatherv::with_leaders`],
//! [`HyBcast::with_leaders`], [`HyAllreduce::with_leaders`]; `new` is one
//! leader, the paper's algorithm): `k` leader slots stripe the bridge
//! traffic over `k` ranks per node (docs/multileader.md).
//!
//! ```
//! use msim::{SimConfig, Universe};
//! use simnet::{ClusterSpec, CostModel};
//! use hmpi::{HybridComm, HyAllgather};
//!
//! let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries());
//! let result = Universe::run(cfg, |ctx| {
//!     let world = ctx.world();
//!     let hc = HybridComm::new(ctx, &world, collectives::Tuning::cray_mpich());
//!     let ag = HyAllgather::<f64>::new(ctx, &hc, 8); // 8 doubles per rank
//!     let mine: Vec<f64> = (0..8).map(|i| (ctx.rank() * 8 + i) as f64).collect();
//!     ag.write_my_block(ctx, &mine);
//!     ag.execute(ctx);
//!     ag.read_block(ctx.rank())[0] // every rank can now read every block
//! }).unwrap();
//! assert_eq!(result.per_rank[3], 24.0);
//! ```

#![forbid(unsafe_code)]

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod alltoallv;
pub mod bcast;
pub mod envelope;
pub mod ft;
pub mod gather_scatter;
pub mod hybrid;
pub mod memory;
pub mod pipeline;
pub mod reduce_scatter;
pub mod sync;

pub use allgather::{HyAllgather, HyAllgatherv, HyKAllgather, IHyAllgatherv};
pub use allreduce::{HyAllreduce, IHyAllreduce};
pub use alltoall::{HyAlltoall, IHyAlltoall};
pub use alltoallv::{HyAlltoallv, IHyAlltoallv};
pub use bcast::{HyBcast, IHyBcast};
pub use ft::{FtComm, Leaders};
pub use gather_scatter::{HyGather, HyScatter, IHyGather, IHyScatter};
pub use hybrid::HybridComm;
pub use reduce_scatter::{HyReduceScatter, IHyReduceScatter};
pub use sync::{SyncMethod, SyncSm};
