//! # cg — distributed conjugate gradient
//!
//! A 1D Poisson solver (`A = tridiag(−1, 2, −1)`) by conjugate gradient:
//! the classic allreduce-heavy pattern — the paper motivates its work
//! with the NAS-type kernels (its reference \[21\]) where `MPI_Allreduce`
//! dominates communication. Three scalar allreduces per iteration (two
//! dot products plus the residual), one halo pair per matvec.
//!
//! * [`ori_cg`] — pure MPI: library `MPI_Allreduce` on the world
//!   communicator, private scalar results per rank;
//! * [`hy_cg`] — hybrid MPI+MPI: [`hmpi::HyAllreduce`] — on-node
//!   reduction to the leader, bridge allreduce, result read by all
//!   on-node ranks from one shared window.
//!
//! Both variants perform the same arithmetic; their solutions agree
//! with a serial CG oracle to rounding (the distributed dot products
//! reduce partials in tree order).

#![forbid(unsafe_code)]

pub mod solver;

pub use solver::{hy_cg, hy_cg_overlap, ori_cg, ori_cg_overlap, serial_cg, CgReport, CgSpec};
