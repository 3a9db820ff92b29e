//! # linalg — dense linear algebra and samplers substrate
//!
//! The paper's applications depend on a linear algebra library (BPMF uses
//! Eigen); per the reproduction rules this substrate is built from
//! scratch. It provides exactly what SUMMA and the BPMF Gibbs sampler
//! need:
//!
//! * [`Mat`] — a column-major dense matrix with views and the usual ops,
//! * [`gemm()`] — blocked, register-tiled matrix multiplication
//!   (C ← α·A·B + β·C), also over borrowed operands ([`gemm_ref`]),
//! * [`Cholesky`] — LLᵀ factorization with forward/backward solves,
//! * [`sample`] — multivariate normal, Wishart (Bartlett) and Gamma
//!   (Marsaglia–Tsang) samplers for the Normal–Wishart Gibbs updates,
//! * [`sparse::Csr`] — a compressed sparse row matrix for the ratings
//!   data.

#![forbid(unsafe_code)]

pub mod cholesky;
pub mod gemm;
pub mod mat;
pub mod rng;
pub mod sample;
pub mod sparse;

pub use cholesky::Cholesky;
pub use gemm::{gemm, gemm_ref, matmul};
pub use mat::{Mat, MatRef};
pub use rng::{Rng, SmallRng};
pub use sparse::Csr;
