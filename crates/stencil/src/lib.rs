//! # stencil — 2D Jacobi heat diffusion with halo exchange
//!
//! The paper's conclusion points to point-to-point communication as the
//! next place to apply the hybrid MPI+MPI model ("more experiences
//! (e.g., p2p communications) are expected"), building on Hoefler et
//! al.'s MPI+MPI halo-exchange paradigm (the paper's reference \[10\]) —
//! which the paper calls *suboptimal* because on-node neighbors still
//! keep halo copies of each other's boundary cells.
//!
//! This crate implements the 5-point Jacobi stencil both ways:
//!
//! * [`ori_jacobi`] — **pure MPI**: every rank owns a private tile with
//!   a halo ring and exchanges four boundary strips per iteration with
//!   `Isend`/`Irecv`, regardless of where the neighbor lives;
//! * [`hy_jacobi`] — **hybrid MPI+MPI**: each node stores all of its
//!   ranks' tiles (double-buffered) in one shared window. On-node
//!   neighbors read boundary cells *directly* from the window — no halo
//!   storage, no message — synchronized by the light-weight flag pairs
//!   of the paper's §6; only node-boundary strips travel as messages.
//! * [`hy_jacobi_overlap`] — the hybrid variant with split-phase halo
//!   exchange: node-boundary strips are posted nonblocking and the
//!   tile's interior updates while they fly; only the remote-edge
//!   cells wait for the messages.
//!
//! All variants perform bit-identical arithmetic, so their results are
//! equal to each other and to the serial oracle (tested).

#![forbid(unsafe_code)]

pub mod decomp;
pub mod hy;
pub mod ori;
pub mod serial;

pub use decomp::{Decomp, Tile};
pub use hy::{hy_jacobi, hy_jacobi_overlap};
pub use ori::ori_jacobi;
pub use serial::serial_jacobi;

/// Parameters of one Jacobi run.
#[derive(Debug, Clone)]
pub struct StencilSpec {
    /// Global grid edge (the domain is `n x n`, boundary included).
    pub n: usize,
    /// Number of Jacobi iterations.
    pub iters: usize,
}

/// Per-rank outcome.
#[derive(Debug, Clone)]
pub struct StencilReport {
    /// Virtual time of the timed region (µs).
    pub elapsed_us: f64,
    /// This rank's final tile in row-major order (real mode only).
    pub tile: Option<Vec<f64>>,
}

/// The fixed boundary condition: a hot top edge with a sinusoid-free,
/// integer-friendly profile, cold elsewhere (deterministic and easy to
/// verify bitwise).
pub fn boundary_value(i: usize, j: usize, n: usize) -> f64 {
    if i == 0 {
        100.0 + (j % 7) as f64
    } else if i == n - 1 || j == 0 || j == n - 1 {
        (i % 5) as f64
    } else {
        0.0
    }
}

/// Initial interior value.
pub fn initial_value(_i: usize, _j: usize) -> f64 {
    0.0
}

/// Flops per updated cell (3 adds + 1 multiply).
pub const FLOPS_PER_CELL: f64 = 4.0;
