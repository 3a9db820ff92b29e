//! # bench — experiment harnesses for the paper's figures
//!
//! One binary per figure regenerates the corresponding plot data
//! (`cargo run --release -p bench --bin fig7`, …, `--bin fig12`, plus the
//! `ablation_*` binaries for the §6 design-choice studies). The *real*
//! (wall-clock) performance of the runtime, the algorithms and the
//! `linalg` kernels is measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`) and gated by `scale --ci`.
//!
//! All figure runs use **phantom** data mode — virtual times are
//! bit-identical to real-data runs (tested in the core crates) while
//! paper-scale buffer footprints (hundreds of GB aggregate) never
//! materialize.

#![forbid(unsafe_code)]

pub mod machines;
pub mod micro;
pub mod overlap;
pub mod table;

pub use machines::{cluster_for, Machine};
pub use micro::{allgather_latency, AllgatherVariant};
pub use overlap::{overlap_latency, OverlapApp};
