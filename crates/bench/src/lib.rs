//! # bench — experiment harnesses for the paper's figures
//!
//! One binary, `bench`, driven by two tables (`cargo run --release -p
//! bench -- <command> [args]`):
//!
//! * [`reports::REPORTS`] — one entry per committed `results/<name>.txt`
//!   (Figs. 7–12, the §6 ablations, the extensions); `bench fig7` prints
//!   one, `bench results` rewrites them all and `bench results --check`
//!   names every file a fresh render no longer reproduces.
//! * [`artifact::ARTIFACTS`] — one entry per committed canonical-JSON
//!   artifact (`BENCH_*.json`, `results/tuning/*.json`): `bench scale`
//!   builds, writes and checks one, `bench scale --verify PATH` checks
//!   an existing file.
//!
//! plus the `sweep`, `chaos` and `mcheck` tools, all on one argument
//! parser ([`cli`]). The *real* (wall-clock) performance of the runtime,
//! the algorithms and the `linalg` kernels is measured by the repo
//! benchmark (`benchmark/`, `BENCHMARK.json`) and gated by `ci.sh perf`.
//!
//! All figure runs use **phantom** data mode — virtual times are
//! bit-identical to real-data runs (tested in the core crates) while
//! paper-scale buffer footprints (hundreds of GB aggregate) never
//! materialize.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod chaos;
pub mod cli;
pub mod machines;
pub mod mcheck;
pub mod micro;
pub mod overlap;
pub mod reports;
pub mod table;

pub use machines::{cluster_for, Machine};
pub use micro::{allgather_latency, AllgatherVariant};
pub use overlap::{overlap_latency, OverlapApp};
