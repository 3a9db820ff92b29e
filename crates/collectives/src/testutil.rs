//! Shared harness + analytic oracles for collective-algorithm tests.
//!
//! Public (not `cfg(test)`) so the crate's own unit tests, the
//! conformance suite (`tests/conformance.rs`) and downstream crates'
//! integration tests all check against the *same* oracles. Everything is
//! closed-form — no collective is ever validated against another
//! collective's output.
//!
//! Input convention: rank `r` contributes
//! [`datum`](crate::testutil::datum)`(r, i)` as element
//! `i` of its block, for every collective. The oracles below are the
//! exact expected outputs under that convention.

use msim::{Ctx, FaultPlan, SimConfig, SimResult, Universe};
use simnet::{ClusterSpec, CostModel};

/// The eight seeds the conformance suites fuzz every family under.
pub const CONF_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The fuzz seeds in play: all of [`CONF_SEEDS`], unless
/// `MSIM_CONF_SEEDS=N` truncates to the first `N` (used by `ci.sh
/// --quick`, whose race tier re-runs the conformance suites under the
/// detector on a 1-seed subset).
pub fn conf_seeds() -> &'static [u64] {
    let n = std::env::var("MSIM_CONF_SEEDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(CONF_SEEDS.len(), |n| n.clamp(1, CONF_SEEDS.len()));
    &CONF_SEEDS[..n]
}

/// Deterministic irregular per-rank counts for the v-style collectives
/// (includes zero-sized contributions).
pub fn vcounts(p: usize) -> Vec<usize> {
    (0..p).map(|r| (r * 3 + 1) % 5).collect()
}

/// Run `f` on a regular `nodes x ppn` cluster with the hand-checkable
/// uniform cost model, real data.
pub fn run<T, F>(nodes: usize, ppn: usize, f: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
    Universe::run(cfg, f).expect("test universe must not fail")
}

/// Run `f` on an irregular cluster.
pub fn run_irregular<T, F>(cores: Vec<usize>, f: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cfg = SimConfig::new(ClusterSpec::irregular(cores), CostModel::uniform_test());
    Universe::run(cfg, f).expect("test universe must not fail")
}

/// Run `f` under an explicit configuration (fault plans, placements,
/// tracing — whatever the test needs).
pub fn run_cfg<T, F>(cfg: SimConfig, f: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    Universe::run(cfg, f).expect("test universe must not fail")
}

/// Run `f` on `spec` with the uniform test cost model under a fault
/// plan, optionally traced — the standard conformance-suite harness.
pub fn run_fuzzed<T, F>(spec: ClusterSpec, fault: FaultPlan, traced: bool, f: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let mut cfg = SimConfig::new(spec, CostModel::uniform_test()).with_fault(fault);
    if traced {
        cfg = cfg.traced();
    }
    run_cfg(cfg, f)
}

/// The canonical test datum: element `i` of rank `r`'s block.
pub fn datum(rank: usize, i: usize) -> f64 {
    (rank * 1000 + i) as f64 + 0.25
}

/// Assert elementwise closeness with an absolute tolerance suited to the
/// small sums the oracles produce (reduction trees may legally reassociate
/// floating-point additions).
pub fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "{what}: element {i}: got {g}, want {w}"
        );
    }
}

/// Expected allgather result: `count` elements per rank, `size` ranks.
pub fn expected_allgather(size: usize, count: usize) -> Vec<f64> {
    (0..size)
        .flat_map(|r| (0..count).map(move |i| datum(r, i)))
        .collect()
}

/// Expected allgatherv result given per-rank counts.
pub fn expected_allgatherv(counts: &[usize]) -> Vec<f64> {
    counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| (0..c).map(move |i| datum(r, i)))
        .collect()
}

/// Expected bcast result: the root's block, everywhere.
pub fn expected_bcast(root: usize, count: usize) -> Vec<f64> {
    (0..count).map(|i| datum(root, i)).collect()
}

/// Expected sum-allreduce result: `Σ_r datum(r, i)` per element.
pub fn expected_allreduce_sum(size: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| (0..size).map(|r| datum(r, i)).sum())
        .collect()
}

/// Expected alltoall result at `rank`: for each source rank `s`, the
/// `count` elements `datum(s, rank * count + k)` — i.e. rank `s` sends its
/// block `[dst * count, (dst+1) * count)` to `dst`.
pub fn expected_alltoall(rank: usize, size: usize, count: usize) -> Vec<f64> {
    (0..size)
        .flat_map(|s| (0..count).map(move |k| datum(s, rank * count + k)))
        .collect()
}

/// Expected reduce_scatter result at `rank` for per-rank `counts`: the
/// summed vector `Σ_r datum(r, ·)`, restricted to `rank`'s segment.
pub fn expected_reduce_scatter(rank: usize, size: usize, counts: &[usize]) -> Vec<f64> {
    let displ: usize = counts[..rank].iter().sum();
    (0..counts[rank])
        .map(|i| (0..size).map(|r| datum(r, displ + i)).sum())
        .collect()
}

/// Expected inclusive scan at `rank`: `Σ_{r<=rank} datum(r, i)`.
pub fn expected_scan_inclusive(rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| (0..=rank).map(|r| datum(r, i)).sum())
        .collect()
}

/// Expected exclusive scan at `rank`: `Σ_{r<rank} datum(r, i)`. Rank 0's
/// output is undefined (MPI semantics) — callers skip it.
pub fn expected_scan_exclusive(rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| (0..rank).map(|r| datum(r, i)).sum())
        .collect()
}

/// Expected scatter result at `rank` from `root`: the root's block for
/// this rank, i.e. elements `datum(root, rank * count + k)`.
pub fn expected_scatter(rank: usize, root: usize, count: usize) -> Vec<f64> {
    (0..count).map(|k| datum(root, rank * count + k)).collect()
}

/// Expected gather result at the root: every rank's block in rank order
/// (identical to the allgather oracle).
pub fn expected_gather(size: usize, count: usize) -> Vec<f64> {
    expected_allgather(size, count)
}

/// Expected sum-reduce result at the root (identical to the allreduce
/// oracle).
pub fn expected_reduce_sum(size: usize, count: usize) -> Vec<f64> {
    expected_allreduce_sum(size, count)
}
