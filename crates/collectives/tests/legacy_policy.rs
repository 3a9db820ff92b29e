//! Property tests for the selection layer: the `Legacy` selection policy
//! must pick **exactly** the algorithm the pre-registry `Tuning`
//! threshold code picked, for every flavor, communicator size, ppn and
//! message size — and a collective's one entry point must run the same
//! schedule down to the last bit whether its [`Select`] argument is a
//! `&Tuning` or `&SelectionPolicy::legacy(tuning)`; only the policy arm
//! records decisions.

use collectives::op::Sum;
use collectives::testutil::datum;
use collectives::{
    allgather, allgatherv, allreduce, bcast, legacy_choice, CollectiveOp, CommCase, MpiFlavor,
    Select, SelectionPolicy, Tuning,
};
use msim::{Ctx, Request, SimConfig};
use simnet::rng::{check_cases, Rng64};
use simnet::trace::{Event, EventKind};
use simnet::{ClusterSpec, CostModel};

/// The pre-refactor selection logic, restated from the threshold tables
/// as an independent oracle (NOT calling [`legacy_choice`]): MPICH-style
/// allgather (recursive doubling below the threshold on powers of two,
/// Bruck below its threshold otherwise, ring above), Bruck/ring split for
/// allgatherv, binomial/scatter-allgather split for bcast, recursive
/// doubling/Rabenseifner split for allreduce.
fn oracle(t: &Tuning, op: CollectiveOp, p: usize, bytes: usize) -> &'static str {
    match op {
        CollectiveOp::Allgather => {
            if p <= 1 {
                "allgather.local"
            } else if p.is_power_of_two() {
                if bytes < t.allgather_rd_threshold {
                    "allgather.recursive_doubling"
                } else {
                    "allgather.ring"
                }
            } else if bytes < t.allgather_bruck_threshold {
                "allgather.bruck"
            } else {
                "allgather.ring"
            }
        }
        CollectiveOp::Allgatherv => {
            if p <= 1 {
                "allgatherv.local"
            } else if bytes < t.allgatherv_bruck_threshold {
                "allgatherv.bruck"
            } else {
                "allgatherv.ring"
            }
        }
        CollectiveOp::Bcast => {
            if bytes >= t.bcast_long_threshold && p >= t.bcast_min_ranks_for_long {
                "bcast.scatter_allgather"
            } else {
                "bcast.binomial"
            }
        }
        CollectiveOp::Allreduce => {
            if bytes >= t.allreduce_rabenseifner_threshold {
                "allreduce.rabenseifner"
            } else {
                "allreduce.recursive_doubling"
            }
        }
        _ => unreachable!("oracle covers the threshold-driven ops"),
    }
}

/// Byte sizes that probe every threshold from both sides, for both
/// flavors, plus a few in-between points.
fn boundary_sizes(t: &Tuning) -> Vec<usize> {
    let mut v = vec![0, 1, 8, 256, 4096];
    for th in [
        t.allgather_rd_threshold,
        t.allgather_bruck_threshold,
        t.allgatherv_bruck_threshold,
        t.bcast_long_threshold,
        t.allreduce_rabenseifner_threshold,
    ] {
        v.extend([th.saturating_sub(1), th, th + 1]);
    }
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn legacy_policy_matches_pre_refactor_thresholds_exhaustively() {
    for flavor in [MpiFlavor::CrayMpich, MpiFlavor::OpenMpi] {
        let t = Tuning::for_flavor(flavor);
        let policy = SelectionPolicy::legacy(t.clone());
        let cost = CostModel::cray_aries();
        for op in [
            CollectiveOp::Allgather,
            CollectiveOp::Allgatherv,
            CollectiveOp::Bcast,
            CollectiveOp::Allreduce,
        ] {
            for p in 1..=64usize {
                for ppn in [1, 3, 8, 24] {
                    let nodes = p.div_ceil(ppn);
                    for &bytes in &boundary_sizes(&t) {
                        let case = CommCase::new(op, p, nodes, bytes);
                        let want = oracle(&t, op, p, bytes);
                        assert_eq!(
                            policy.choose_offline(&cost, &case),
                            want,
                            "{flavor:?} {op:?} p={p} ppn={ppn} bytes={bytes}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn legacy_policy_matches_thresholds_on_seeded_sweep() {
    check_cases(0xA6_0002, 48, |rng: &mut Rng64| {
        let flavor = *rng.pick(&[MpiFlavor::CrayMpich, MpiFlavor::OpenMpi]);
        let t = Tuning::for_flavor(flavor);
        let policy = SelectionPolicy::legacy(t.clone());
        let cost = CostModel::nec_infiniband();
        let p = rng.usize_in(1, 2049);
        let ppn = rng.usize_in(1, 25);
        let bytes = 1usize << rng.usize_in(0, 24);
        for op in [
            CollectiveOp::Allgather,
            CollectiveOp::Allgatherv,
            CollectiveOp::Bcast,
            CollectiveOp::Allreduce,
        ] {
            let case = CommCase::new(op, p, p.div_ceil(ppn), bytes);
            assert_eq!(
                policy.choose_offline(&cost, &case),
                oracle(&t, op, p, bytes),
                "{flavor:?} {op:?} p={p} ppn={ppn} bytes={bytes}"
            );
        }
    });
}

/// `legacy_choice` itself is pinned to the same oracle — the function
/// both `Select::Legacy` and the legacy policy route through.
#[test]
fn legacy_choice_function_agrees_with_oracle() {
    for flavor in [MpiFlavor::CrayMpich, MpiFlavor::OpenMpi] {
        let t = Tuning::for_flavor(flavor);
        for op in [
            CollectiveOp::Allgather,
            CollectiveOp::Allgatherv,
            CollectiveOp::Bcast,
            CollectiveOp::Allreduce,
        ] {
            for p in [1usize, 2, 3, 6, 8, 12, 16, 24, 64, 100] {
                for &bytes in &boundary_sizes(&t) {
                    let case = CommCase::new(op, p, p.div_ceil(4), bytes);
                    assert_eq!(legacy_choice(&t, &case), oracle(&t, op, p, bytes));
                }
            }
        }
    }
}

/// One traced run on the irregular cluster `cores` under the Cray cost
/// model: each rank's result, its final clock, and the canonical trace.
fn run_traced(
    cores: &[usize],
    program: impl Fn(&mut Ctx) -> Vec<f64> + Send + Sync,
) -> (Vec<Vec<f64>>, Vec<f64>, Vec<Event>) {
    let cfg = SimConfig::new(
        ClusterSpec::irregular(cores.to_vec()),
        CostModel::cray_aries(),
    )
    .traced();
    let r = collectives::testutil::run_cfg(cfg, program);
    (r.per_rank, r.clocks, r.tracer.events())
}

/// The rank of every `Decision` event of `trace`, in canonical order.
fn decisions(trace: &[Event]) -> Vec<usize> {
    trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Decision { .. }))
        .map(|e| e.rank)
        .collect()
}

/// Run `program` once handed `&t` and once handed
/// `&SelectionPolicy::legacy(t)`. The two selection arms must agree to
/// the bit in results, clocks and the canonical trace with `Decision`
/// events filtered out. The `Legacy` arm records no decision; the
/// `Policy` arm records exactly `calls` per rank, in the trace and in the
/// policy's log alike.
fn assert_one_path(
    what: &str,
    cores: &[usize],
    t: &Tuning,
    calls: usize,
    program: impl Fn(&mut Ctx, Select<'_>) -> Vec<f64> + Send + Sync,
) {
    let (data, clocks, trace) = run_traced(cores, |ctx| program(ctx, Select::from(t)));
    let policy = SelectionPolicy::legacy(t.clone());
    let (p_data, p_clocks, p_trace) = run_traced(cores, |ctx| program(ctx, Select::from(&policy)));
    assert_eq!(data, p_data, "{what}: results");
    assert_eq!(clocks, p_clocks, "{what}: clocks");
    let strip = |trace: &[Event]| -> Vec<Event> {
        trace
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::Decision { .. }))
            .cloned()
            .collect()
    };
    assert_eq!(strip(&trace), strip(&p_trace), "{what}: trace");
    assert!(decisions(&trace).is_empty(), "{what}: legacy arm decided");
    let ranks: usize = cores.iter().sum();
    let want: Vec<usize> = (0..ranks)
        .flat_map(|r| std::iter::repeat_n(r, calls))
        .collect();
    assert_eq!(decisions(&p_trace), want, "{what}: traced decisions");
    assert_eq!(
        policy.log().len(),
        ranks * calls,
        "{what}: logged decisions"
    );
}

/// On the irregular `[1, 3, 4]` cluster — the shape that exercises the
/// non-power-of-two paths — `tuned(…, &t)` and
/// `tuned(…, &SelectionPolicy::legacy(t))` must be bit-identical across
/// the allgatherv ring/Bruck boundary, blocking and nonblocking.
#[test]
fn allgatherv_legacy_and_policy_arms_are_bit_identical() {
    let t = Tuning::cray_mpich();
    // Straddle the allgatherv Bruck→ring boundary: total bytes is
    // (8·count)·8, so count = threshold/64 flips the algorithm.
    let boundary_count = t.allgatherv_bruck_threshold / 64;
    for count in [
        1usize,
        64,
        boundary_count - 1,
        boundary_count,
        boundary_count + 1,
    ] {
        let counts: Vec<usize> = (0..8).map(|r| count + r % 3).collect();
        for nonblocking in [false, true] {
            let what = format!("allgatherv count={count} nonblocking={nonblocking}");
            assert_one_path(&what, &[1, 3, 4], &t, 1, |ctx, select| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(counts[ctx.rank()], |i| datum(ctx.rank(), i));
                let mut recv = ctx.buf_zeroed::<f64>(counts.iter().sum());
                if nonblocking {
                    allgatherv::ituned(ctx, &world, &send, &counts, &mut recv, select).wait(ctx);
                } else {
                    allgatherv::tuned(ctx, &world, &send, &counts, &mut recv, select);
                }
                recv.as_slice().unwrap().to_vec()
            });
        }
    }
}

#[test]
fn allgather_legacy_and_policy_arms_are_bit_identical_across_shapes() {
    let t = Tuning::open_mpi();
    for cores in [vec![1, 3, 4], vec![4, 4], vec![2, 2, 2, 2], vec![5]] {
        for count in [1usize, 512, 4096] {
            for nonblocking in [false, true] {
                let what = format!("allgather {cores:?} count={count} nonblocking={nonblocking}");
                assert_one_path(&what, &cores, &t, 1, |ctx, select| {
                    let world = ctx.world();
                    let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
                    let mut recv = ctx.buf_zeroed::<f64>(count * world.size());
                    if nonblocking {
                        allgather::ituned(ctx, &world, &send, &mut recv, select).wait(ctx);
                    } else {
                        allgather::tuned(ctx, &world, &send, &mut recv, select);
                    }
                    recv.as_slice().unwrap().to_vec()
                });
            }
        }
    }
}

/// Bcast across its binomial → scatter+allgather boundary, from a
/// non-zero root, twice per rank (so the per-call decision count shows).
#[test]
fn bcast_legacy_and_policy_arms_are_bit_identical() {
    let t = Tuning::cray_mpich();
    let boundary = t.bcast_long_threshold / 8;
    for cores in [vec![1, 3, 4], vec![4, 4]] {
        for count in [1usize, boundary - 1, boundary, 3 * boundary] {
            for nonblocking in [false, true] {
                let what = format!("bcast {cores:?} count={count} nonblocking={nonblocking}");
                assert_one_path(&what, &cores, &t, 2, |ctx, select| {
                    let world = ctx.world();
                    let mut out = Vec::new();
                    for root in [3, 0] {
                        let mut buf = if ctx.rank() == root {
                            ctx.buf_from_fn(count, |i| datum(root, i))
                        } else {
                            ctx.buf_zeroed::<f64>(count)
                        };
                        if nonblocking {
                            bcast::ituned(ctx, &world, &mut buf, root, select).wait(ctx);
                        } else {
                            bcast::tuned(ctx, &world, &mut buf, root, select);
                        }
                        out.extend_from_slice(buf.as_slice().unwrap());
                    }
                    out
                });
            }
        }
    }
}

/// Allreduce across its recursive doubling → Rabenseifner boundary.
#[test]
fn allreduce_legacy_and_policy_arms_are_bit_identical() {
    let t = Tuning::cray_mpich();
    let boundary = t.allreduce_rabenseifner_threshold / 8;
    for cores in [vec![1, 3, 4], vec![4, 4], vec![5]] {
        for count in [1usize, boundary - 1, boundary, 4 * boundary] {
            for nonblocking in [false, true] {
                let what = format!("allreduce {cores:?} count={count} nonblocking={nonblocking}");
                assert_one_path(&what, &cores, &t, 1, |ctx, select| {
                    let world = ctx.world();
                    let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
                    let mut recv = ctx.buf_zeroed::<f64>(count);
                    if nonblocking {
                        allreduce::ituned(ctx, &world, &send, &mut recv, Sum, select).wait(ctx);
                    } else {
                        allreduce::tuned(ctx, &world, &send, &mut recv, Sum, select);
                    }
                    recv.as_slice().unwrap().to_vec()
                });
            }
        }
    }
}
