//! Cross-crate integration tests: end-to-end scenarios spanning the
//! simulator, the runtime, the pure-MPI baseline, the hybrid collectives
//! and the two applications.

use hybrid_mpi::bpmf::{self, hy_bpmf, ori_bpmf, BpmfConfig};
use hybrid_mpi::collectives::{allgatherv, barrier, run_blocking, smp_aware::SmpAware};
use hybrid_mpi::msim::Drive;
use hybrid_mpi::prelude::*;
use hybrid_mpi::summa::{hy_summa, kernel::expected_c_block, ori_summa, SummaSpec};
use std::sync::Arc;

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

// Tolerances for the trend assertions below. All latencies are *virtual*
// simnet clocks (phantom data, deterministic cost model), so reruns are
// bit-identical; these constants document how much headroom each paper
// trend is given, rather than scattering bare ratios through the asserts.

/// Fig. 9: minimum hybrid-over-pure allgather speedup required at 6 ppn.
const FIG9_MIN_SPEEDUP_6PPN: f64 = 1.0;
/// Fig. 9: the 24-ppn speedup must exceed the 6-ppn speedup by this factor
/// (the paper's gap *grows* with processes per node).
const FIG9_MIN_GAP_GROWTH: f64 = 1.0;
/// Fig. 7: absolute tolerance (µs, virtual) for "hybrid latency is flat
/// in message size" on a single node.
const FIG7_FLATNESS_TOL_US: f64 = 1e-9;
/// Fig. 7: the pure-MPI single-node allgather must slow down at least this
/// much from 1 element to 2^15 elements.
const FIG7_MIN_PURE_SIZE_GROWTH: f64 = 50.0;
/// BPMF: the hybrid variant may be at most this factor slower than the
/// pure variant (it is expected to be faster; the margin absorbs
/// second-order cost-model effects, not run-to-run noise).
const BPMF_MAX_HYBRID_SLOWDOWN: f64 = 1.05;

/// The paper's headline micro result, end to end: on a multi-core
/// cluster the hybrid allgather beats the SMP-aware pure-MPI allgather,
/// and the gap grows with processes per node (Fig. 9's trend).
#[test]
fn hybrid_allgather_beats_pure_and_gap_grows_with_ppn() {
    let latency = |ppn: usize, hybrid: bool| {
        let cfg = SimConfig::new(ClusterSpec::regular(4, ppn), CostModel::cray_aries()).phantom();
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let elems = 512usize;
            if hybrid {
                let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
                let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                ag.execute(ctx);
                ctx.now() - t0
            } else {
                let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * world.size());
                barrier::tuned(ctx, &world);
                let t0 = ctx.now();
                sa.allgather(ctx, &send, &mut recv);
                ctx.now() - t0
            }
        })
        .unwrap();
        max(&r.per_rank)
    };
    let ratio6 = latency(6, false) / latency(6, true);
    let ratio24 = latency(24, false) / latency(24, true);
    assert!(
        ratio6 > FIG9_MIN_SPEEDUP_6PPN,
        "hybrid must win at 6 ppn (ratio {ratio6})"
    );
    assert!(
        ratio24 > ratio6 * FIG9_MIN_GAP_GROWTH,
        "advantage must grow with ppn: {ratio6} -> {ratio24}"
    );
}

/// Fig. 7's extreme case end to end: single-node hybrid latency is flat
/// in the message size while the pure version grows.
#[test]
fn single_node_hybrid_is_size_independent() {
    let latency = |elems: usize, hybrid: bool| {
        let cfg =
            SimConfig::new(ClusterSpec::single_node(24), CostModel::nec_infiniband()).phantom();
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            if hybrid {
                let hc = HybridComm::new(ctx, &world, Tuning::open_mpi());
                let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
                let t0 = ctx.now();
                ag.execute(ctx);
                ctx.now() - t0
            } else {
                let sa = SmpAware::new(ctx, &world, Tuning::open_mpi());
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * world.size());
                let t0 = ctx.now();
                sa.allgather(ctx, &send, &mut recv);
                ctx.now() - t0
            }
        })
        .unwrap();
        max(&r.per_rank)
    };
    let hy_small = latency(1, true);
    let hy_big = latency(1 << 15, true);
    assert!(
        (hy_big - hy_small).abs() < FIG7_FLATNESS_TOL_US,
        "{hy_small} vs {hy_big}"
    );
    assert!(latency(1 << 15, false) > latency(1, false) * FIG7_MIN_PURE_SIZE_GROWTH);
}

/// SUMMA end to end on a heterogeneous cluster with idle ranks: both
/// variants compute the exact same (verified) product.
#[test]
fn summa_variants_agree_and_verify() {
    let spec = SummaSpec {
        q: 3,
        block: 5,
        tuning: Tuning::cray_mpich(),
    };
    for kernel in [ori_summa, hy_summa] {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![4, 4, 3]),
            CostModel::cray_aries(),
        );
        let spec = spec.clone();
        let out = Universe::run(cfg, move |ctx| kernel(ctx, &spec).c_block).unwrap();
        for (rank, c) in out.per_rank.iter().enumerate() {
            if rank < 9 {
                let got = c.as_ref().expect("active rank");
                let want = expected_c_block(3, 5, rank / 3, rank % 3);
                assert!(got.distance(&want) < 1e-9, "rank {rank}");
            } else {
                assert!(c.is_none(), "rank {rank} must be idle");
            }
        }
    }
}

/// BPMF end to end: Ori and Hy produce bit-identical factorizations on
/// an irregular cluster, and the hybrid's virtual time is no worse.
#[test]
fn bpmf_variants_identical_results_hybrid_not_slower() {
    let data = Arc::new(bpmf::Dataset::synthesize(&bpmf::SyntheticSpec::tiny(21)));
    let cfg_app = BpmfConfig {
        k: 4,
        iters: 3,
        seed: 5,
        tuning: Tuning::cray_mpich(),
        compute_scale: 1.0,
    };
    let run = |hybrid: bool| {
        let sim = SimConfig::new(
            ClusterSpec::irregular(vec![3, 2, 3]),
            CostModel::cray_aries(),
        );
        let data = Arc::clone(&data);
        let cfg_app = cfg_app.clone();
        Universe::run(sim, move |ctx| {
            let rep = if hybrid {
                hy_bpmf(ctx, &data, &cfg_app)
            } else {
                ori_bpmf(ctx, &data, &cfg_app)
            };
            (rep.rmse.unwrap(), rep.elapsed_us)
        })
        .unwrap()
        .per_rank
    };
    let ori = run(false);
    let hy = run(true);
    assert_eq!(ori[0].0, hy[0].0, "factorizations must be identical");
    let t_ori = max(&ori.iter().map(|r| r.1).collect::<Vec<_>>());
    let t_hy = max(&hy.iter().map(|r| r.1).collect::<Vec<_>>());
    assert!(
        t_hy <= t_ori * BPMF_MAX_HYBRID_SLOWDOWN,
        "hybrid {t_hy} vs pure {t_ori}"
    );
}

/// The full setup flow of the paper's Fig. 4 pseudo-code, written out
/// against the public API (split, window, query, exchange).
#[test]
fn paper_fig4_pseudocode_walkthrough() {
    let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::cray_aries());
    let out = Universe::run(cfg, |ctx| {
        let comm = ctx.world();
        // Hierarchical communicator splitting [31].
        let shm = comm.split_shared(ctx);
        let bridge = comm.split_bridge(ctx, &shm);
        // Window allocation: leader asks for msg*nprocs, children 0.
        let msg = 8usize;
        let my_len = if shm.rank() == 0 {
            msg * comm.size()
        } else {
            0
        };
        let win = msim::SharedWindow::<f64>::allocate(ctx, &shm, my_len);
        // Every rank computes the address of its own partition and
        // initializes it independently.
        let my_off = msg * comm.rank();
        win.fill_with(my_off, msg, |i| (comm.rank() * 10 + i) as f64);
        // Leaders exchange over the bridge, children wait on barriers.
        if let Some(bridge) = &bridge {
            barrier::tuned(ctx, &shm);
            let counts = vec![msg * shm.size(); bridge.size()];
            let mut view = Buf::Shared(win.clone());
            let tuning = Tuning::cray_mpich();
            let mut exchange = allgatherv::InPlaceSm::new(ctx, bridge, &counts, &tuning);
            run_blocking(exchange.drive(ctx, bridge, &counts, &mut view, Drive::Block));
            barrier::tuned(ctx, &shm);
        } else {
            barrier::tuned(ctx, &shm);
            barrier::tuned(ctx, &shm);
        }
        // Each process accesses the updated buffer.
        win.snapshot()
    })
    .unwrap();
    let expected: Vec<f64> = (0..8)
        .flat_map(|r| (0..8).map(move |i| (r * 10 + i) as f64))
        .collect();
    for got in &out.per_rank {
        assert_eq!(got, &expected);
    }
}

/// Determinism across the whole stack: two identical app runs produce
/// identical virtual clocks on every rank.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let spec = SummaSpec {
            q: 2,
            block: 16,
            tuning: Tuning::open_mpi(),
        };
        let cfg = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::nec_infiniband());
        Universe::run(cfg, move |ctx| {
            hy_summa(ctx, &spec);
            ctx.now()
        })
        .unwrap()
        .clocks
    };
    assert_eq!(run(), run());
}

/// The hybrid envelope, end to end: every `Hy*` family with real payloads
/// under the three sync methods, at one and two leaders per node where
/// the family takes a leader count, against the closed-form oracles. A
/// broken arrive/go/quiesce/release step shows up here as a wrong value
/// (or a hang), so the root `cargo test` guards `hmpi`.
#[test]
fn every_hybrid_family_matches_its_oracle_at_one_and_two_leaders() {
    use hybrid_mpi::collectives::{op::Sum, testutil as oracle};
    use hybrid_mpi::hmpi::{HyAlltoall, HyGather, HyReduceScatter, HyScatter};
    use oracle::datum;

    const N: usize = 3;
    const ROOT: usize = 5; // node 1, on-node rank 1: a slot leader only at k = 2
    let span = |r: usize, at: usize, len: usize| -> Vec<f64> {
        (at..at + len).map(|i| datum(r, i)).collect()
    };
    let block = move |r: usize, at: usize| span(r, at, N);

    for sync in [
        SyncMethod::Barrier,
        SyncMethod::SharedFlags,
        SyncMethod::P2p,
    ] {
        for k in [1, 2] {
            let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test());
            let out = Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let (me, p) = (ctx.rank(), world.size());
                let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
                let mut got = Vec::new();

                let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, N, k);
                ag.write_my_block(ctx, &block(me, 0));
                ag.execute(ctx);
                got.push((0..p).flat_map(|r| ag.read_block(r)).collect::<Vec<f64>>());

                let counts = oracle::vcounts(p);
                let agv = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts, k);
                agv.write_my_block(ctx, &span(me, 0, counts[me]));
                agv.execute(ctx);
                got.push((0..p).flat_map(|r| agv.read_block(r)).collect());

                let bc = HyBcast::<f64>::with_leaders(ctx, &hc, N, k);
                if me == ROOT {
                    bc.write_message(ctx, &block(ROOT, 0));
                }
                bc.execute(ctx, ROOT);
                got.push(bc.read_message());

                let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, N, k);
                let mine = ctx.buf_from_fn(N, |i| datum(me, i));
                ar.execute(ctx, &mine, Sum);
                got.push(ar.read_result());

                let a2a = HyAlltoall::<f64>::new(ctx, &hc, N);
                for dest in 0..p {
                    a2a.write_block(ctx, dest, &block(me, dest * N));
                }
                a2a.execute(ctx);
                got.push((0..p).flat_map(|src| a2a.read_block(src)).collect());

                let rs = HyReduceScatter::<f64>::new(ctx, &hc, &vec![N; p]);
                let mine = ctx.buf_from_fn(rs.total(), |i| datum(me, i));
                rs.execute(ctx, &mine, Sum);
                got.push(rs.read_result());

                let ga = HyGather::<f64>::new(ctx, &hc, N, ROOT);
                ga.write_my_block(ctx, &block(me, 0));
                ga.execute(ctx);
                if me == ROOT {
                    got.push((0..p).flat_map(|r| ga.read_block(r)).collect());
                }

                let sc = HyScatter::<f64>::new(ctx, &hc, N, ROOT);
                if me == ROOT {
                    for dest in 0..p {
                        sc.write_block(ctx, dest, &block(ROOT, dest * N));
                    }
                }
                ctx.oob_fence(&world);
                sc.execute(ctx);
                got.push(sc.read_my_block());
                got
            })
            .unwrap();

            let p = 8;
            for (rank, got) in out.per_rank.iter().enumerate() {
                let mut want = vec![
                    oracle::expected_allgather(p, N),
                    oracle::expected_allgatherv(&oracle::vcounts(p)),
                    oracle::expected_bcast(ROOT, N),
                    oracle::expected_allreduce_sum(p, N),
                    oracle::expected_alltoall(rank, p, N),
                    oracle::expected_reduce_scatter(rank, p, &vec![N; p]),
                ];
                if rank == ROOT {
                    want.push(oracle::expected_gather(p, N));
                }
                want.push(oracle::expected_scatter(rank, ROOT, N));
                assert_eq!(got.len(), want.len());
                for (family, (g, w)) in got.iter().zip(&want).enumerate() {
                    oracle::assert_close(g, w, &format!("{sync:?} k={k} rank {rank} #{family}"));
                }
            }
        }
    }
}

/// The orders the two tests below run a universe in, against the
/// one-worker baseline: two workers popping one flat FIFO, then two
/// workers drawing every pick by adversarial schedule seeds 0-3.
fn wider_schedules() -> impl Iterator<Item = hybrid_mpi::msim::SchedulePolicy> {
    use hybrid_mpi::msim::SchedulePolicy;
    std::iter::once(SchedulePolicy::Fifo).chain((0..4).map(SchedulePolicy::adversarial))
}

/// The pool width and pick order are interchangeable: the order in which
/// ready ranks are resumed (node-affine FIFO in a one-worker pool, flat
/// FIFO in a wider pool, seeded picks under an adversarial schedule) is a
/// host-side choice that modeled behaviour never observes. Two cells of
/// the digest fixture's contract (`crates/core/tests/digests.rs`), kept
/// here so the tier-1 command guards the resume order: two-leader
/// allgather and allreduce on the irregular `[1, 3, 4]` layout, results,
/// clock bits and canonical trace equal however they are run.
#[test]
fn executors_agree_on_two_leader_collectives_on_an_irregular_layout() {
    use hybrid_mpi::collectives::op::Sum;
    use hybrid_mpi::msim::{ExecMode, FaultPlan, SchedulePolicy};

    let run = |exec: ExecMode, schedule: SchedulePolicy| {
        let cfg = SimConfig::new(
            ClusterSpec::irregular(vec![1, 3, 4]),
            CostModel::uniform_test(),
        )
        .phantom()
        .traced()
        .with_fault(FaultPlan::none().with_schedule(schedule))
        .with_exec(exec);
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), SyncMethod::Barrier);
            let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, 5, 2);
            ag.execute(ctx);
            let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, 5, 2);
            let mine = ctx.buf_zeroed::<f64>(5);
            ar.execute(ctx, &mine, Sum);
            let mut got: Vec<f64> = (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect();
            got.extend(ar.read_result());
            got.push(ctx.now());
            got
        })
        .unwrap();
        let clock_bits: Vec<u64> = r.clocks.iter().map(|c| c.to_bits()).collect();
        (r.per_rank, clock_bits, r.tracer.events())
    };

    let one = run(ExecMode::Pooled { workers: Some(1) }, SchedulePolicy::Fifo);
    assert!(one.1.iter().all(|&bits| bits != 0), "every rank took part");
    for schedule in wider_schedules() {
        let two = run(ExecMode::Pooled { workers: Some(2) }, schedule.clone());
        assert_eq!(two, one, "two workers, {schedule:?} vs one worker");
    }
}

/// The message path's wake rule — a push wakes its receiver only when
/// that receiver is blocked on the pushed key — at both pool widths and
/// under adversarial picks. Rank 1 blocks on one tag while rank 0 floods
/// it with 100 packets under another and only then posts the awaited one;
/// afterwards every node runs a four-rank flag ring whose keys queue up
/// behind a lagging receiver. Results and clock bits must agree. A wake
/// the rule lost would leave a receiver parked: at width 2 that surfaces
/// as an executor failure or a deadlock (`unwrap` fails), not a hang.
#[test]
fn executors_agree_on_a_flood_then_awaited_key_and_a_flag_ring() {
    use hybrid_mpi::msim::{ExecMode, FaultPlan, Payload, SchedulePolicy};
    use std::time::Duration;

    const FLOODED: u32 = 1;
    const AWAITED: u32 = 2;
    const IDLE: u32 = 3;
    const RING: u32 = 4;
    let run = |exec: ExecMode, schedule: SchedulePolicy| {
        let plan = FaultPlan::none()
            .with_detect_timeout(Duration::from_millis(20))
            .with_schedule(schedule);
        let cfg = SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
            .phantom()
            .with_recv_timeout(Duration::from_secs(10))
            .with_fault(plan)
            .with_exec(exec);
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let mut got = Vec::new();
            match ctx.rank() {
                0 => {
                    // Yield in a wait nobody answers, so (on one worker)
                    // rank 1 blocks on the awaited key before the flood
                    // starts.
                    assert!(ctx.recv_deadline(&world, 1, IDLE).is_err());
                    for i in 1..=100 {
                        ctx.send(&world, 1, FLOODED, Payload::Phantom(i));
                    }
                    ctx.send(&world, 1, AWAITED, Payload::Phantom(1000));
                }
                1 => {
                    got.push(ctx.recv(&world, 0, AWAITED).len());
                    got.extend((0..100).map(|_| ctx.recv(&world, 0, FLOODED).len()));
                }
                _ => {}
            }
            let shm = world.split_shared(ctx);
            let (n, r) = (shm.size(), shm.rank());
            for round in 0..50 {
                ctx.post_flag(&shm, (r + 1) % n, RING);
                if round % 3 == 0 {
                    ctx.compute(1.0e3);
                }
                ctx.wait_flag(&shm, (r + n - 1) % n, RING);
            }
            got
        })
        .unwrap();
        let clock_bits: Vec<u64> = r.clocks.iter().map(|c| c.to_bits()).collect();
        (r.per_rank, clock_bits)
    };

    let one = run(ExecMode::Pooled { workers: Some(1) }, SchedulePolicy::Fifo);
    let flood: Vec<usize> = std::iter::once(1000).chain(1..=100).collect();
    assert_eq!(one.0[1], flood);
    for schedule in wider_schedules() {
        let two = run(ExecMode::Pooled { workers: Some(2) }, schedule.clone());
        assert_eq!(two, one, "two workers, {schedule:?} vs one worker");
    }
}
