//! Per-layer probes that do not depend on the workload: host time per
//! operation of single layers, the virtual-time decomposition of the
//! hybrid allgather and direct calls into pure functions. Every traced
//! run reports them, so a per-layer claim reads the same whichever
//! workload's trace it is taken from.
//!
//! A host-time probe launches one phantom 8 × 24 universe twice — with
//! `calls` operations per rank and with none — and divides the
//! difference of the two quiet-speed wall times by the operations, so
//! launch and set-up cancel.

use std::hint::black_box;

use bench::{allgather_latency, AllgatherVariant, Machine};
use collectives::json::Json;
use collectives::smp_aware::SmpAware;
use collectives::{allgather, allreduce, bcast, op::Sum, registry, CollectiveOp, CommCase};
use hmpi::{HyAllgather, HyAllreduce, HyBcast, HyKAllgather, HybridComm, SyncMethod};
use linalg::{sample, Cholesky, Mat, SmallRng};
use msim::{Ctx, ExecMode, Request, SimConfig, Universe};
use simnet::{ClusterSpec, Estimator, Placement};

use crate::estim::quiet_s;
use crate::host::{self, quiet_wall_s, timed, Cost};
use crate::spans::{self, span};
use crate::spec::Values;
use crate::workloads::apps_real::AppsReal;
use crate::workloads::scale_events::ScaleEvents;
use crate::workloads::{Arm, PassOut, Rung, Traffic, Workload, POOLED_1};

const NODES: usize = 8;
const PPN: usize = 24;
const STACK: usize = 256 << 10;
const TAG: u32 = 11;

/// One operation of one layer, as a rank program runs it.
#[derive(Debug, Clone, Copy)]
enum Op {
    FlatAllgather,
    FlatBcast,
    FlatAllreduce,
    /// `allgather::ituned` + `wait`.
    SplitAllgather,
    HyAllgather,
    HyBcast,
    HyAllreduce,
    /// `HyKAllgather` with two leaders per node.
    HyKAllgather,
    /// `HyAllgather::iexecute` + `wait`.
    HyIexecute,
    /// One 64-byte message to the right neighbour of a world ring.
    P2p,
    /// One shared flag to the right neighbour of the on-node ring.
    Flag,
}

/// Wall seconds of `f` at the host's quiet speed, from `reps` runs.
fn quiet_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let costs: Vec<Cost> = (0..reps).map(|_| timed(&mut f).1).collect();
    quiet_wall_s(&costs)
}

fn universe<T: Send>(cfg: SimConfig, program: impl Fn(&mut Ctx) -> T + Send + Sync) -> Vec<T> {
    Universe::run(cfg, program)
        .expect("probe universe must not fail")
        .per_rank
}

/// `calls` operations of `op` on this rank, after the set-up they need.
fn op_program(ctx: &mut Ctx, m: &Machine, op: Op, calls: usize) {
    let world = ctx.world();
    let (p, me) = (world.size(), world.rank());
    let hybrid =
        |ctx: &mut Ctx| HybridComm::with_sync(ctx, &world, m.tuning.clone(), SyncMethod::Barrier);
    match op {
        Op::FlatAllgather | Op::SplitAllgather => {
            let send = ctx.buf_zeroed::<f64>(512);
            let mut recv = ctx.buf_zeroed::<f64>(512 * p);
            for _ in 0..calls {
                if matches!(op, Op::FlatAllgather) {
                    allgather::tuned(ctx, &world, &send, &mut recv, &m.tuning);
                } else {
                    allgather::ituned(ctx, &world, &send, &mut recv, &m.tuning).wait(ctx);
                }
            }
        }
        Op::FlatBcast => {
            let mut buf = ctx.buf_zeroed::<f64>(4096);
            for _ in 0..calls {
                bcast::tuned(ctx, &world, &mut buf, 0, &m.tuning);
            }
        }
        Op::FlatAllreduce => {
            let send = ctx.buf_zeroed::<f64>(1024);
            let mut recv = ctx.buf_zeroed::<f64>(1024);
            for _ in 0..calls {
                allreduce::tuned(ctx, &world, &send, &mut recv, Sum, &m.tuning);
            }
        }
        Op::HyAllgather | Op::HyIexecute => {
            let hc = hybrid(ctx);
            let ag = HyAllgather::<f64>::new(ctx, &hc, 512);
            for _ in 0..calls {
                if matches!(op, Op::HyAllgather) {
                    ag.execute(ctx);
                } else {
                    ag.iexecute(ctx).wait(ctx);
                }
            }
        }
        Op::HyKAllgather => {
            let hc = hybrid(ctx);
            let ag = HyKAllgather::<f64>::new(ctx, &hc, 512, 2);
            for _ in 0..calls {
                ag.execute(ctx);
            }
        }
        Op::HyBcast => {
            let hc = hybrid(ctx);
            let bc = HyBcast::<f64>::new(ctx, &hc, 4096);
            for _ in 0..calls {
                bc.execute(ctx, 0);
            }
        }
        Op::HyAllreduce => {
            let hc = hybrid(ctx);
            let ar = HyAllreduce::<f64>::new(ctx, &hc, 1024);
            let contribution = ctx.buf_zeroed::<f64>(1024);
            for _ in 0..calls {
                ar.execute(ctx, &contribution, Sum);
            }
        }
        Op::P2p => {
            let out = ctx.buf_zeroed::<u8>(64);
            for _ in 0..calls {
                ctx.send(&world, (me + 1) % p, TAG, out.payload_all());
            }
            for _ in 0..calls {
                black_box(ctx.recv(&world, (me + p - 1) % p, TAG));
            }
        }
        Op::Flag => {
            let shm = world.split_shared(ctx);
            let (n, r) = (shm.size(), shm.rank());
            for _ in 0..calls {
                ctx.post_flag(&shm, (r + 1) % n, TAG);
            }
            for _ in 0..calls {
                ctx.wait_flag(&shm, (r + n - 1) % n, TAG);
            }
        }
    }
}

/// Host nanoseconds per rank-operation of `op` under `exec`.
fn op_ns(m: &Machine, op: Op, exec: ExecMode, calls: usize, reps: usize) -> f64 {
    let wall = |calls: usize| {
        quiet_of(reps, || {
            let cfg = SimConfig::new(ClusterSpec::regular(NODES, PPN), m.cost.clone())
                .phantom()
                .with_stack_size(STACK)
                .with_exec(exec);
            universe(cfg, |ctx| op_program(ctx, m, op, calls));
        })
    };
    span(&format!("probe.{op:?}"), || {
        (wall(calls) - wall(0)) * 1e9 / (NODES * PPN * calls) as f64
    })
}

/// Host seconds `SmpAware::new` adds to a 4 × 24 universe.
fn smp_aware_new_s(m: &Machine, reps: usize) -> f64 {
    let wall = |build: bool| {
        quiet_of(reps, || {
            let cfg = SimConfig::new(ClusterSpec::regular(4, PPN), m.cost.clone())
                .phantom()
                .with_exec(POOLED_1);
            universe(cfg, |ctx| {
                if build {
                    let world = ctx.world();
                    black_box(SmpAware::new(ctx, &world, m.tuning.clone()));
                }
            });
        })
    };
    wall(true) - wall(false)
}

/// Host nanoseconds per rank-collective of the `scale_events` program
/// on 16 × 64 ranks under `exec`: (P4 − P3) ÷ operations.
fn executor_op_ns(exec: ExecMode, reps: usize) -> f64 {
    let w = ScaleEvents::new(16, 64);
    let wall = |rung: Rung| {
        quiet_of(reps, || {
            w.run(exec, rung, Arm::Plain, &mut Traffic::default())
                .expect("probe universe must not fail");
        })
    };
    (wall(Rung::Full) - wall(Rung::Setup)) * 1e9 / w.ops_per_pass() as f64
}

/// Host nanoseconds per rank of one full `scale_events` pass on
/// `nodes` × 64 ranks.
fn scale_ns_per_rank(nodes: usize, reps: usize) -> f64 {
    let w = ScaleEvents::new(nodes, 64);
    let wall = quiet_of(reps, || {
        w.pass(Rung::Full, Arm::Plain)
            .expect("probe universe must not fail");
    });
    wall * 1e9 / (nodes * 64) as f64
}

/// Nanoseconds per call of `f`, from `reps` batches of `batch` calls.
fn call_ns(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    quiet_of(reps, || (0..batch).for_each(&mut f)) * 1e9 / batch as f64
}

/// The virtual-time decomposition of the 512-double allgather on 4 × 24
/// ranks (paper §5): barriers alone on one node, plus the bridge
/// exchange across four, against the pure SMP-aware baseline.
fn virtual_decomposition(m: &Machine, v: &mut Values) {
    let latency = |spec: ClusterSpec, elems: usize, variant: AllgatherVariant| {
        allgather_latency(
            spec,
            m,
            elems,
            variant,
            Placement::SmpBlock,
            ExecMode::Events,
        )
    };
    let multi = || ClusterSpec::regular(4, PPN);
    let hy = latency(multi(), 512, AllgatherVariant::Hybrid);
    let pure = latency(multi(), 512, AllgatherVariant::PureSmpAware);
    let sync = latency(ClusterSpec::single_node(PPN), 512, AllgatherVariant::Hybrid);
    v.insert("hmpi.hy_allgather_virt_us", hy);
    v.insert("collectives.smp_allgather_virt_us", pure);
    v.insert("hmpi.hy_over_pure_512", hy / pure);
    v.insert(
        "hmpi.hy_over_pure_16384",
        latency(multi(), 16384, AllgatherVariant::Hybrid)
            / latency(multi(), 16384, AllgatherVariant::PureSmpAware),
    );
    v.insert("hmpi.sync_virt_us", sync);
    v.insert("hmpi.bridge_virt_us", hy - sync);
}

/// Direct calls into pure functions of `collectives`, `simnet` and
/// `linalg`.
fn pure_functions(m: &Machine, reps: usize, v: &mut Values) {
    let est = Estimator::for_span(&m.cost, true);
    v.insert(
        "collectives.select_ns",
        call_ns(reps, 2000, |i| {
            let case =
                CommCase::new(CollectiveOp::Allgather, 96, 4, 96 * 8 * (1 + i % 4096)).windowed();
            black_box(
                registry::global()
                    .best(&est, black_box(&case))
                    .map(|(_, cost)| cost),
            );
        }),
    );
    v.insert(
        "simnet.estimate_ns",
        call_ns(reps, 20000, |i| {
            let bytes = black_box(8 * (1 + i % 4096));
            black_box(
                est.msg(bytes)
                    + est.doubling_rounds(96, bytes, 96 * bytes)
                    + est.halving_rounds(96, bytes),
            );
            black_box(est.uniform_rounds(95, bytes) + est.barrier(96) + est.copy(bytes));
        }),
    );
    let table = include_str!("../../results/tuning/cray_aries.json");
    v.insert(
        "collectives.json.roundtrip_s",
        quiet_of(reps, || {
            black_box(
                Json::parse(black_box(table))
                    .expect("committed tuning table parses")
                    .pretty(),
            );
        }),
    );

    let n = 96;
    let (a, b) = (
        Mat::from_fn(n, n, summa::kernel::a_elem),
        Mat::from_fn(n, n, summa::kernel::b_elem),
    );
    let mut c = Mat::zeros(n, n);
    let gemm_s = quiet_of(4 * reps, || {
        linalg::gemm(1.0, black_box(&a), black_box(&b), 0.0, &mut c)
    });
    v.insert(
        "linalg.gemm_gflops",
        linalg::gemm::gemm_flops(n, n, n) / gemm_s / 1e9,
    );
    // AᵀA + n·I is symmetric positive definite.
    let spd = linalg::matmul(&a.t(), &a).add_diag(n as f64);
    v.insert(
        "linalg.cholesky_s",
        quiet_of(4 * reps, || {
            black_box(Cholesky::new(black_box(&spd)).expect("SPD matrix factors"));
        }),
    );
    // BPMF's shapes: one K × K Wishart draw and 1000 K-variate normals.
    let k = 16;
    let scale = Mat::eye(k);
    let chol = Cholesky::new(&scale.add_diag(1.0)).expect("SPD matrix factors");
    let mean = vec![0.5; k];
    v.insert(
        "linalg.sample_s",
        quiet_of(reps, || {
            let mut rng = SmallRng::seed_from_u64(7);
            black_box(sample::wishart(&mut rng, k as f64 + 2.0, &scale));
            for _ in 0..1000 {
                black_box(sample::mvn_with_chol(&mut rng, &mean, &chol));
            }
        }),
    );
}

/// The applications universe by universe (host seconds from the spans
/// `apps_real` records), their virtual-time ratio, and what arming the
/// race detector costs them.
fn applications(seed: u64, reps: usize, v: &mut Values) {
    let apps = AppsReal::standard(seed);
    let mark = spans::count();
    let passes = |arm: Arm| -> (Vec<PassOut>, Vec<Cost>) {
        let pass = || {
            apps.pass(Rung::Full, arm)
                .expect("probe pass must not fail")
        };
        (0..reps).map(|_| timed(pass)).unzip()
    };
    let (outs, plain) = passes(Arm::Plain);
    for (metric, name) in [
        ("summa.ori_s", "summa.ori"),
        ("summa.hy_s", "summa.hy"),
        ("summa.hy_overlap_s", "summa.hy_overlap"),
        ("bpmf.synth_s", "bpmf.synthesize"),
        ("bpmf.ori_s", "bpmf.ori"),
        ("bpmf.hy_s", "bpmf.hy"),
    ] {
        // One span of each name per pass, at the speed of that pass.
        let durations = spans::durations_s(name, mark);
        let samples: Vec<(f64, f64)> = durations
            .iter()
            .zip(&plain)
            .map(|(&d, c)| (d, c.spin_s))
            .collect();
        v.insert(metric, quiet_s(&samples, host::fastest_spin_s()));
    }
    v.insert(
        "msim.race.armed_ratio",
        quiet_wall_s(&passes(Arm::Race).1) / quiet_wall_s(&plain),
    );
    let out = outs.last().expect("reps >= 1");
    v.insert("summa.hy_over_ori_virt", out.clocks[1] / out.clocks[0]);
    v.insert(
        "bpmf.rmse",
        *out.data.last().expect("a full pass returns the RMSEs"),
    );
}

/// Every workload-independent per-layer metric. `reps` is the number of
/// repetitions behind each quiet-speed timing.
pub fn common(seed: u64, reps: usize) -> Values {
    let m = Machine::hazel_hen();
    let mut v = Values::new();
    let pooled = |op, calls| op_ns(&m, op, POOLED_1, calls, reps);
    v.insert("msim.p2p_msg_ns", pooled(Op::P2p, 512));
    v.insert(
        "msim.p2p_msg_ns_events",
        op_ns(&m, Op::P2p, ExecMode::Events, 512, reps),
    );
    v.insert("msim.window.flag_ns", pooled(Op::Flag, 512));
    v.insert("collectives.allgather_op_ns", pooled(Op::FlatAllgather, 8));
    v.insert("collectives.bcast_op_ns", pooled(Op::FlatBcast, 32));
    v.insert("collectives.allreduce_op_ns", pooled(Op::FlatAllreduce, 16));
    v.insert("collectives.split.iop_ns", pooled(Op::SplitAllgather, 8));
    v.insert("hmpi.hy_allgather_op_ns", pooled(Op::HyAllgather, 32));
    v.insert("hmpi.hy_bcast_op_ns", pooled(Op::HyBcast, 32));
    v.insert("hmpi.hy_allreduce_op_ns", pooled(Op::HyAllreduce, 32));
    v.insert("hmpi.hyk_allgather_op_ns", pooled(Op::HyKAllgather, 32));
    v.insert("hmpi.iexecute_op_ns", pooled(Op::HyIexecute, 32));
    v.insert(
        "collectives.smp_aware_new_s",
        span("probe.smp_aware_new", || smp_aware_new_s(&m, reps)),
    );
    span("probe.executors", || {
        v.insert(
            "msim.calendar.op_ns",
            executor_op_ns(ExecMode::Events, reps),
        );
        v.insert("msim.exec.op_ns", executor_op_ns(POOLED_1, reps));
    });
    span("probe.scale", || {
        let (small, large) = (
            scale_ns_per_rank(64, reps.min(3)),
            scale_ns_per_rank(512, 1),
        );
        v.insert("msim.scale.ns_per_rank_4k", small);
        v.insert("msim.scale.ns_per_rank_32k", large);
        v.insert("msim.scale.superlinearity", large / small);
    });
    span("probe.virtual", || virtual_decomposition(&m, &mut v));
    span("probe.pure_functions", || pure_functions(&m, reps, &mut v));
    span("probe.applications", || {
        applications(seed, reps.min(3), &mut v)
    });
    v
}
