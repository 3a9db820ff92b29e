//! Conformance suite for the hybrid MPI+MPI collectives.
//!
//! Mirrors `crates/collectives/tests/conformance.rs` for the paper's
//! shared-window path: every `Hy*` collective is checked against the same
//! analytic oracles (`collectives::testutil`) under the standard seeded
//! fault plans, for **all three** synchronization protocols
//! (`Barrier`, `SharedFlags`, `P2p`) on a regular 4×6 cluster and an
//! irregular [1, 3, 4] cluster, and — for the families that take a leader
//! count — at `leaders` ∈ {1, 2, 4} (4 slots stripe the 4×6 nodes; the
//! [1, 3, 4] cluster clamps every request to one). The synchronization
//! protocol around the shared windows is exactly what adversarial
//! scheduling stresses: a missing release/acquire pair shows up as a
//! seed-dependent wrong result.
//!
//! Kill checks use loose assertions: a rank killed inside the shared
//! setup collective can surface as a *peer's* rendezvous panic rather
//! than the injected kill itself; the property under test is that the
//! run errors out promptly instead of hanging.

use std::time::{Duration, Instant};

use collectives::testutil::{
    assert_close, conf_seeds, datum, expected_allgather, expected_allgatherv,
    expected_allreduce_sum, expected_alltoall, expected_bcast, expected_gather, expected_scatter,
    run_fuzzed, vcounts, CONF_SEEDS,
};
use collectives::{op::Sum, Tuning};
use hmpi::{
    HyAllgather, HyAllgatherv, HyAllreduce, HyAlltoall, HyBcast, HyGather, HyScatter, HybridComm,
    SyncMethod,
};
use msim::{Ctx, FaultPlan, SimConfig, SimResult, Universe};
use simnet::{ClusterSpec, CostModel, Perturbation};

const COUNT: usize = 5;
const ROOT: usize = 1;
const SYNCS: [SyncMethod; 3] = [
    SyncMethod::Barrier,
    SyncMethod::SharedFlags,
    SyncMethod::P2p,
];

/// Leader counts for the families that take one; the others run at
/// `[1]`.
const KS: [usize; 3] = [1, 2, 4];

type Prog = fn(&mut Ctx, SyncMethod, usize) -> Vec<f64>;
type Oracle = fn(usize, usize) -> Vec<f64>;

/// Every (sync method, leader count) cell of a family taking `ks`.
fn sync_k(ks: &[usize]) -> impl Iterator<Item = (SyncMethod, usize)> + '_ {
    SYNCS
        .into_iter()
        .flat_map(move |s| ks.iter().map(move |&k| (s, k)))
}

fn run_under(
    spec: ClusterSpec,
    fault: FaultPlan,
    traced: bool,
    (sync, k): (SyncMethod, usize),
    prog: Prog,
) -> SimResult<Vec<f64>> {
    run_fuzzed(spec, fault, traced, move |ctx| prog(ctx, sync, k))
}

fn check_family(name: &str, prog: Prog, oracle: Oracle, ks: &[usize]) {
    for cell in sync_k(ks) {
        for spec in [
            ClusterSpec::regular(4, 6),
            ClusterSpec::irregular(vec![1, 3, 4]),
        ] {
            let p = spec.total_cores();
            let base = run_under(spec.clone(), FaultPlan::none(), false, cell, prog);
            for rank in 0..p {
                assert_close(
                    &base.per_rank[rank],
                    &oracle(rank, p),
                    &format!("{name}/{cell:?}: baseline, rank {rank}, p={p}"),
                );
            }
            for &seed in conf_seeds() {
                let fuzzed = run_under(
                    spec.clone(),
                    FaultPlan::from_seed(seed, p),
                    false,
                    cell,
                    prog,
                );
                for rank in 0..p {
                    assert_close(
                        &fuzzed.per_rank[rank],
                        &oracle(rank, p),
                        &format!("{name}/{cell:?}: seed {seed}, rank {rank}, p={p}"),
                    );
                }
                assert_eq!(
                    fuzzed.per_rank, base.per_rank,
                    "{name}/{cell:?}: seed {seed} changed results, p={p}"
                );
            }
        }
    }
    // Same-seed determinism, including clocks and the canonical trace.
    let spec = ClusterSpec::irregular(vec![1, 3, 4]);
    let p = spec.total_cores();
    let plan = || FaultPlan::from_seed(CONF_SEEDS[0], p);
    let cell = (SyncMethod::SharedFlags, *ks.last().expect("a leader count"));
    let a = run_under(spec.clone(), plan(), true, cell, prog);
    let b = run_under(spec, plan(), true, cell, prog);
    assert_eq!(
        a.per_rank, b.per_rank,
        "{name}: same seed, different results"
    );
    assert_eq!(a.clocks, b.clocks, "{name}: same seed, different clocks");
    assert_eq!(
        a.tracer.events(),
        b.tracer.events(),
        "{name}: same seed, different trace"
    );
}

/// Kill a rank mid-collective: the run must error out promptly (any of
/// the victim's panic, a peer's rendezvous panic, or a suspected
/// deadlock), never hang. The victim, on-node rank 1, is a slot leader
/// at `k ≥ 2`.
fn expect_kill(prog: Prog, ks: &[usize]) {
    for &k in ks {
        let cfg = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_recv_timeout(Duration::from_millis(300))
            .with_fault(FaultPlan::none().with_kill(1, 0));
        let t0 = Instant::now();
        let err = Universe::run(cfg, move |ctx| prog(ctx, SyncMethod::Barrier, k))
            .expect_err("a killed rank must fail the run");
        assert!(err.is_panic() || err.is_deadlock(), "k={k}: {err}");
        assert!(t0.elapsed() < Duration::from_secs(20), "kill must not hang");
    }
}

fn expect_delay_determinism(name: &str, prog: Prog, oracle: Oracle, k: usize) {
    let name = &format!("{name}/k={k}");
    let spec = ClusterSpec::regular(2, 3);
    let p = spec.total_cores();
    let perturb = Perturbation::none()
        .with_delayed_rank(2, 9.0)
        .with_message_jitter(1.5);
    let nominal = run_under(
        spec.clone(),
        FaultPlan::none(),
        false,
        (SyncMethod::SharedFlags, k),
        prog,
    );
    let run = || {
        run_under(
            spec.clone(),
            FaultPlan::none().with_perturbation(perturb.clone()),
            false,
            (SyncMethod::SharedFlags, k),
            prog,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.clocks, b.clocks,
        "{name}: same perturbation, different clocks"
    );
    assert_eq!(a.per_rank, nominal.per_rank, "{name}: delays changed data");
    for rank in 0..p {
        assert_close(
            &a.per_rank[rank],
            &oracle(rank, p),
            &format!("{name}: delayed, rank {rank}"),
        );
    }
    assert!(
        a.clocks.iter().zip(&nominal.clocks).all(|(d, n)| d >= n),
        "{name}: injected delays can only slow ranks down"
    );
}

// ---------------------------------------------------------------- programs

fn hy_allgather_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ag = HyAllgather::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    ag.write_my_block(ctx, &mine);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_allgather_oracle(_rank: usize, p: usize) -> Vec<f64> {
    expected_allgather(p, COUNT)
}

fn hy_allgatherv_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let counts = vcounts(world.size());
    let hc = HybridComm::with_sync(ctx, &world, Tuning::open_mpi(), sync);
    let ag = HyAllgatherv::<f64>::with_leaders(ctx, &hc, &counts, k);
    let mine: Vec<f64> = (0..counts[ctx.rank()])
        .map(|i| datum(ctx.rank(), i))
        .collect();
    ag.write_my_block(ctx, &mine);
    ag.execute(ctx);
    (0..ctx.nranks()).flat_map(|r| ag.read_block(r)).collect()
}

fn hy_allgatherv_oracle(_rank: usize, p: usize) -> Vec<f64> {
    expected_allgatherv(&vcounts(p))
}

fn hy_bcast_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let bc = HyBcast::<f64>::with_leaders(ctx, &hc, COUNT, k);
    if ctx.rank() == ROOT {
        let msg: Vec<f64> = (0..COUNT).map(|i| datum(ROOT, i)).collect();
        bc.write_message(ctx, &msg);
    }
    bc.execute(ctx, ROOT);
    bc.read_message()
}

fn hy_bcast_oracle(_rank: usize, _p: usize) -> Vec<f64> {
    expected_bcast(ROOT, COUNT)
}

fn hy_allreduce_prog(ctx: &mut Ctx, sync: SyncMethod, k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let ar = HyAllreduce::<f64>::with_leaders(ctx, &hc, COUNT, k);
    let contribution = ctx.buf_from_fn(COUNT, |i| datum(ctx.rank(), i));
    ar.execute(ctx, &contribution, Sum);
    ar.read_result()
}

fn hy_allreduce_oracle(_rank: usize, p: usize) -> Vec<f64> {
    expected_allreduce_sum(p, COUNT)
}

fn hy_alltoall_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let a2a = HyAlltoall::<f64>::new(ctx, &hc, COUNT);
    let me = ctx.rank();
    for dest in 0..world.size() {
        let data: Vec<f64> = (0..COUNT).map(|k| datum(me, dest * COUNT + k)).collect();
        a2a.write_block(ctx, dest, &data);
    }
    a2a.execute(ctx);
    (0..world.size())
        .flat_map(|src| a2a.read_block(src))
        .collect()
}

fn hy_alltoall_oracle(rank: usize, p: usize) -> Vec<f64> {
    expected_alltoall(rank, p, COUNT)
}

fn hy_gather_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let g = HyGather::<f64>::new(ctx, &hc, COUNT, ROOT);
    let mine: Vec<f64> = (0..COUNT).map(|i| datum(ctx.rank(), i)).collect();
    g.write_my_block(ctx, &mine);
    g.execute(ctx);
    if ctx.rank() == ROOT {
        (0..world.size()).flat_map(|r| g.read_block(r)).collect()
    } else {
        Vec::new()
    }
}

fn hy_gather_oracle(rank: usize, p: usize) -> Vec<f64> {
    if rank == ROOT {
        expected_gather(p, COUNT)
    } else {
        Vec::new()
    }
}

fn hy_scatter_prog(ctx: &mut Ctx, sync: SyncMethod, _k: usize) -> Vec<f64> {
    let world = ctx.world();
    let hc = HybridComm::with_sync(ctx, &world, Tuning::cray_mpich(), sync);
    let s = HyScatter::<f64>::new(ctx, &hc, COUNT, ROOT);
    if ctx.rank() == ROOT {
        for dest in 0..world.size() {
            let data: Vec<f64> = (0..COUNT).map(|k| datum(ROOT, dest * COUNT + k)).collect();
            s.write_block(ctx, dest, &data);
        }
    }
    ctx.oob_fence(&world);
    s.execute(ctx);
    s.read_my_block()
}

fn hy_scatter_oracle(rank: usize, _p: usize) -> Vec<f64> {
    expected_scatter(rank, ROOT, COUNT)
}

// ------------------------------------------------------------------ suite

macro_rules! family {
    ($name:ident, $prog:path, $oracle:path, $ks:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn conforms_under_seeded_schedules() {
                check_family(stringify!($name), $prog, $oracle, &$ks);
            }

            #[test]
            fn injected_kill_is_surfaced() {
                expect_kill($prog, &$ks);
            }

            #[test]
            fn injected_delay_is_deterministic_and_data_safe() {
                for k in $ks {
                    expect_delay_determinism(stringify!($name), $prog, $oracle, k);
                }
            }
        }
    };
}

family!(hy_allgather, hy_allgather_prog, hy_allgather_oracle, KS);
family!(hy_allgatherv, hy_allgatherv_prog, hy_allgatherv_oracle, KS);
family!(hy_bcast, hy_bcast_prog, hy_bcast_oracle, KS);
family!(hy_allreduce, hy_allreduce_prog, hy_allreduce_oracle, KS);
family!(hy_alltoall, hy_alltoall_prog, hy_alltoall_oracle, [1]);
family!(hy_gather, hy_gather_prog, hy_gather_oracle, [1]);
family!(hy_scatter, hy_scatter_prog, hy_scatter_oracle, [1]);
