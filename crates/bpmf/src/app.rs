//! Distributed BPMF drivers: Ori_ (pure MPI) and Hy_ (hybrid MPI+MPI).
//!
//! The two variants differ only in where the full latent matrices live
//! and how a rank's fresh slice reaches everyone else
//! (`LatentExchange`); the sampling code is shared and reads U and V
//! **in place**. Hy_BPMF keeps one copy of each matrix per node, in the
//! hybrid allgather's window, and every read of entity `e` — by the
//! sampler once per rating, by the hyperparameter draw and by the RMSE —
//! is a direct load from that window into a K-slot the reader reuses
//! (`LatentExchange::read`); no rank materialises a vector per rating
//! or a private full matrix, which would undo on the host exactly the
//! replication the hybrid scheme removes. Ori_BPMF reads its private
//! replicas through the same accessor, and receives the allgather
//! straight into them.
//!
//! Each entity is drawn by [`LatentSampler`] with one Cholesky
//! factorization, x = L⁻ᵀ(L⁻¹·rhs + z) (see [`crate::gibbs`]). The
//! modeled compute charge is independent of that: `ctx.compute` is fed
//! [`latent_flops`] / [`hyper_flops`] × `compute_scale`, which describe
//! the reference code the paper timed, so virtual time is a property of
//! the configuration and not of how fast the host happens to sample.

use collectives::{allgatherv, barrier, Tuning};
use hmpi::{FtComm, HyAllgatherv, HybridComm};
use msim::{Buf, Communicator, Ctx, DataMode};

use crate::data::{owner, partition, Dataset};
use crate::gibbs::{
    hyper_flops, init_latent, latent_flops, rmse, sample_hyper, stream_rng, HyperParams,
    LatentSampler,
};

/// Parameters of a distributed BPMF run.
#[derive(Debug, Clone)]
pub struct BpmfConfig {
    /// Latent dimension K (the reference code uses 10–32; default 16).
    pub k: usize,
    /// Number of Gibbs iterations (the paper measures 20).
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// MPI library tuning for the exchanges.
    pub tuning: Tuning,
    /// Multiplier on the modeled sampling flop counts. The reference
    /// implementation (Eigen with per-sample temporaries) sustains a
    /// small fraction of the nominal flop rate on these K×K kernels, so
    /// its measured per-iteration times correspond to several times the
    /// raw flop count; [`BpmfConfig::paper`] uses the calibrated value.
    pub compute_scale: f64,
}

impl BpmfConfig {
    /// The paper's measurement configuration: 20 iterations.
    pub fn paper(seed: u64, tuning: Tuning) -> Self {
        Self {
            k: 16,
            iters: 20,
            seed,
            tuning,
            compute_scale: 8.0,
        }
    }
}

/// Per-rank outcome.
#[derive(Debug, Clone)]
pub struct BpmfReport {
    /// Virtual time of the timed region — the paper's "TotalTime" over
    /// all iterations (µs).
    pub elapsed_us: f64,
    /// Test RMSE of the final factorization (real-data universes only).
    pub rmse: Option<f64>,
}

/// How a variant stores and exchanges the full latent matrices.
#[allow(clippy::large_enum_variant)] // one value per rank, lifetime of the run
enum LatentExchange<'a> {
    /// Private full replicas + library `MPI_Allgatherv`, received
    /// straight into the replica.
    Private {
        u: Buf<f64>,
        v: Buf<f64>,
        tuning: &'a Tuning,
    },
    /// Node-shared windows + hybrid allgather.
    Windows {
        hc: HybridComm,
        u: HyAllgatherv<f64>,
        v: HyAllgatherv<f64>,
    },
}

impl LatentExchange<'_> {
    /// Load entity `e` of the users' (`users_side`) or the items' latent
    /// matrix into `out` (K elements): a slice of the private replica,
    /// or a direct load from the window, whose blocks are the per-rank
    /// slices of a [`partition`] over that side's entities.
    fn read(&self, data: &Dataset, users_side: bool, e: usize, out: &mut [f64]) {
        let k = out.len();
        match self {
            LatentExchange::Private { u, v, .. } => {
                let m = if users_side { u } else { v };
                let m = m.as_slice().expect("real-mode replica");
                out.copy_from_slice(&m[e * k..(e + 1) * k]);
            }
            LatentExchange::Windows { hc, u, v } => {
                let (h, n) = if users_side {
                    (u, data.users())
                } else {
                    (v, data.items())
                };
                let (r, idx) = owner(n, hc.comm().size(), e);
                h.window().read_into(h.block_offset(r) + idx * k, out);
            }
        }
    }
}

/// Generic driver over an explicit communicator (so fault-tolerant
/// callers can re-run it on a shrunk world); `ori_bpmf`/`hy_bpmf` pick
/// the exchange flavor over `MPI_COMM_WORLD`. `fence` is
/// [`HybridComm::fence`] everywhere but in the race-detector test that
/// shows what its absence costs.
fn run_bpmf(
    ctx: &mut Ctx,
    comm: &Communicator,
    data: &Dataset,
    cfg: &BpmfConfig,
    hybrid: bool,
    fence: fn(&HybridComm, &mut Ctx),
) -> BpmfReport {
    let world = comm.clone();
    let p = world.size();
    let me = world.rank();
    let k = cfg.k;
    let (nu, ni) = (data.users(), data.items());
    let (u_lo, u_hi) = partition(nu, p, me);
    let (i_lo, i_hi) = partition(ni, p, me);
    let real = ctx.mode() == DataMode::Real;

    // Element counts per rank for the two allgathers.
    let u_counts: Vec<usize> = (0..p)
        .map(|r| (partition(nu, p, r).1 - partition(nu, p, r).0) * k)
        .collect();
    let v_counts: Vec<usize> = (0..p)
        .map(|r| (partition(ni, p, r).1 - partition(ni, p, r).0) * k)
        .collect();

    // One-off setup + initial latent matrices (identical on every rank).
    let mut ex = if hybrid {
        let hc = HybridComm::new(ctx, &world, cfg.tuning.clone());
        let u = HyAllgatherv::<f64>::new(ctx, &hc, &u_counts);
        let v = HyAllgatherv::<f64>::new(ctx, &hc, &v_counts);
        if real {
            let u0 = init_latent(k, nu, cfg.seed, 0);
            let v0 = init_latent(k, ni, cfg.seed, 1);
            u.write_my_block(ctx, &u0[u_lo * k..u_hi * k]);
            v.write_my_block(ctx, &v0[i_lo * k..i_hi * k]);
        }
        // One-off untimed exchange so the initial latents are visible
        // cluster-wide (the pure-MPI version starts from full replicas).
        u.execute(ctx);
        v.execute(ctx);
        LatentExchange::Windows { hc, u, v }
    } else {
        let (u, v) = if real {
            (
                Buf::Real(init_latent(k, nu, cfg.seed, 0)),
                Buf::Real(init_latent(k, ni, cfg.seed, 1)),
            )
        } else {
            (Buf::Phantom(nu * k), Buf::Phantom(ni * k))
        };
        LatentExchange::Private {
            u,
            v,
            tuning: &cfg.tuning,
        }
    };
    // This rank's freshly sampled slice of one side: staged here because
    // other ranks may still be reading the previous iterate out of the
    // window, and sent from here by the pure-MPI allgather. One buffer
    // for both sides and every iteration.
    let mut fresh = Vec::with_capacity(u_counts[me].max(v_counts[me]));

    barrier::tuned(ctx, &world);
    let t0 = ctx.now();

    for it in 0..cfg.iters {
        // --- Hyperparameters: replicated draw over the full matrices ---
        // (identical stream on every rank; no communication needed).
        let hyper = real.then(|| {
            let mut hyper_rng = stream_rng(cfg.seed, it, 100, 0);
            let hp_u = sample_hyper(&mut hyper_rng, k, nu, |e, out| ex.read(data, true, e, out));
            let hp_v = sample_hyper(&mut hyper_rng, k, ni, |e, out| ex.read(data, false, e, out));
            (hp_u, hp_v)
        });
        ctx.compute((hyper_flops(k, nu) + hyper_flops(k, ni)) * cfg.compute_scale);

        let sides = [
            // Sample my users against the full V, then allgather U.
            (true, (u_lo, u_hi), &u_counts),
            // Sample my items against the full U, then allgather V.
            (false, (i_lo, i_hi), &v_counts),
        ];
        for (users_side, range, counts) in sides {
            let hp = hyper
                .as_ref()
                .map(|(hp_u, hp_v)| if users_side { hp_u } else { hp_v });
            sample_side(ctx, data, cfg, &ex, it, users_side, range, hp, &mut fresh);
            if real {
                publish(ctx, &mut ex, users_side, range.0 * k, &fresh, fence);
            }
            exchange(ctx, &world, &mut ex, users_side, counts, &mut fresh);
        }
    }

    let elapsed_us = ctx.now() - t0;
    let final_rmse = real.then(|| {
        rmse(
            k,
            |e, out| ex.read(data, true, e, out),
            |e, out| ex.read(data, false, e, out),
            &data.test,
            data.mean,
        )
    });
    BpmfReport {
        elapsed_us,
        rmse: final_rmse,
    }
}

/// Sample this rank's slice `range` of one side (users or items) into
/// `fresh`, reading the other side in place. Phantom mode (`hp` is
/// `None`) only charges the modeled flops.
#[allow(clippy::too_many_arguments)]
fn sample_side(
    ctx: &mut Ctx,
    data: &Dataset,
    cfg: &BpmfConfig,
    ex: &LatentExchange,
    it: usize,
    users_side: bool,
    (lo, hi): (usize, usize),
    hp: Option<&HyperParams>,
    fresh: &mut Vec<f64>,
) {
    let k = cfg.k;
    let ratings = if users_side {
        &data.train
    } else {
        &data.train_t
    };
    let class = if users_side { 0 } else { 1 };

    // Charge the modeled flops for this slice.
    let flops: f64 = (lo..hi).map(|e| latent_flops(k, ratings.row_nnz(e))).sum();
    ctx.compute(flops * cfg.compute_scale);

    let Some(hp) = hp else { return };
    let mut sampler = LatentSampler::new(hp);
    fresh.clear();
    fresh.resize((hi - lo) * k, 0.0);
    for (e, out) in (lo..hi).zip(fresh.chunks_exact_mut(k)) {
        let mut rng = stream_rng(cfg.seed, it, class, e);
        let other = |j: usize, slot: &mut [f64]| ex.read(data, !users_side, j, slot);
        sampler.sample(&mut rng, ratings.row(e), other, data.mean, out);
    }
}

/// Write the fresh slice (elements `at..` of the side's flat matrix)
/// back into this rank's own storage (real mode only).
fn publish(
    ctx: &mut Ctx,
    ex: &mut LatentExchange,
    users_side: bool,
    at: usize,
    fresh: &[f64],
    fence: fn(&HybridComm, &mut Ctx),
) {
    match ex {
        LatentExchange::Private { u, v, .. } => {
            let m = if users_side { u } else { v };
            let m = m.as_mut_slice().expect("real-mode replica");
            m[at..at + fresh.len()].copy_from_slice(fresh);
        }
        LatentExchange::Windows { u, v, hc } => {
            // Wall-clock fence before rewriting the shared window (other
            // ranks may still be reading the previous iterate).
            fence(hc, ctx);
            let h = if users_side { u } else { v };
            h.write_my_block(ctx, fresh);
        }
    }
}

/// Run the allgather of one side.
fn exchange(
    ctx: &mut Ctx,
    world: &Communicator,
    ex: &mut LatentExchange,
    users_side: bool,
    counts: &[usize],
    fresh: &mut Vec<f64>,
) {
    match ex {
        LatentExchange::Private { u, v, tuning } => {
            let replica = if users_side { u } else { v };
            let send = match ctx.mode() {
                DataMode::Real => Buf::Real(std::mem::take(fresh)),
                DataMode::Phantom => Buf::Phantom(counts[world.rank()]),
            };
            allgatherv::tuned(ctx, world, &send, counts, replica, *tuning);
            if let Buf::Real(sent) = send {
                *fresh = sent;
            }
        }
        LatentExchange::Windows { u, v, .. } => {
            let h = if users_side { u } else { v };
            h.execute(ctx);
        }
    }
}

/// **Ori_BPMF**: the original pure-MPI code — every rank keeps a private
/// replica of both latent matrices and exchanges slices with the MPI
/// library's `MPI_Allgatherv`.
pub fn ori_bpmf(ctx: &mut Ctx, data: &Dataset, cfg: &BpmfConfig) -> BpmfReport {
    let world = ctx.world();
    run_bpmf(ctx, &world, data, cfg, false, HybridComm::fence)
}

/// **Hy_BPMF**: the hybrid MPI+MPI version — the latent matrices live in
/// node-shared windows; the exchange is the paper's hybrid allgather with
/// its barrier pair ("a barrier synchronization across the on-node
/// processes needs to be added before and after the all-to-all gather
/// communication operations in Hy_BPMF", §5.2.2).
pub fn hy_bpmf(ctx: &mut Ctx, data: &Dataset, cfg: &BpmfConfig) -> BpmfReport {
    let world = ctx.world();
    run_bpmf(ctx, &world, data, cfg, true, HybridComm::fence)
}

/// Hy_BPMF over an explicit communicator (a shrunk world after
/// recovery). Ranks re-partition the dataset by their rank *within*
/// `comm`, so any subset of survivors computes the same factorization a
/// fresh run at that size would — the final RMSE matches the serial
/// oracle regardless of how many ranks remain.
pub fn hy_bpmf_on(
    ctx: &mut Ctx,
    comm: &Communicator,
    data: &Dataset,
    cfg: &BpmfConfig,
) -> BpmfReport {
    run_bpmf(ctx, comm, data, cfg, true, HybridComm::fence)
}

/// Fault-tolerant Hy_BPMF: the whole run is one protected round of
/// `ft`. If a rank dies mid-run under `FaultPolicy::Shrink`, the
/// survivors agree, shrink, and restart the factorization from the top
/// on the reduced world; the Gibbs chain is seeded, so the restarted
/// run converges to the same factorization a clean run at the shrunk
/// size would.
pub fn ft_bpmf(ctx: &mut Ctx, ft: &mut FtComm, data: &Dataset, cfg: &BpmfConfig) -> BpmfReport {
    ft.run_raw(ctx, "bpmf", |ctx, comm| {
        run_bpmf(ctx, comm, data, cfg, true, HybridComm::fence)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticSpec};
    use crate::gibbs::{flat, serial_gibbs};
    use collectives::FaultPolicy;
    use hmpi::SyncMethod;
    use msim::{FaultPlan, SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel, EventKind};
    use std::sync::Arc;
    use std::time::Duration;

    fn tiny_cfg() -> BpmfConfig {
        BpmfConfig {
            k: 4,
            iters: 3,
            seed: 11,
            tuning: Tuning::cray_mpich(),
            compute_scale: 1.0,
        }
    }

    fn serial_rmse(data: &Dataset, cfg: &BpmfConfig) -> f64 {
        let (u, v) = serial_gibbs(
            &data.train,
            &data.train_t,
            cfg.k,
            cfg.iters,
            cfg.seed,
            data.mean,
        );
        rmse(cfg.k, flat(&u), flat(&v), &data.test, data.mean)
    }

    #[test]
    fn distributed_matches_serial_exactly() {
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec::tiny(11)));
        let cfg = tiny_cfg();
        let want = serial_rmse(&data, &cfg);
        for hybrid in [false, true] {
            let data = Arc::clone(&data);
            let cfg = cfg.clone();
            let sim = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test());
            let r = Universe::run(sim, move |ctx| {
                let rep = if hybrid {
                    hy_bpmf(ctx, &data, &cfg)
                } else {
                    ori_bpmf(ctx, &data, &cfg)
                };
                rep.rmse.unwrap()
            })
            .unwrap();
            for (rank, &got) in r.per_rank.iter().enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "hybrid={hybrid} rank {rank}: rmse {got} vs serial {want}"
                );
            }
        }
    }

    #[test]
    fn race_detector_passes_hy_bpmf_and_catches_a_skipped_fence() {
        // Every load the sampler, the hyper draw and the RMSE make from
        // the node-shared windows is ordered against every write by the
        // hybrid allgather's barrier pair and the fence before
        // `write_my_block`; the detector must see all of those edges.
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec::tiny(11)));
        let cfg = tiny_cfg();
        let want = serial_rmse(&data, &cfg);
        let sim = || {
            SimConfig::new(ClusterSpec::regular(2, 4), CostModel::uniform_test())
                .with_race_detect(true)
        };

        let (d, c) = (Arc::clone(&data), cfg.clone());
        let clean = Universe::run(sim().traced(), move |ctx| {
            hy_bpmf(ctx, &d, &c).rmse.unwrap()
        })
        .expect("Hy_BPMF is race-free");
        assert!(clean.per_rank.iter().all(|&got| got == want));
        let checked = clean
            .tracer
            .events()
            .into_iter()
            .find_map(|e| match e.kind {
                EventKind::RaceCheck { accesses, races } => Some((accesses, races)),
                _ => None,
            });
        let (accesses, races) = checked.expect("an armed traced run records its verdict");
        assert!(accesses > 0, "the detector saw the window traffic");
        assert_eq!(races, 0);

        // The mutant: drop the fence, and a fast rank rewrites its block
        // of U while a slow one is still reading U for its hyper draw.
        let err = Universe::run(sim(), move |ctx| {
            let world = ctx.world();
            run_bpmf(ctx, &world, &data, &cfg, true, |_, _| {}).rmse
        })
        .expect_err("write_my_block without the fence races with the readers");
        assert!(err.is_race(), "expected a race report, got: {err}");
    }

    #[test]
    fn ft_bpmf_recovers_to_the_serial_rmse_after_a_kill() {
        // A rank dies mid-Gibbs; under Shrink the survivors restart the
        // factorization on the reduced world. The final RMSE is the
        // serial oracle's — it is p-independent, so the shrunk run must
        // land on exactly the same factorization.
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec::tiny(11)));
        let cfg = tiny_cfg();
        let want = serial_rmse(&data, &cfg);
        for victim in [0usize, 3] {
            let plan = FaultPlan::none().with_kill(victim, 12);
            let sim = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test())
                .with_fault(plan)
                .with_recv_timeout(Duration::from_secs(5));
            let data = Arc::clone(&data);
            let cfg = cfg.clone();
            let r = Universe::run_ft(sim, move |ctx| {
                let world = ctx.world();
                let mut ft = FtComm::new(&world, cfg.tuning.clone(), SyncMethod::Barrier)
                    .with_fault(FaultPolicy::Shrink);
                ft_bpmf(ctx, &mut ft, &data, &cfg).rmse.unwrap()
            })
            .unwrap();
            assert_eq!(r.failed, vec![victim]);
            for (rank, got) in r.per_rank.iter().enumerate() {
                if rank == victim {
                    assert!(got.is_none());
                    continue;
                }
                let got = got.unwrap();
                assert!(
                    (got - want).abs() < 1e-9,
                    "victim={victim} rank {rank}: rmse {got} vs serial {want}"
                );
            }
        }
    }

    #[test]
    fn ft_bpmf_reconverges_on_a_regrown_world() {
        // kill → shrink → grow → rerun: rank 1 dies in round 0, the
        // survivors shrink and finish the round, the roll-call recruits
        // spare 4, and round 1 runs the factorization on the regrown
        // 4-rank world. The RMSE is p-independent, so every member of
        // the regrown world — including the recruit — must land on the
        // serial oracle.
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec::tiny(11)));
        let cfg = tiny_cfg();
        let want = serial_rmse(&data, &cfg);
        let plan = FaultPlan::none().with_kill(1, 20);
        let sim = SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
            .with_fault(plan)
            .with_recv_timeout(Duration::from_secs(5));
        let tuning = cfg.tuning.clone();
        let r = Universe::run_ft(sim, move |ctx| {
            let world = ctx.world();
            FtComm::run_elastic(
                ctx,
                &world,
                &[4, 5],
                tuning.clone(),
                SyncMethod::Barrier,
                collectives::FaultPolicy::Shrink,
                hmpi::Leaders::Fixed(1),
                2,
                |ctx, ft, _round| ft_bpmf(ctx, ft, &data, &cfg).rmse.unwrap(),
            )
        })
        .unwrap();
        assert_eq!(r.failed, vec![1], "exactly the victim dies");
        for rank in [0usize, 2, 3, 4] {
            let rounds = r.per_rank[rank].as_ref().unwrap();
            let got = rounds[1].expect("regrown-world round must run");
            assert!(
                (got - want).abs() < 1e-9,
                "rank {rank}: regrown-world rmse {got} vs serial {want}"
            );
        }
        assert!(
            r.per_rank[4].as_ref().unwrap()[0].is_none(),
            "the recruit sat out round 0"
        );
        assert!(
            r.per_rank[5].as_ref().unwrap().iter().all(|x| x.is_none()),
            "the unrecruited spare never runs"
        );
    }

    #[test]
    fn learning_actually_happens() {
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec::tiny(3)));
        let mut cfg = tiny_cfg();
        cfg.k = 6;
        cfg.iters = 8;
        let sim = SimConfig::new(ClusterSpec::regular(1, 3), CostModel::uniform_test());
        let d2 = Arc::clone(&data);
        let cfg2 = cfg.clone();
        let r = Universe::run(sim, move |ctx| hy_bpmf(ctx, &d2, &cfg2).rmse.unwrap()).unwrap();
        assert!(r.per_rank[0] < 1.0, "rmse {} too high", r.per_rank[0]);
    }

    #[test]
    fn phantom_and_real_times_agree() {
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec::tiny(9)));
        let cfg = tiny_cfg();
        let time = |phantom: bool, hybrid: bool| {
            let mut sim = SimConfig::new(ClusterSpec::regular(2, 2), CostModel::cray_aries());
            if phantom {
                sim = sim.phantom();
            }
            let data = Arc::clone(&data);
            let cfg = cfg.clone();
            Universe::run(sim, move |ctx| {
                if hybrid {
                    hy_bpmf(ctx, &data, &cfg).elapsed_us
                } else {
                    ori_bpmf(ctx, &data, &cfg).elapsed_us
                }
            })
            .unwrap()
            .per_rank
        };
        assert_eq!(time(false, false), time(true, false), "ori");
        assert_eq!(time(false, true), time(true, true), "hy");
    }

    #[test]
    fn hybrid_is_not_slower_at_scale() {
        // Small-scale smoke version of the Fig. 12 claim.
        let data = Arc::new(Dataset::synthesize(&SyntheticSpec {
            users: 600,
            items: 80,
            nnz: 3000,
            seed: 2,
        }));
        let cfg = BpmfConfig {
            k: 8,
            iters: 2,
            seed: 4,
            tuning: Tuning::cray_mpich(),
            compute_scale: 1.0,
        };
        let time = |hybrid: bool| {
            let sim = SimConfig::new(ClusterSpec::regular(4, 6), CostModel::cray_aries()).phantom();
            let data = Arc::clone(&data);
            let cfg = cfg.clone();
            Universe::run(sim, move |ctx| {
                if hybrid {
                    hy_bpmf(ctx, &data, &cfg).elapsed_us
                } else {
                    ori_bpmf(ctx, &data, &cfg).elapsed_us
                }
            })
            .unwrap()
            .per_rank
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
        };
        let t_ori = time(false);
        let t_hy = time(true);
        assert!(
            t_hy <= t_ori,
            "Hy_BPMF ({t_hy}) should not lose to Ori_BPMF ({t_ori})"
        );
    }
}
