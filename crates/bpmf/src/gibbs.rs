//! The BPMF Gibbs sampler math (Salakhutdinov & Mnih, ICML'08): read
//! the latent matrices in place, factor each precision once.
//!
//! Latent matrices are stored flat, column-per-entity: entity `e`'s
//! K-vector occupies `[e*K, (e+1)*K)`. This layout makes each rank's
//! block of entities a contiguous slice — exactly what the allgather
//! exchanges.
//!
//! **Reading in place.** Nothing here owns a latent matrix. Every
//! function that needs entity `e` of U or V asks an accessor
//! `FnMut(e, &mut [f64])` to fill one K-slot it keeps for the purpose:
//! [`flat`] over a private replica, a direct load from the node-shared
//! window in Hy_BPMF (`crate::app`). One copy of the replicated data
//! per node is the premise of the hybrid scheme; the sampler must not
//! undo it on the host by materialising a vector per rating or a full
//! matrix per iteration.
//!
//! **One factorization.** The conditional posterior of an entity is
//! N(Λ*⁻¹·rhs, Λ*⁻¹) with Λ* = Λ + α·Σ v·vᵀ and
//! rhs = Λμ + α·Σ (r − mean)·v. With the Cholesky factor Λ* = L·Lᵀ and
//! z ~ N(0, I),
//!
//! ```text
//! x = L⁻ᵀ·(L⁻¹·rhs + z)
//! ```
//!
//! has mean L⁻ᵀL⁻¹·rhs = Λ*⁻¹·rhs and covariance L⁻ᵀ·L⁻¹ = Λ*⁻¹, so
//! [`LatentSampler`] draws from the posterior with one factorization
//! and three triangular solves (≈ K³/3 + 3K² flops) — no explicit
//! inverse, no second factorization, no heap allocation per entity.
//!
//! **What the model charges.** [`latent_flops`] and [`hyper_flops`]
//! still price the *reference* implementation the paper measured (Eigen
//! with per-sample temporaries, an explicit covariance and its own
//! factorization — `BpmfConfig::compute_scale` calibrates the rest), not
//! this host code: the virtual clock reproduces the paper's
//! compute/communication ratio, and making the simulator's own
//! arithmetic cheaper must not move it.

use linalg::rng::{Rng, SmallRng};
use linalg::sample::{mvn_with_chol, standard_normal, wishart};
use linalg::{Cholesky, Csr, Mat};

/// Observation precision (the BPMF reference code fixes α = 2).
pub const ALPHA: f64 = 2.0;

/// Normal–Wishart hyperparameters for one side (users or items).
#[derive(Debug, Clone)]
pub struct HyperParams {
    /// Precision matrix Λ (K×K).
    pub lambda: Mat,
    /// Mean vector μ (K).
    pub mu: Vec<f64>,
}

impl HyperParams {
    /// The initial hyperparameters: μ = 0, Λ = I.
    pub fn initial(k: usize) -> Self {
        Self {
            lambda: Mat::eye(k),
            mu: vec![0.0; k],
        }
    }
}

/// Deterministic per-(seed, iteration, entity-class, rank) RNG stream.
pub fn stream_rng(seed: u64, iter: usize, class: u64, rank: usize) -> SmallRng {
    let s = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(iter as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(class)
        .wrapping_mul(0x94d0_49bb_1331_11eb)
        .wrapping_add(rank as u64);
    SmallRng::seed_from_u64(s)
}

/// The accessor over a flat column-per-entity latent matrix: entity
/// `e` is copied out of `latent[e*K..(e+1)*K]`.
pub fn flat(latent: &[f64]) -> impl Fn(usize, &mut [f64]) + '_ {
    move |e, out| {
        let k = out.len();
        out.copy_from_slice(&latent[e * k..(e + 1) * k]);
    }
}

/// Sample hyperparameters from the Normal–Wishart posterior given the
/// `n` latent vectors `entity` yields (K each), in two streaming passes
/// — the mean, then the scatter around it — so no caller has to hold
/// the full matrix.
///
/// Every rank calls this over the same full matrix with the same RNG
/// stream, so the draw is replicated instead of broadcast (the standard
/// trick in distributed BPMF implementations).
pub fn sample_hyper(
    rng: &mut SmallRng,
    k: usize,
    n: usize,
    mut entity: impl FnMut(usize, &mut [f64]),
) -> HyperParams {
    let (beta0, nu0) = (2.0, k as f64);
    let mu0 = vec![0.0; k];

    if n == 0 {
        return HyperParams::initial(k);
    }
    let nf = n as f64;

    // Sample mean and scatter.
    let mut slot = vec![0.0; k];
    let mut mean = vec![0.0; k];
    for e in 0..n {
        entity(e, &mut slot);
        for (m, x) in mean.iter_mut().zip(&slot) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= nf;
    }
    let mut scatter = Mat::zeros(k, k);
    for e in 0..n {
        entity(e, &mut slot);
        for (x, m) in slot.iter_mut().zip(&mean) {
            *x -= m;
        }
        scatter.add_outer(&slot, 1.0);
    }

    // Posterior Normal–Wishart parameters.
    let beta_star = beta0 + nf;
    let nu_star = nu0 + nf;
    let mu_star: Vec<f64> = (0..k)
        .map(|d| (beta0 * mu0[d] + nf * mean[d]) / beta_star)
        .collect();
    let mut w_inv = Mat::eye(k); // W0^-1 = I
    w_inv = &w_inv + &scatter;
    let mut md = vec![0.0; k];
    for d in 0..k {
        md[d] = mean[d] - mu0[d];
    }
    w_inv.add_outer(&md, beta0 * nf / beta_star);
    let w_star = Cholesky::new(&w_inv)
        .expect("posterior scale must be SPD")
        .inverse();

    let lambda = wishart(rng, nu_star, &w_star);
    // μ ~ N(μ*, (β*·Λ)^-1).
    let cov = Cholesky::new(&lambda.scale(beta_star))
        .expect("posterior precision must be SPD")
        .inverse();
    let chol = Cholesky::new(&cov).expect("covariance must be SPD");
    let mu = mvn_with_chol(rng, &mu_star, &chol);
    HyperParams { lambda, mu }
}

/// Start of row `r` in a packed lower triangle (rows 0..r hold
/// 1 + 2 + … + r elements).
fn tri(r: usize) -> usize {
    r * (r + 1) / 2
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The workspace that samples the latent vectors of one side (users or
/// items) for one iteration: what depends only on the hyperparameters —
/// the lower triangle of Λ and the vector Λμ — is computed once here,
/// and [`LatentSampler::sample`] reuses the same K(K+1)/2- and K-sized
/// buffers for every entity.
///
/// Triangles are packed by rows (row `r` is `r + 1` contiguous
/// elements), so the rank-1 accumulation is one linear walk and the
/// factorization and all three solves run at unit stride.
#[derive(Debug)]
pub struct LatentSampler {
    /// Lower triangle of Λ.
    lambda: Vec<f64>,
    /// Λ·μ.
    lambda_mu: Vec<f64>,
    /// The entity's precision Λ* = Λ + α·Σ v·vᵀ, then its Cholesky
    /// factor L, in place.
    factor: Vec<f64>,
    /// rhs = Λμ + α·Σ (r − mean)·v.
    rhs: Vec<f64>,
    /// The slot `other` fills with one vector of the opposite side.
    slot: Vec<f64>,
}

impl LatentSampler {
    /// A sampler for entities whose prior is `hp`.
    pub fn new(hp: &HyperParams) -> Self {
        let k = hp.mu.len();
        let lambda: Vec<f64> = (0..k)
            .flat_map(|r| (0..=r).map(move |c| hp.lambda[(r, c)]))
            .collect();
        Self {
            factor: vec![0.0; lambda.len()],
            lambda,
            lambda_mu: hp.lambda.matvec(&hp.mu),
            rhs: vec![0.0; k],
            slot: vec![0.0; k],
        }
    }

    /// Sample one entity's latent vector into `out`, given its ratings
    /// and read access to the other side's latent matrix. `ratings`
    /// iterates (other-entity, value); `other(j, slot)` fills `slot`
    /// with other-entity `j`'s vector. Draws exactly K standard normals
    /// from `rng`.
    ///
    /// # Panics
    /// Panics if the accumulated precision is not positive definite to
    /// working precision (a NaN or ∞ among the inputs ends here too).
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        ratings: impl Iterator<Item = (usize, f64)>,
        mut other: impl FnMut(usize, &mut [f64]),
        mean_shift: f64,
        out: &mut [f64],
    ) {
        let Self {
            lambda,
            lambda_mu,
            factor,
            rhs,
            slot,
        } = self;
        let k = rhs.len();
        assert_eq!(out.len(), k, "latent dimension mismatch");

        // Λ* and rhs: the prior, plus one rank-1 term per rating.
        factor.copy_from_slice(lambda);
        rhs.copy_from_slice(lambda_mu);
        for (j, value) in ratings {
            other(j, slot);
            for (r, &vr) in slot.iter().enumerate() {
                let weight = ALPHA * vr;
                for (a, &vc) in factor[tri(r)..=tri(r) + r].iter_mut().zip(slot.iter()) {
                    *a += weight * vc;
                }
            }
            let centered = ALPHA * (value - mean_shift);
            for (b, &v) in rhs.iter_mut().zip(slot.iter()) {
                *b += centered * v;
            }
        }

        // Row by row: L in place of Λ* (Cholesky–Banachiewicz), and
        // that row of the forward solve y = L⁻¹·rhs.
        for i in 0..k {
            let (above, rest) = factor.split_at_mut(tri(i));
            let row = &mut rest[..=i];
            for j in 0..i {
                let row_j = &above[tri(j)..=tri(j) + j];
                row[j] = (row[j] - dot(&row[..j], &row_j[..j])) / row_j[j];
            }
            let pivot = row[i] - dot(&row[..i], &row[..i]);
            assert!(
                pivot > 0.0 && pivot.is_finite(),
                "posterior precision must be SPD"
            );
            row[i] = pivot.sqrt();
            out[i] = (rhs[i] - dot(&row[..i], &out[..i])) / row[i];
        }
        // w = y + z.
        for w in out.iter_mut() {
            *w += standard_normal(rng);
        }

        // x = L⁻ᵀ·w by columns of Lᵀ, i.e. rows of L.
        for i in (0..k).rev() {
            let row = &factor[tri(i)..=tri(i) + i];
            out[i] /= row[i];
            let x = out[i];
            for (w, &l) in out[..i].iter_mut().zip(row) {
                *w -= l * x;
            }
        }
    }
}

/// Flop estimate for sampling one entity with `nnz` ratings at latent
/// dimension `k`: the Σ v·vᵀ accumulation (2·nnz·k²) plus the K³-order
/// factorization/inversion work.
pub fn latent_flops(k: usize, nnz: usize) -> f64 {
    2.0 * nnz as f64 * (k * k) as f64 + 2.0 * (k * k * k) as f64
}

/// Flop estimate for one hyperparameter draw over `n` entities.
pub fn hyper_flops(k: usize, n: usize) -> f64 {
    2.0 * n as f64 * (k * k) as f64 + 4.0 * (k * k * k) as f64
}

/// Root-mean-square error of predictions `⟨u, v⟩ + mean` over triplets;
/// `u` and `v` fill a K-slot with one entity's vector.
pub fn rmse(
    k: usize,
    mut u: impl FnMut(usize, &mut [f64]),
    mut v: impl FnMut(usize, &mut [f64]),
    test: &[(usize, usize, f64)],
    mean_shift: f64,
) -> f64 {
    assert!(!test.is_empty(), "empty test set");
    let (mut uu, mut vv) = (vec![0.0; k], vec![0.0; k]);
    let mut se = 0.0;
    for &(ui, vi, r) in test {
        u(ui, &mut uu);
        v(vi, &mut vv);
        let pred = dot(&uu, &vv) + mean_shift;
        se += (pred - r) * (pred - r);
    }
    (se / test.len() as f64).sqrt()
}

/// A full serial Gibbs run (the oracle the distributed versions are
/// tested against, and a usable single-process solver in its own right).
pub fn serial_gibbs(
    train: &Csr,
    train_t: &Csr,
    k: usize,
    iters: usize,
    seed: u64,
    mean_shift: f64,
) -> (Vec<f64>, Vec<f64>) {
    let (nu, ni) = (train.rows(), train.cols());
    let mut u = init_latent(k, nu, seed, 0);
    let mut v = init_latent(k, ni, seed, 1);
    for it in 0..iters {
        let mut hyper_rng = stream_rng(seed, it, 100, 0);
        let hp_u = sample_hyper(&mut hyper_rng, k, nu, flat(&u));
        let hp_v = sample_hyper(&mut hyper_rng, k, ni, flat(&v));

        // Per-entity RNG streams: the draw for an entity is independent
        // of which rank samples it, so the distributed versions produce
        // bit-identical factorizations for any partitioning.
        let mut sampler = LatentSampler::new(&hp_u);
        for (e, out) in u.chunks_exact_mut(k).enumerate() {
            let mut rng = stream_rng(seed, it, 0, e);
            sampler.sample(&mut rng, train.row(e), flat(&v), mean_shift, out);
        }
        let mut sampler = LatentSampler::new(&hp_v);
        for (e, out) in v.chunks_exact_mut(k).enumerate() {
            let mut rng = stream_rng(seed, it, 1, e);
            sampler.sample(&mut rng, train_t.row(e), flat(&u), mean_shift, out);
        }
    }
    (u, v)
}

/// Deterministic latent initialization: small noise around zero.
pub fn init_latent(k: usize, n: usize, seed: u64, class: u64) -> Vec<f64> {
    let mut rng = stream_rng(seed, usize::MAX, class, 0);
    (0..k * n)
        .map(|_| standard_normal(&mut rng) * 0.1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticSpec};

    #[test]
    fn hyper_sampling_tracks_the_data() {
        // Latents clustered around (3, -1): posterior mean must be near.
        let k = 2;
        let n = 500;
        let mut gen = stream_rng(1, 0, 9, 0);
        let latent: Vec<f64> = (0..n)
            .flat_map(|_| {
                let a = 3.0 + standard_normal(&mut gen) * 0.2;
                let b = -1.0 + standard_normal(&mut gen) * 0.2;
                [a, b]
            })
            .collect();
        let mut rng = stream_rng(1, 0, 10, 0);
        let hp = sample_hyper(&mut rng, k, n, flat(&latent));
        assert!((hp.mu[0] - 3.0).abs() < 0.3, "mu0 {}", hp.mu[0]);
        assert!((hp.mu[1] + 1.0).abs() < 0.3, "mu1 {}", hp.mu[1]);
        // Precision must be SPD.
        assert!(Cholesky::new(&hp.lambda).is_some());
    }

    #[test]
    fn empty_matrix_gives_prior() {
        let mut rng = stream_rng(0, 0, 0, 0);
        let hp = sample_hyper(&mut rng, 3, 0, flat(&[]));
        assert_eq!(hp.mu, vec![0.0; 3]);
    }

    #[test]
    fn latent_posterior_contracts_onto_ratings() {
        // One user rating many items whose vectors are e1: posterior u[0]
        // should approach value/|v|² -scale, definitely positive & large.
        let k = 2;
        let hp = HyperParams::initial(k);
        let mut rng = stream_rng(3, 0, 0, 0);
        let ratings: Vec<(usize, f64)> = (0..50).map(|j| (j, 4.0)).collect();
        let mut u = [0.0; 2];
        LatentSampler::new(&hp).sample(
            &mut rng,
            ratings.into_iter(),
            |_, v| v.copy_from_slice(&[1.0, 0.0]),
            0.0,
            &mut u,
        );
        assert!(u[0] > 3.0, "u0 {} should be pulled toward 4", u[0]);
        assert!(
            u[1].abs() < 3.5,
            "u1 {} should stay near the N(0,1) prior",
            u[1]
        );
    }

    /// An entity's posterior in the form the sampler is given it (prior,
    /// ratings, the other side's vectors) and as the dense Λ* and rhs
    /// the textbook formulas build from the same inputs.
    struct Posterior {
        hp: HyperParams,
        ratings: Vec<(usize, f64)>,
        other: Vec<f64>,
        precision: Mat,
        rhs: Vec<f64>,
    }

    const MEAN_SHIFT: f64 = 0.25;

    fn posterior(k: usize, nnz: usize) -> Posterior {
        let mut gen = stream_rng(21, 0, 7, k);
        // Any SPD prior precision that is not a multiple of I.
        let b = Mat::from_fn(k, k, |_, _| standard_normal(&mut gen) * 0.3);
        let hp = HyperParams {
            lambda: linalg::matmul(&b, &b.t()).add_diag(1.0),
            mu: (0..k).map(|_| standard_normal(&mut gen)).collect(),
        };
        let other: Vec<f64> = (0..nnz * k).map(|_| standard_normal(&mut gen)).collect();
        let ratings: Vec<(usize, f64)> = (0..nnz)
            .map(|j| (j, 3.0 * standard_normal(&mut gen)))
            .collect();
        let mut precision = hp.lambda.clone();
        let mut rhs = hp.lambda.matvec(&hp.mu);
        for &(j, value) in &ratings {
            let vj = &other[j * k..(j + 1) * k];
            precision.add_outer(vj, ALPHA);
            for (b, v) in rhs.iter_mut().zip(vj) {
                *b += ALPHA * (value - MEAN_SHIFT) * v;
            }
        }
        Posterior {
            hp,
            ratings,
            other,
            precision,
            rhs,
        }
    }

    impl Posterior {
        fn draw<R: Rng>(&self, sampler: &mut LatentSampler, rng: &mut R, out: &mut [f64]) {
            let ratings = self.ratings.iter().copied();
            sampler.sample(rng, ratings, flat(&self.other), MEAN_SHIFT, out);
        }
    }

    /// A generator under which `standard_normal` returns 0 every time:
    /// the polar method draws u then v uniform in [-1, 1) and returns
    /// u·√(−2·ln s / s); these bits make u = 0 and v = 0.5.
    struct ZeroNoise(bool);

    impl Rng for ZeroNoise {
        fn next_u64(&mut self) -> u64 {
            self.0 = !self.0;
            if self.0 {
                1 << 63
            } else {
                3 << 62
            }
        }
    }

    #[test]
    fn without_noise_the_sampler_solves_the_posterior_mean() {
        assert_eq!(standard_normal(&mut ZeroNoise(false)), 0.0);
        for (k, nnz) in [(1, 3), (4, 0), (5, 9), (16, 40)] {
            let post = posterior(k, nnz);
            let want = Cholesky::new(&post.precision).unwrap().solve(&post.rhs);
            let mut sampler = LatentSampler::new(&post.hp);
            let mut got = vec![0.0; k];
            // Twice: the workspace carries nothing from one entity to
            // the next.
            for _ in 0..2 {
                post.draw(&mut sampler, &mut ZeroNoise(false), &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-12, "k={k} nnz={nnz}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn draws_have_the_posterior_mean_and_covariance() {
        let (k, n) = (4, 20_000);
        let post = posterior(k, 6);
        let chol = Cholesky::new(&post.precision).unwrap();
        let (mean, cov) = (chol.solve(&post.rhs), chol.inverse());
        let mut sampler = LatentSampler::new(&post.hp);
        let mut rng = stream_rng(77, 0, 0, 0);
        let mut draws = vec![0.0; n * k];
        for x in draws.chunks_exact_mut(k) {
            post.draw(&mut sampler, &mut rng, x);
        }
        let nf = n as f64;
        let mut got_mean = vec![0.0; k];
        for x in draws.chunks_exact(k) {
            for (m, v) in got_mean.iter_mut().zip(x) {
                *m += v / nf;
            }
        }
        let mut got_cov = Mat::zeros(k, k);
        let mut diff = vec![0.0; k];
        for x in draws.chunks_exact(k) {
            for d in 0..k {
                diff[d] = x[d] - got_mean[d];
            }
            got_cov.add_outer(&diff, 1.0 / nf);
        }
        // With σ² the largest variance, a sample mean is off by at most
        // about σ/√n and a sample covariance by about σ²·√(2/n): allow
        // five of those standard errors.
        let sigma2 = cov.max_abs();
        let mean_tol = 5.0 * (sigma2 / nf).sqrt();
        let cov_tol = 5.0 * sigma2 * (2.0 / nf).sqrt();
        for d in 0..k {
            assert!(
                (got_mean[d] - mean[d]).abs() < mean_tol,
                "mean[{d}]: {} vs {} (tolerance {mean_tol})",
                got_mean[d],
                mean[d]
            );
        }
        assert!(
            (&got_cov - &cov).max_abs() < cov_tol,
            "covariance {got_cov:?} vs {cov:?} (tolerance {cov_tol})"
        );
    }

    #[test]
    #[should_panic(expected = "posterior precision must be SPD")]
    fn a_non_finite_input_is_reported_as_a_broken_precision() {
        let hp = HyperParams::initial(3);
        let mut out = [0.0; 3];
        LatentSampler::new(&hp).sample(
            &mut stream_rng(0, 0, 0, 0),
            [(0, 1.0)].into_iter(),
            |_, v| v.fill(f64::NAN),
            0.0,
            &mut out,
        );
    }

    #[test]
    fn serial_gibbs_reduces_rmse() {
        // Evaluate the *posterior-mean* predictor (predictions averaged
        // over several Gibbs samples — what BPMF actually reports), not a
        // single sample: one draw from the posterior of a tiny dataset is
        // too noisy a statistic to assert on. Because every iteration's
        // RNG stream depends only on (seed, iteration), running the chain
        // to successive lengths replays the same samples, so the average
        // can be collected from repeated deterministic runs.
        let d = Dataset::synthesize(&SyntheticSpec::tiny(7));
        let k = 6;
        let seed = 5;
        let u0 = init_latent(k, d.users(), seed, 0);
        let v0 = init_latent(k, d.items(), seed, 1);
        let before = rmse(k, flat(&u0), flat(&v0), &d.test, d.mean);
        let (burn_in, last) = (5usize, 12usize);
        let mut preds = vec![0.0f64; d.test.len()];
        for iters in burn_in..=last {
            let (u, v) = serial_gibbs(&d.train, &d.train_t, k, iters, seed, d.mean);
            for (t, &(i, j, _)) in d.test.iter().enumerate() {
                let dot: f64 = (0..k).map(|x| u[i * k + x] * v[j * k + x]).sum();
                preds[t] += dot + d.mean;
            }
        }
        let nsamples = (last - burn_in + 1) as f64;
        let se: f64 = d
            .test
            .iter()
            .zip(&preds)
            .map(|(&(_, _, r), &p)| (p / nsamples - r) * (p / nsamples - r))
            .sum();
        let after = (se / d.test.len() as f64).sqrt();
        assert!(
            after < before * 0.9,
            "Gibbs must improve RMSE: before {before}, after {after}"
        );
        assert!(after < 1.0, "planted model should be learnable: {after}");
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<f64> = {
            let mut r = stream_rng(1, 2, 3, 4);
            (0..5).map(|_| standard_normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = stream_rng(1, 2, 3, 4);
            (0..5).map(|_| standard_normal(&mut r)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut r = stream_rng(1, 2, 3, 5);
            (0..5).map(|_| standard_normal(&mut r)).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn flop_estimates_scale() {
        assert!(latent_flops(16, 100) > latent_flops(16, 10));
        assert!(hyper_flops(16, 1000) > hyper_flops(16, 100));
    }
}
