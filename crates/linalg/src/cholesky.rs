//! Cholesky factorization and triangular solves.

use crate::mat::Mat;

/// The lower-triangular Cholesky factor `L` of a symmetric positive
/// definite matrix `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factorize a symmetric positive definite matrix.
    ///
    /// Returns `None` when a non-positive pivot is met (the matrix is not
    /// positive definite to working precision).
    pub fn new(a: &Mat) -> Option<Self> {
        assert_eq!(a.rows(), a.cols(), "Cholesky needs a square matrix");
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return None;
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Some(Self { l })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L·y = b` (forward substitution).
    pub fn solve_l(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                let lik = self.l[(i, k)];
                y[i] -= lik * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        y
    }

    /// Solve `Lᵀ·x = y` (backward substitution).
    pub fn solve_lt(&self, y: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(y.len(), n, "dimension mismatch");
        let mut x = y.to_vec();
        for i in (0..n).rev() {
            for k in i + 1..n {
                let lki = self.l[(k, i)];
                x[i] -= lki * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solve `A·x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_lt(&self.solve_l(b))
    }

    /// The inverse of `A` (column-by-column solves; used for covariance
    /// matrices of modest dimension, e.g. the K×K precisions in BPMF).
    pub fn inverse(&self) -> Mat {
        let n = self.n();
        let mut inv = Mat::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let x = self.solve(&e);
            inv.col_mut(c).copy_from_slice(&x);
            e[c] = 0.0;
        }
        inv
    }

    /// log(det A) = 2·Σ log L\[i,i\] (model evidence diagnostics).
    pub fn log_det(&self) -> f64 {
        (0..self.n()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn spd(n: usize, seed: u64) -> Mat {
        // A = B·Bᵀ + n·I is SPD for any B.
        let b = Mat::from_fn(n, n, |r, c| {
            let x = (r as u64 * 31 + c as u64 * 17 + seed) % 23;
            x as f64 / 23.0 - 0.5
        });
        let mut a = matmul(&b, &b.t());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn llt_reconstructs_a() {
        for n in [1, 2, 5, 20] {
            let a = spd(n, 7);
            let ch = Cholesky::new(&a).expect("SPD must factor");
            let re = matmul(ch.l(), &ch.l().t());
            assert!(re.distance(&a) < 1e-10, "n={n}: {}", re.distance(&a));
        }
    }

    #[test]
    fn l_is_lower_triangular() {
        let ch = Cholesky::new(&spd(6, 3)).unwrap();
        for r in 0..6 {
            for c in r + 1..6 {
                assert_eq!(ch.l()[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn solve_satisfies_system() {
        let a = spd(8, 11);
        let ch = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = spd(5, 2);
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = matmul(&a, &inv);
        assert!(prod.distance(&Mat::eye(5)) < 1e-10);
    }

    #[test]
    fn non_spd_is_rejected() {
        let mut a = Mat::eye(3);
        a[(2, 2)] = -1.0;
        assert!(Cholesky::new(&a).is_none());
        // Singular (rank-1) matrix also fails.
        let mut s = Mat::zeros(2, 2);
        s.add_outer(&[1.0, 1.0], 1.0);
        assert!(Cholesky::new(&s).is_none());
    }

    #[test]
    fn log_det_of_diagonal() {
        let mut a = Mat::eye(3);
        a[(0, 0)] = 4.0;
        a[(1, 1)] = 9.0;
        a[(2, 2)] = 16.0;
        let ld = Cholesky::new(&a).unwrap().log_det();
        assert!((ld - (4.0f64 * 9.0 * 16.0).ln()).abs() < 1e-12);
    }
}
