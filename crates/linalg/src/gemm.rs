//! Blocked, register-tiled general matrix multiplication.

use crate::mat::{Mat, MatRef};

/// Cache-block edge length (elements) over the columns of C and over
/// k: a 64×64 f64 block of B is 32 KiB.
const BLOCK: usize = 64;

/// Cache-block length over the rows. The register tile streams down
/// the rows at unit stride, so long runs amortise its set-up; the
/// `ROWS`×`BLOCK` panel of A (128 KiB) stays in L2 while every column
/// pair of the block reuses it.
const ROWS: usize = 256;

/// k-steps one register tile folds into C per pass over its rows.
const KSTEP: usize = 4;

/// `C ← α·A·B + β·C`.
///
/// Blocked over (j, k, i) panels; inside a panel a register tile of two
/// C columns × four k-steps walks down the rows, so every load of a
/// C or A element feeds four or two multiply-adds instead of one. Every
/// product is computed: a zero in B costs what any other value costs,
/// and `0·NaN`, `0·∞` reach C as IEEE says they must.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    gemm_ref(alpha, a.view(), b.view(), beta, c);
}

/// [`gemm`] over borrowed operands.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_ref(alpha: f64, a: MatRef, b: MatRef, beta: f64, c: &mut Mat) {
    let (m, ka) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(ka, kb, "inner dimensions must agree");
    assert_eq!(c.rows(), m, "C row mismatch");
    assert_eq!(c.cols(), n, "C col mismatch");
    let k = ka;

    if beta != 1.0 {
        for v in c.data_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    for jb in (0..n).step_by(BLOCK) {
        let jend = (jb + BLOCK).min(n);
        for kb_ in (0..k).step_by(BLOCK) {
            let kend = (kb_ + BLOCK).min(k);
            for ib in (0..m).step_by(ROWS) {
                let iend = (ib + ROWS).min(m);
                let mut j = jb;
                while j + 2 <= jend {
                    let (left, right) = c.data_mut().split_at_mut((j + 1) * m);
                    let cols = [&mut left[j * m + ib..j * m + iend], &mut right[ib..iend]];
                    column_tile(alpha, a, b, cols, j, kb_..kend, ib);
                    j += 2;
                }
                if j < jend {
                    let cols = [&mut c.col_mut(j)[ib..iend]];
                    column_tile(alpha, a, b, cols, j, kb_..kend, ib);
                }
            }
        }
    }
}

/// `C[ib.., j..j+NC] += α·A[ib.., ks]·B[ks, j..j+NC]` for the rows the
/// `c` slices cover, [`KSTEP`] k-steps at a time and singly for the
/// remainder.
fn column_tile<const NC: usize>(
    alpha: f64,
    a: MatRef,
    b: MatRef,
    mut c: [&mut [f64]; NC],
    j: usize,
    ks: std::ops::Range<usize>,
    ib: usize,
) {
    let rows = ib..ib + c[0].len();
    let mut kk = ks.start;
    while kk + KSTEP <= ks.end {
        let a_cols: [&[f64]; KSTEP] = std::array::from_fn(|q| &a.col(kk + q)[rows.clone()]);
        let b_tile = std::array::from_fn(|col| {
            std::array::from_fn::<_, KSTEP, _>(|q| alpha * b.at(kk + q, j + col))
        });
        fold(&mut c, a_cols, b_tile);
        kk += KSTEP;
    }
    while kk < ks.end {
        let b_tile = std::array::from_fn(|col| [alpha * b.at(kk, j + col)]);
        fold(&mut c, [&a.col(kk)[rows.clone()]], b_tile);
        kk += 1;
    }
}

/// The register tile: `c[col][i] += Σ_q a[q][i]·b[col][q]`. The tile
/// shape is a compile-time constant, so the two inner loops unroll and
/// the `b` values stay in registers while `i` runs down the columns.
#[inline(always)]
fn fold<const NC: usize, const NK: usize>(
    c: &mut [&mut [f64]; NC],
    a: [&[f64]; NK],
    b: [[f64; NK]; NC],
) {
    let len = c[0].len();
    let a = a.map(|col| &col[..len]);
    let mut c = c.each_mut().map(|col| &mut col[..len]);
    for i in 0..len {
        let a_row = a.map(|col| col[i]);
        for (c_col, b_col) in c.iter_mut().zip(&b) {
            let mut sum = a_row[0] * b_col[0];
            for q in 1..NK {
                sum += a_row[q] * b_col[q];
            }
            c_col[i] += sum;
        }
    }
}

/// Plain product `A·B`.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c);
    c
}

/// The flop count of a GEMM (2·m·n·k), used to charge virtual compute
/// time in the simulated applications.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Mat, b: &Mat) -> Mat {
        Mat::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|kk| a[(i, kk)] * b[(kk, j)]).sum()
        })
    }

    #[test]
    fn small_known_product() {
        let a = Mat::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]); // [[1,2],[3,4]]
        let b = Mat::from_col_major(2, 2, vec![5.0, 7.0, 6.0, 8.0]); // [[5,6],[7,8]]
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (65, 17, 70),
            (64, 64, 64),
            (100, 1, 100),
            // Not multiples of the tile (2 columns × 4 k-steps) or of
            // either block length.
            (67, 5, 3),
            (1, 4, 2),
            (130, 66, 9),
            (5, 7, 1),
            (259, 6, 3),
        ] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * 5 + c * 2) % 13) as f64 - 6.0);
            let c = matmul(&a, &b);
            assert!(c.distance(&naive(&a, &b)) < 1e-9, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn zeros_in_b_do_not_hide_non_finite_values_of_a() {
        // 0·NaN = NaN and 0·∞ = NaN: a zero in B is a factor like any
        // other, whatever tile or remainder path its column and k-step
        // fall into (k = 6 is one 4-step tile plus two single steps,
        // n = 3 is one column pair plus a single column).
        for poison in [f64::NAN, f64::INFINITY] {
            for kk in 0..6 {
                let a = Mat::from_fn(3, 6, |r, c| if (r, c) == (1, kk) { poison } else { 1.0 });
                let c = matmul(&a, &Mat::zeros(6, 3));
                for j in 0..3 {
                    assert!(c[(1, j)].is_nan(), "{poison} at k={kk} lost in column {j}");
                    assert_eq!(c[(0, j)], 0.0);
                    assert_eq!(c[(2, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Mat::eye(3);
        let b = Mat::from_fn(3, 3, |r, c| (r + c) as f64);
        let mut c = Mat::eye(3);
        gemm(2.0, &a, &b, 3.0, &mut c);
        // C = 2*B + 3*I
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(1, 0)], 2.0);
        assert_eq!(c[(1, 1)], 7.0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_fn(10, 10, |r, c| (r * c) as f64);
        assert!(matmul(&a, &Mat::eye(10)).distance(&a) < 1e-12);
        assert!(matmul(&Mat::eye(10), &a).distance(&a) < 1e-12);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dim_mismatch_panics() {
        matmul(&Mat::zeros(2, 3), &Mat::zeros(2, 3));
    }
}
