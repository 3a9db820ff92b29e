//! Column-major dense matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense `rows x cols` matrix of `f64`, stored column-major (like
/// Fortran/Eigen, which the BPMF reference code uses).
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Build from column-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The raw column-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `c` as a slice.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable column `c`.
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// This matrix as a borrowed view.
    pub fn view(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// The transpose.
    pub fn t(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        #[allow(clippy::needless_range_loop)] // column-major traversal
        for c in 0..self.cols {
            let xc = x[c];
            for (r, &a) in self.col(c).iter().enumerate() {
                y[r] += a * xc;
            }
        }
        y
    }

    /// `A + s·I` (ridge/precision updates).
    pub fn add_diag(&self, s: f64) -> Mat {
        assert_eq!(self.rows, self.cols, "add_diag needs a square matrix");
        let mut out = self.clone();
        for i in 0..self.rows {
            out[(i, i)] += s;
        }
        out
    }

    /// Scale every element.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Rank-k update `self + x·xᵀ` for a column vector x.
    pub fn add_outer(&mut self, x: &[f64], weight: f64) {
        assert_eq!(self.rows, self.cols, "outer update needs a square matrix");
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        #[allow(clippy::needless_range_loop)] // symmetric rank-1 update over columns
        for c in 0..self.cols {
            let xc = x[c] * weight;
            for r in 0..self.rows {
                self.data[c * self.rows + r] += x[r] * xc;
            }
        }
    }

    /// Frobenius norm of the difference (test helper).
    pub fn distance(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }
}

/// A borrowed column-major `rows x cols` matrix: what [`crate::gemm_ref`]
/// reads its operands through, so data that already sits in someone
/// else's buffer (a received panel, say) is multiplied where it is.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatRef<'a> {
    /// View `data` as a column-major `rows x cols` matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `c` as a slice.
    pub fn col(&self, c: usize) -> &'a [f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// The element at (`r`, `c`).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[c * self.rows + r]
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[c * self.rows + r]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[c * self.rows + r]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        crate::gemm::matmul(self, rhs)
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_layout() {
        let m = Mat::from_col_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn identity_and_transpose() {
        let i = Mat::eye(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let m = Mat::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        let t = m.t();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn matvec_known_result() {
        let m = Mat::from_fn(2, 2, |r, c| (r * 2 + c + 1) as f64); // [[1,2],[3,4]]
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(m.matvec(&[2.0, 0.0]), vec![2.0, 6.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Mat::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Mat::eye(2);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], 1.0);
        assert_eq!(s[(1, 0)], 1.0);
        let d = &s - &b;
        assert_eq!(d.distance(&a), 0.0);
        assert_eq!(a.scale(2.0)[(1, 1)], 4.0);
    }

    #[test]
    fn outer_update() {
        let mut m = Mat::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], 1.0);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn add_diag_ridge() {
        let m = Mat::zeros(3, 3).add_diag(2.5);
        assert_eq!(m[(2, 2)], 2.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Mat::zeros(2, 3).matvec(&[1.0]);
    }
}
