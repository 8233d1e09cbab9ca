//! Dense row-major `f64` matrix.
//!
//! [`Mat`] is the workhorse type of the reproduction: the cluster-membership
//! matrix `G`, association matrix `S`, error matrix `E_R`, and all per-type
//! feature/similarity blocks are `Mat`s. Storage is a single contiguous
//! `Vec<f64>` in row-major order so that row slices are cache-friendly and
//! bounds checks can be hoisted by slicing a row once per loop.

use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Process-wide high-water mark of the largest single dense allocation.
///
/// Every [`Mat`] constructor records `rows * cols` into an atomic
/// maximum (a handful of nanoseconds next to zeroing the buffer). Tests
/// use it as an *allocation-shape oracle*: the sparse-first engine
/// contract — no `n x n` dense temporary on the fit path — is asserted
/// by resetting the peak, running a fit, and checking the peak stayed
/// at `O(n·c)` (see `tests/integration_engine_alloc.rs` — the oracle is
/// process-global, so the asserting test lives alone in its own
/// binary).
pub mod alloc_peak {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// Reset the high-water mark to zero.
    pub fn reset() {
        PEAK.store(0, Ordering::SeqCst);
    }

    /// The largest `rows * cols` of any dense matrix allocated since the
    /// last [`reset`] (on any thread).
    pub fn peak_elems() -> usize {
        PEAK.load(Ordering::SeqCst)
    }

    #[inline]
    pub(crate) fn record(elems: usize) {
        PEAK.fetch_max(elems, Ordering::Relaxed);
    }
}

/// Dense row-major matrix of `f64`.
#[derive(PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows x cols` matrix of zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        alloc_peak::record(len);
        Mat {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Create a `rows x cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Create the `n x n` identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            let row = &mut m.data[i * cols..(i + 1) * cols];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = f(i, j);
            }
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "from_vec: expected {} elements for {}x{}, got {}",
                rows * cols,
                rows,
                cols,
                data.len()
            )));
        }
        alloc_peak::record(data.len());
        Ok(Mat { rows, cols, data })
    }

    /// Build a matrix from row slices; all rows must have equal length.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] on ragged input or zero rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "from_rows: need at least one row".into(),
            ));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument(
                "from_rows: ragged rows".into(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        alloc_peak::record(data.len());
        Ok(Mat {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has zero entries (degenerate shape).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Return the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    let src = &self.data[i * self.cols..(i + 1) * self.cols];
                    for (j, &v) in src.iter().enumerate().take(jmax).skip(jb) {
                        t.data[j * self.rows + i] = v;
                    }
                }
            }
        }
        t
    }

    /// Apply `f` to every entry, returning a new matrix.
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        alloc_peak::record(self.data.len());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Return `s * self`.
    pub fn scaled(&self, s: f64) -> Mat {
        self.map(|x| x * s)
    }

    /// Elementwise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Mat) -> Result<Mat> {
        self.check_same_shape("add", other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        alloc_peak::record(self.data.len());
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Mat) -> Result<Mat> {
        self.check_same_shape("sub", other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        alloc_peak::record(self.data.len());
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Sum of every entry.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum entry (`NaN`s are ignored); `-inf` for empty matrices.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum entry (`NaN`s are ignored); `+inf` for empty matrices.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Row sums as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        self.rows_iter().map(|r| r.iter().sum()).collect()
    }

    /// Column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for r in self.rows_iter() {
            for (acc, v) in s.iter_mut().zip(r) {
                *acc += v;
            }
        }
        s
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Normalise every row to unit l1 mass (used by Eq. 22 of the paper).
    ///
    /// Rows whose absolute sum is below `floor` are left untouched to avoid
    /// dividing by (near-)zero; the caller decides how to treat dead rows.
    pub fn normalize_rows_l1(&mut self, floor: f64) {
        let cols = self.cols;
        for i in 0..self.rows {
            let row = &mut self.data[i * cols..(i + 1) * cols];
            let s: f64 = row.iter().map(|x| x.abs()).sum();
            if s > floor {
                let inv = 1.0 / s;
                for x in row.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }

    /// Normalise every row to unit l2 norm; near-zero rows are untouched.
    pub fn normalize_rows_l2(&mut self, floor: f64) {
        let cols = self.cols;
        for i in 0..self.rows {
            let row = &mut self.data[i * cols..(i + 1) * cols];
            let s: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
            if s > floor {
                let inv = 1.0 / s;
                for x in row.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }

    /// Copy a rectangular sub-matrix `[r0..r0+h) x [c0..c0+w)`.
    ///
    /// # Panics
    /// Panics if the window exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Mat {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "submatrix out of bounds"
        );
        let mut out = Mat::zeros(h, w);
        for i in 0..h {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + w];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Write `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub(crate) fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Mat) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix out of bounds"
        );
        for i in 0..block.rows {
            let dst_start = (r0 + i) * self.cols + c0;
            self.data[dst_start..dst_start + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// Horizontally concatenate `[self | other]`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if row counts differ.
    pub fn hstack(&self, other: &Mat) -> Result<Mat> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Vertically concatenate `[self; other]`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        alloc_peak::record(data.len());
        Ok(Mat {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// `true` when every entry of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Check whether any entry is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    fn check_same_shape(&self, op: &'static str, other: &Mat) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }
}

impl Clone for Mat {
    // Manual so the [`alloc_peak`] oracle sees clones of large matrices
    // too (a derived impl would bypass the constructors).
    fn clone(&self) -> Self {
        alloc_peak::record(self.data.len());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.sum(), 0.0);
        assert!(!m.is_square());
    }

    #[test]
    fn identity_trace() {
        let m = Mat::identity(5);
        assert_eq!(m.trace(), 5.0);
        assert_eq!(m[(2, 2)], 1.0);
        assert_eq!(m[(2, 3)], 0.0);
    }

    #[test]
    fn from_fn_and_index() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_ragged_rejected() {
        assert!(Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Mat::from_rows(&[]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(7, 5, |i, j| (i * 31 + j * 7) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 7));
        assert_eq!(t.transpose(), m);
        for i in 0..7 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn transpose_large_blocked() {
        let m = Mat::from_fn(70, 45, |i, j| (i * 1000 + j) as f64);
        let t = m.transpose();
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn add_sub() {
        let a = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Mat::filled(2, 2, 2.0);
        assert_eq!(a.add(&b).unwrap()[(1, 1)], 4.0);
        assert_eq!(a.sub(&b).unwrap()[(0, 0)], -2.0);
        assert!(a.add(&Mat::zeros(3, 3)).is_err());
    }

    #[test]
    fn row_col_sums() {
        let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn l1_row_normalisation_matches_eq22() {
        let mut g = Mat::from_vec(2, 3, vec![1.0, 3.0, 0.0, 2.0, 2.0, 4.0]).unwrap();
        g.normalize_rows_l1(1e-15);
        for i in 0..2 {
            let s: f64 = g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn l1_normalisation_skips_dead_rows() {
        let mut g = Mat::zeros(2, 3);
        g[(0, 0)] = 5.0;
        g.normalize_rows_l1(1e-15);
        assert_eq!(g.row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(g[(0, 0)], 1.0);
    }

    #[test]
    fn l2_row_normalisation() {
        let mut m = Mat::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        m.normalize_rows_l2(1e-15);
        assert!((m[(0, 0)] - 0.6).abs() < 1e-12);
        assert!((m[(0, 1)] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn submatrix_and_set() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 1, 2, 2);
        assert_eq!(s[(0, 0)], 5.0);
        assert_eq!(s[(1, 1)], 10.0);

        let mut z = Mat::zeros(4, 4);
        z.set_submatrix(2, 2, &s);
        assert_eq!(z[(2, 2)], 5.0);
        assert_eq!(z[(3, 3)], 10.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn hstack_vstack() {
        let a = Mat::filled(2, 2, 1.0);
        let b = Mat::filled(2, 3, 2.0);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(0, 4)], 2.0);

        let c = Mat::filled(3, 2, 4.0);
        let v = a.vstack(&c).unwrap();
        assert_eq!(v.shape(), (5, 2));
        assert_eq!(v[(4, 1)], 4.0);

        assert!(a.hstack(&c).is_err());
        assert!(a.vstack(&b).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Mat::zeros(2, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Mat::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn max_min() {
        let m = Mat::from_vec(1, 4, vec![3.0, -2.0, 7.0, 0.0]).unwrap();
        assert_eq!(m.max(), 7.0);
        assert_eq!(m.min(), -2.0);
    }
}
