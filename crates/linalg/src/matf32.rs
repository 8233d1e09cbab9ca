//! Dense row-major `f32` storage matrix for the Gram kNN tile.
//!
//! [`MatF32`] backs the one kernel where [`crate::Precision::F32`] keeps
//! genuine `f32` storage: `mtrl-graph`'s Gram tile reads `f32` operand
//! rows (half the bandwidth of [`Mat`]) and widens each element to
//! `f64` before it enters an accumulation chain. Widening is exact, so
//! the tile is bit-identical to its `f64` instantiation applied to the
//! quantised operands ([`crate::Precision::quantize_in_place`]) — the
//! property the cross-precision tests pin.
//!
//! It is intentionally not a general matrix type: no arithmetic lives
//! here, only storage, conversion and the row access the kernel needs.
//! Constructors record into the same [`crate::mat::alloc_peak`] oracle
//! as [`Mat`] (element counts, conservatively ignoring the halved
//! element width).

use crate::mat::{alloc_peak, Mat};

/// Dense row-major matrix of `f32` — storage for the Gram kNN tile,
/// always accumulated in `f64`.
#[derive(Debug)]
pub struct MatF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatF32 {
    /// Create a `rows x cols` matrix of zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        alloc_peak::record(len);
        MatF32 {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Round every entry of `m` to `f32` storage.
    pub fn from_mat(m: &Mat) -> Self {
        alloc_peak::record(m.len());
        MatF32 {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
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

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Return the transpose as a new matrix (blocked like
    /// [`Mat::transpose`]).
    pub fn transpose(&self) -> MatF32 {
        let mut t = MatF32::zeros(self.cols, self.rows);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every stored entry, widened, in row-major order.
    fn widened(m: &MatF32) -> Vec<f64> {
        (0..m.rows())
            .flat_map(|i| m.row(i).iter().map(|&v| v as f64))
            .collect()
    }

    #[test]
    fn from_mat_stores_the_quantised_values() {
        let m = Mat::from_fn(5, 3, |i, j| 0.1 * (i * 3 + j) as f64 + 1.0 / 3.0);
        let m32 = MatF32::from_mat(&m);
        assert_eq!((m32.rows(), m32.cols()), m.shape());
        let q = crate::Precision::F32.quantized(&m);
        assert_eq!(widened(&m32), q.as_slice());
    }

    #[test]
    fn transpose_matches_f64_transpose() {
        let m = Mat::from_fn(70, 45, |i, j| (i * 1000 + j) as f64 * 0.25);
        let t32 = MatF32::from_mat(&m).transpose();
        assert_eq!(widened(&t32), m.transpose().as_slice());
    }

    #[test]
    fn records_alloc_peak() {
        alloc_peak::reset();
        let _m = MatF32::zeros(10, 7);
        assert!(alloc_peak::peak_elems() >= 70);
    }
}
