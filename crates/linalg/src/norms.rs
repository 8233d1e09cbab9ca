//! Matrix and vector norms used throughout the paper.
//!
//! * `‖·‖²_F` — squared Frobenius norm of the factorisation residual (Eqs. 1, 9, 15);
//! * `‖·‖₂,₁` — the row-wise L2,1 norm of the sparse error matrix (Eq. 14).

use crate::mat::Mat;

/// L2,1 norm: `Σ_i ‖M_i‖₂` — the sum of row l2 norms (paper Eq. 14).
///
/// Promotes *sample-wise* sparsity: whole rows of the error matrix `E_R`
/// are driven to zero, matching the assumption that only some data vectors
/// are corrupted.
pub fn l21(m: &Mat) -> f64 {
    m.rows_iter()
        .map(|row| row.iter().map(|x| x * x).sum::<f64>().sqrt())
        .sum()
}

/// Row l2 norms as a vector: `‖M_i‖₂` for every row `i`.
pub fn row_l2_norms(m: &Mat) -> Vec<f64> {
    m.rows_iter()
        .map(|row| row.iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect()
}

/// Squared Frobenius norm of `A - B` without materialising the difference.
///
/// # Panics
/// Panics if shapes differ (programming error in callers, which control
/// both operands).
pub fn frobenius_sq_diff(a: &Mat, b: &Mat) -> f64 {
    assert_eq!(a.shape(), b.shape(), "frobenius_sq_diff: shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared Frobenius norm `Σ M_ij²`.
    fn frobenius_sq(m: &Mat) -> f64 {
        m.as_slice().iter().map(|x| x * x).sum()
    }

    fn sample() -> Mat {
        Mat::from_vec(2, 2, vec![3.0, -4.0, 0.0, 12.0]).unwrap()
    }

    #[test]
    fn frobenius_norm() {
        assert_eq!(frobenius_sq(&sample()), 9.0 + 16.0 + 144.0);
        assert!((frobenius_sq(&sample()).sqrt() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn l21_is_sum_of_row_norms() {
        // Row 0: ||(3,-4)|| = 5; row 1: ||(0,12)|| = 12.
        assert!((l21(&sample()) - 17.0).abs() < 1e-12);
        assert_eq!(row_l2_norms(&sample()), vec![5.0, 12.0]);
    }

    #[test]
    fn l21_bounds_frobenius() {
        // ||M||_F <= ||M||_{2,1} <= sqrt(n) ||M||_F for n rows.
        let m = Mat::from_vec(3, 2, vec![1.0, 2.0, -3.0, 0.5, 0.0, 4.0]).unwrap();
        let f = frobenius_sq(&m).sqrt();
        let l = l21(&m);
        assert!(f <= l + 1e-12);
        assert!(l <= (3.0f64).sqrt() * f + 1e-12);
    }

    #[test]
    fn diff_norm_matches_explicit() {
        let a = sample();
        let b = Mat::filled(2, 2, 1.0);
        let explicit = frobenius_sq(&a.sub(&b).unwrap());
        assert!((frobenius_sq_diff(&a, &b) - explicit).abs() < 1e-12);
    }
}
