//! Matrix products and scaling kernels.
//!
//! The NMTF updates of Algorithm 2 are dominated by three product shapes:
//!
//! * `(n x n) * (n x c)` — Laplacian/residual times membership matrix;
//! * `(n x c)T * (n x c)` — small Gram matrices `GᵀG`;
//! * `(n x c) * (c x c) * (n x c)ᵀ` — the reconstruction `G S Gᵀ`.
//!
//! All kernels are written i-k-j (row-major streaming) with a skip-zero
//! fast path — the block structure of `G` (Section I-A of the paper) makes
//! it mostly zeros, which this exploits. Products above a work threshold
//! are split row-wise across threads with `std::thread::scope`.

use crate::error::LinalgError;
use crate::mat::Mat;
use crate::par::par_row_chunks;
use crate::Result;

// Thread-count control lives in [`crate::par`]; re-exported here because
// this module was its historical home.
pub use crate::par::{num_threads, set_num_threads};

/// Work threshold (`m * k * n` multiply-adds) above which products go
/// multi-threaded. Below it, thread spawn overhead dominates.
const PAR_THRESHOLD: usize = 1 << 22;

/// Dense product `A * B`.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `A.cols != B.rows`.
pub fn matmul(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, n) = (a.rows(), b.cols());
    let mut out = Mat::zeros(m, n);
    let work = m * a.cols() * n;
    if work < PAR_THRESHOLD || num_threads() == 1 || m < 2 {
        mul_rows_into(a, b, out.as_mut_slice(), 0, m);
    } else {
        par_row_chunks(out.as_mut_slice(), m, n, |r0, r1, chunk| {
            mul_rows_into(a, b, chunk, r0, r1)
        });
    }
    Ok(out)
}

/// Product `Aᵀ * B` where `A` is `k x m` and `B` is `k x n`.
///
/// Implemented as per-row rank-1 accumulation, which is efficient when the
/// output (`m x n`) is small — exactly the `GᵀG`, `GᵀRG` shapes of the
/// paper. Falls back to an explicit transpose for large outputs.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `A.rows != B.rows`.
pub fn matmul_tn(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_tn",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, n) = (a.cols(), b.cols());
    // Large output: the accumulation pattern would thrash; transpose instead.
    if m * n > 1 << 16 {
        return matmul(&a.transpose(), b);
    }
    let mut out = Mat::zeros(m, n);
    for r in 0..a.rows() {
        let arow = a.row(r);
        let brow = b.row(r);
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// Product `A * Bᵀ` where `A` is `m x k` and `B` is `n x k`.
///
/// Each output entry is a dot product of two row slices — the best possible
/// access pattern for row-major storage. Parallelised row-wise; this is the
/// kernel behind the `G S Gᵀ` reconstruction.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `A.cols != B.cols`.
pub fn matmul_nt(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_nt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Mat::zeros(m, n);
    let work = m * n * a.cols();
    if work < PAR_THRESHOLD || num_threads() == 1 || m < 2 {
        nt_rows_into(a, b, out.as_mut_slice(), 0, m);
    } else {
        par_row_chunks(out.as_mut_slice(), m, n, |r0, r1, chunk| {
            nt_rows_into(a, b, chunk, r0, r1)
        });
    }
    Ok(out)
}

/// Symmetric Gram matrix `AᵀA` (`cols x cols`), exploiting symmetry.
pub fn gram(a: &Mat) -> Mat {
    let c = a.cols();
    let mut out = Mat::zeros(c, c);
    for r in 0..a.rows() {
        let row = a.row(r);
        for (i, &vi) in row.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let orow = &mut out.as_mut_slice()[i * c..(i + 1) * c];
            for (j, &vj) in row.iter().enumerate().skip(i) {
                orow[j] += vi * vj;
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..c {
        for j in 0..i {
            let v = out[(j, i)];
            out[(i, j)] = v;
        }
    }
    out
}

/// Row Gram matrix `A Aᵀ` (`rows x rows`): the inner products of every
/// pair of rows, e.g. the object Gram `K = X Xᵀ` of a feature matrix.
///
/// Row `i` accumulates `Σ_k a_ik · (Aᵀ)_k` over the contiguous rows of
/// `Aᵀ`, so the inner loop is a vectorisable axpy that skips zero
/// features; only the upper triangle is computed and then mirrored, so
/// the result is exactly symmetric. Each entry sums its products in
/// feature order, independent of the thread count.
pub fn row_gram(a: &Mat) -> Mat {
    let n = a.rows();
    let at = a.transpose();
    let mut out = Mat::zeros(n, n);
    let upper_rows = |r0: usize, r1: usize, chunk: &mut [f64]| {
        for (local, i) in (r0..r1).enumerate() {
            let orow = &mut chunk[local * n + i..(local + 1) * n];
            for (k, &v) in a.row(i).iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                for (o, &x) in orow.iter_mut().zip(&at.row(k)[i..]) {
                    *o += v * x;
                }
            }
        }
    };
    if n * n * a.cols() < 2 * PAR_THRESHOLD || num_threads() == 1 || n < 2 {
        upper_rows(0, n, out.as_mut_slice());
    } else {
        par_row_chunks(out.as_mut_slice(), n, n, upper_rows);
    }
    for i in 1..n {
        for j in 0..i {
            let v = out[(j, i)];
            out[(i, j)] = v;
        }
    }
    out
}

/// Matrix-vector product `A * x`.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `A.cols != x.len()`.
pub fn matvec(a: &Mat, x: &[f64]) -> Result<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    Ok(a.rows_iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect())
}

/// Vector-matrix product `xᵀ * A` returned as a plain vector.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `x.len() != A.rows`.
pub fn vecmat(x: &[f64], a: &Mat) -> Result<Vec<f64>> {
    if a.rows() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "vecmat",
            lhs: (1, x.len()),
            rhs: a.shape(),
        });
    }
    let mut out = vec![0.0; a.cols()];
    for (r, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        for (o, &av) in out.iter_mut().zip(a.row(r)) {
            *o += xv * av;
        }
    }
    Ok(out)
}

/// Scale row `i` of `m` by `d[i]` (i.e. `diag(d) * M`), in place.
///
/// # Panics
/// Panics if `d.len() != m.rows()`.
pub fn scale_rows_inplace(m: &mut Mat, d: &[f64]) {
    assert_eq!(d.len(), m.rows(), "scale_rows: diagonal length mismatch");
    for (i, &s) in d.iter().enumerate() {
        for v in m.row_mut(i) {
            *v *= s;
        }
    }
}

/// Scale column `j` of `m` by `d[j]` (i.e. `M * diag(d)`), in place.
///
/// # Panics
/// Panics if `d.len() != m.cols()`.
pub fn scale_cols_inplace(m: &mut Mat, d: &[f64]) {
    assert_eq!(d.len(), m.cols(), "scale_cols: diagonal length mismatch");
    for i in 0..m.rows() {
        for (v, &s) in m.row_mut(i).iter_mut().zip(d) {
            *v *= s;
        }
    }
}

/// `tr(Aᵀ B) = Σ_ij A_ij B_ij` — the trace form used by the regulariser
/// `tr(Gᵀ L G) = tr(Gᵀ (L G))` without materialising any extra matrix.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
pub fn trace_product_tn(a: &Mat, b: &Mat) -> Result<f64> {
    if a.shape() != b.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "trace_product_tn",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .sum())
}

/// Triple product `G * S * Gᵀ` computed as `(G S)` followed by the
/// dot-product kernel — `O(n²c)` with row-major friendly access.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] on incompatible shapes.
pub fn g_s_gt(g: &Mat, s: &Mat) -> Result<Mat> {
    let gs = matmul(g, s)?;
    matmul_nt(&gs, g)
}

// ---------------------------------------------------------------------------
// internal kernels
// ---------------------------------------------------------------------------

/// Compute rows `[r0, r1)` of `A*B` into `chunk` (row-major, `r1-r0` rows).
fn mul_rows_into(a: &Mat, b: &Mat, chunk: &mut [f64], r0: usize, r1: usize) {
    let n = b.cols();
    for (local, gi) in (r0..r1).enumerate() {
        let arow = a.row(gi);
        let orow = &mut chunk[local * n..(local + 1) * n];
        for (k, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = b.row(k);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Compute rows `[r0, r1)` of `A*Bᵀ` into `chunk`.
fn nt_rows_into(a: &Mat, b: &Mat, chunk: &mut [f64], r0: usize, r1: usize) {
    let n = b.rows();
    for (local, gi) in (r0..r1).enumerate() {
        let arow = a.row(gi);
        let orow = &mut chunk[local * n..(local + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = b.row(j);
            *o = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::rand_uniform;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn row_gram_matches_matmul_nt() {
        let mut a = rand_uniform(37, 11, -1.0, 1.0, 5);
        for i in 0..37 {
            a[(i, i % 11)] = 0.0; // exercise the zero-skip path
        }
        let g = row_gram(&a);
        assert!(g.approx_eq(&matmul_nt(&a, &a).unwrap(), 1e-12));
        for i in 0..37 {
            for j in 0..37 {
                assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits());
            }
        }
        let threads = num_threads();
        set_num_threads(3);
        let big = rand_uniform(300, 120, -1.0, 1.0, 6);
        let par = row_gram(&big);
        set_num_threads(1);
        let serial = row_gram(&big);
        set_num_threads(threads);
        assert_eq!(par.as_slice(), serial.as_slice());
    }

    #[test]
    fn matmul_small() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = rand_uniform(13, 13, 0.0, 1.0, 42);
        let c = matmul(&a, &Mat::identity(13)).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_matches_naive_random() {
        let a = rand_uniform(17, 23, -1.0, 1.0, 1);
        let b = rand_uniform(23, 11, -1.0, 1.0, 2);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn matmul_parallel_path() {
        // Large enough to exceed PAR_THRESHOLD: 256*256*256 = 16.7M.
        let a = rand_uniform(256, 256, -1.0, 1.0, 3);
        let b = rand_uniform(256, 256, -1.0, 1.0, 4);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn tn_matches_transpose_then_mul() {
        let a = rand_uniform(19, 5, -1.0, 1.0, 5);
        let b = rand_uniform(19, 7, -1.0, 1.0, 6);
        let fast = matmul_tn(&a, &b).unwrap();
        let slow = naive_matmul(&a.transpose(), &b);
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn tn_large_output_fallback() {
        let a = rand_uniform(10, 300, -1.0, 1.0, 7);
        let b = rand_uniform(10, 300, -1.0, 1.0, 8);
        let fast = matmul_tn(&a, &b).unwrap();
        let slow = naive_matmul(&a.transpose(), &b);
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn nt_matches_mul_transpose() {
        let a = rand_uniform(9, 6, -1.0, 1.0, 9);
        let b = rand_uniform(12, 6, -1.0, 1.0, 10);
        let fast = matmul_nt(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b.transpose());
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn gram_symmetric_and_correct() {
        let a = rand_uniform(20, 6, -1.0, 1.0, 11);
        let g = gram(&a);
        let slow = naive_matmul(&a.transpose(), &a);
        assert!(g.approx_eq(&slow, 1e-10));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn matvec_vecmat() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(matvec(&a, &[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(vecmat(&[1.0, -1.0], &a).unwrap(), vec![-3.0, -3.0, -3.0]);
        assert!(matvec(&a, &[1.0]).is_err());
        assert!(vecmat(&[1.0], &a).is_err());
    }

    #[test]
    fn diag_scaling() {
        let mut m = Mat::filled(2, 3, 1.0);
        scale_rows_inplace(&mut m, &[2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 2.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 3.0, 3.0]);
        scale_cols_inplace(&mut m, &[1.0, 0.0, -1.0]);
        assert_eq!(m.row(1), &[3.0, 0.0, -3.0]);
    }

    #[test]
    fn trace_product_equals_trace_of_product() {
        let a = rand_uniform(8, 8, -1.0, 1.0, 12);
        let b = rand_uniform(8, 8, -1.0, 1.0, 13);
        let t1 = trace_product_tn(&a, &b).unwrap();
        let t2 = naive_matmul(&a.transpose(), &b).trace();
        assert!((t1 - t2).abs() < 1e-10);
    }

    #[test]
    fn gsgt_symmetric_for_symmetric_s() {
        let g = rand_uniform(15, 4, 0.0, 1.0, 14);
        let mut s = rand_uniform(4, 4, 0.0, 1.0, 15);
        // Symmetrise S.
        let st = s.transpose();
        s = s.add(&st).unwrap().scaled(0.5);
        let r = g_s_gt(&g, &s).unwrap();
        let rt = r.transpose();
        assert!(r.approx_eq(&rt, 1e-10));
    }

    #[test]
    fn matvec_zero_skip_correct() {
        // vecmat's skip-zero fast path must not change results.
        let a = rand_uniform(6, 4, -1.0, 1.0, 16);
        let x = vec![0.0, 1.5, 0.0, -2.0, 0.0, 3.0];
        let fast = vecmat(&x, &a).unwrap();
        let xm = Mat::from_vec(1, 6, x).unwrap();
        let slow = naive_matmul(&xm, &a);
        for j in 0..4 {
            assert!((fast[j] - slow[(0, j)]).abs() < 1e-12);
        }
    }
}
