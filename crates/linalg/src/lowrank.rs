//! Diagonal-plus-low-rank kernels for the sparse-first NMTF engine.
//!
//! The engine's implicit error-matrix representation (Eq. 27) writes
//! `R − E_R = D_{1−f}·R + D_f·U·Hᵀ` with `f` the row shrinkage factors
//! and `U = G S`, `H = G` the previous iterate's factors. Every place
//! the dense loop touched an `n x n` buffer reduces to one of three
//! row-independent kernels on `n x c` operands:
//!
//! * [`diag_lowrank_combine`] — `D_a·A + D_b·(U·W)`, the correction
//!   applied to `R·G` to obtain `(R − E_R)·G` without forming `R − E_R`;
//! * [`row_dots`] — per-row dot products `aᵢ · bᵢ`, the cross term
//!   `rᵢ·(G S Gᵀ)ᵢ = (R G Sᵀ)ᵢ · gᵢ` of the row-residual norms;
//! * [`row_quad_forms`] — per-row quadratic forms `gᵢ M gᵢᵀ`, the
//!   `‖(G S Gᵀ)ᵢ‖² = gᵢ (S GᵀG Sᵀ) gᵢᵀ` term of the same expansion.
//!
//! All three run on the shared [`crate::par`] pool above a work
//! threshold; each output row depends only on its own input rows, so
//! results are bit-identical for every thread count. In
//! [`crate::Precision::F32`] mode the engine passes quantised `n x c`
//! operands to the same kernels.

use crate::error::LinalgError;
use crate::mat::Mat;
use crate::par::{num_threads, par_chunks_map, par_row_chunks};
use crate::Result;

/// Work threshold (multiply-adds) below which the kernels stay serial;
/// thread spawn costs more than it saves under it.
const PAR_THRESHOLD: usize = 1 << 18;

/// Per-row dot products: `out[i] = a.row(i) · b.row(i)`.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when the shapes differ.
pub fn row_dots(a: &Mat, b: &Mat) -> Result<Vec<f64>> {
    if a.shape() != b.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "row_dots",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let n = a.rows();
    let threads = if n * a.cols() < PAR_THRESHOLD {
        1
    } else {
        num_threads()
    };
    Ok(par_chunks_map(n, threads, |range| {
        range
            .map(|i| {
                a.row(i)
                    .iter()
                    .zip(b.row(i))
                    .map(|(x, y)| x * y)
                    .sum::<f64>()
            })
            .collect()
    }))
}

/// Per-row quadratic forms against a small square matrix:
/// `out[i] = g.row(i) · M · g.row(i)ᵀ` — `O(n·c²)` total, skipping the
/// structural zeros of block-structured membership rows.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `M` is not
/// `g.cols() x g.cols()`.
pub fn row_quad_forms(g: &Mat, m: &Mat) -> Result<Vec<f64>> {
    let c = g.cols();
    if m.shape() != (c, c) {
        return Err(LinalgError::ShapeMismatch {
            op: "row_quad_forms",
            lhs: g.shape(),
            rhs: m.shape(),
        });
    }
    let n = g.rows();
    let threads = if n * c * c < PAR_THRESHOLD {
        1
    } else {
        num_threads()
    };
    Ok(par_chunks_map(n, threads, |range| {
        range
            .map(|i| {
                let gi = g.row(i);
                let mut acc = 0.0;
                for (j, &gj) in gi.iter().enumerate() {
                    if gj == 0.0 {
                        continue;
                    }
                    let mrow = m.row(j);
                    let dot: f64 = mrow.iter().zip(gi).map(|(x, y)| x * y).sum();
                    acc += gj * dot;
                }
                acc
            })
            .collect()
    }))
}

/// Fused diagonal-plus-low-rank combination:
/// `out.row(i) = a_coeff[i]·A.row(i) + u_coeff[i]·(U·W).row(i)` without
/// materialising `U·W` — the rank-`c` correction `(R − E_R)·G =
/// D_{1−f}·(R·G) + D_f·U·(Hᵀ·G)` of the sparse engine. Row chunks run on
/// the [`crate::par`] pool; each row is independent, so the result is
/// bit-identical for every thread count.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when `A` and `U` shapes
/// differ, `W` is not `U.cols() x A.cols()`, or a coefficient slice does
/// not match the row count.
pub fn diag_lowrank_combine(
    a_coeff: &[f64],
    a: &Mat,
    u_coeff: &[f64],
    u: &Mat,
    w: &Mat,
) -> Result<Mat> {
    let (n, c) = a.shape();
    if u.rows() != n || w.shape() != (u.cols(), c) {
        return Err(LinalgError::ShapeMismatch {
            op: "diag_lowrank_combine",
            lhs: u.shape(),
            rhs: w.shape(),
        });
    }
    if a_coeff.len() != n || u_coeff.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "diag_lowrank_combine",
            lhs: (a_coeff.len(), u_coeff.len()),
            rhs: (n, n),
        });
    }
    let mut out = Mat::zeros(n, c);
    let work = n * (c + u.cols() * c);
    let rows_into = |r0: usize, r1: usize, chunk: &mut [f64]| {
        for (local, i) in (r0..r1).enumerate() {
            let orow = &mut chunk[local * c..(local + 1) * c];
            let (da, du) = (a_coeff[i], u_coeff[i]);
            for (o, &av) in orow.iter_mut().zip(a.row(i)) {
                *o = da * av;
            }
            if du == 0.0 {
                continue;
            }
            for (k, &uv) in u.row(i).iter().enumerate() {
                if uv == 0.0 {
                    continue;
                }
                let s = du * uv;
                for (o, &wv) in orow.iter_mut().zip(w.row(k)) {
                    *o += s * wv;
                }
            }
        }
    };
    if work < PAR_THRESHOLD || num_threads() == 1 || n < 2 {
        rows_into(0, n, out.as_mut_slice());
    } else {
        par_row_chunks(out.as_mut_slice(), n, c, |r0, r1, chunk| {
            rows_into(r0, r1, chunk)
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;
    use crate::par::set_num_threads;
    use crate::random::rand_uniform;

    #[test]
    fn row_dots_matches_explicit() {
        let a = rand_uniform(13, 7, -1.0, 1.0, 1);
        let b = rand_uniform(13, 7, -1.0, 1.0, 2);
        let d = row_dots(&a, &b).unwrap();
        for (i, &di) in d.iter().enumerate() {
            let expect: f64 = a.row(i).iter().zip(b.row(i)).map(|(x, y)| x * y).sum();
            assert_eq!(di, expect);
        }
        assert!(row_dots(&a, &rand_uniform(13, 6, 0.0, 1.0, 3)).is_err());
    }

    #[test]
    fn row_quad_forms_match_triple_product() {
        let g = rand_uniform(11, 5, -1.0, 1.0, 4);
        let m = rand_uniform(5, 5, -1.0, 1.0, 5);
        let q = row_quad_forms(&g, &m).unwrap();
        let gm = matmul(&g, &m).unwrap();
        let expect = row_dots(&gm, &g).unwrap();
        for (a, b) in q.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(row_quad_forms(&g, &rand_uniform(4, 4, 0.0, 1.0, 6)).is_err());
    }

    #[test]
    fn combine_matches_explicit_form() {
        let n = 17;
        let a = rand_uniform(n, 6, -1.0, 1.0, 7);
        let u = rand_uniform(n, 4, -1.0, 1.0, 8);
        let w = rand_uniform(4, 6, -1.0, 1.0, 9);
        let da: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        let du: Vec<f64> = (0..n).map(|i| 1.0 - 0.05 * i as f64).collect();
        let fast = diag_lowrank_combine(&da, &a, &du, &u, &w).unwrap();
        let uw = matmul(&u, &w).unwrap();
        for i in 0..n {
            for j in 0..6 {
                let expect = da[i] * a[(i, j)] + du[i] * uw[(i, j)];
                assert!((fast[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn combine_rejects_bad_shapes() {
        let a = Mat::zeros(5, 3);
        let u = Mat::zeros(5, 2);
        let w = Mat::zeros(2, 3);
        let c5 = vec![0.0; 5];
        assert!(diag_lowrank_combine(&c5, &a, &c5, &u, &w).is_ok());
        assert!(diag_lowrank_combine(&c5, &a, &c5, &u, &Mat::zeros(3, 3)).is_err());
        assert!(diag_lowrank_combine(&c5, &a, &[0.0; 4], &u, &w).is_err());
        assert!(diag_lowrank_combine(&c5, &a, &c5, &Mat::zeros(4, 2), &w).is_err());
    }

    #[test]
    fn kernels_bit_identical_across_threads() {
        // Above the parallel threshold so the chunked branch runs.
        let n = 700;
        let c = 24;
        let a = rand_uniform(n, c, -1.0, 1.0, 10);
        let u = rand_uniform(n, c, -1.0, 1.0, 11);
        let w = rand_uniform(c, c, -1.0, 1.0, 12);
        let m = rand_uniform(c, c, -1.0, 1.0, 13);
        let coeff: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.1).collect();
        let before = num_threads();
        set_num_threads(1);
        let d1 = row_dots(&a, &u).unwrap();
        let q1 = row_quad_forms(&a, &m).unwrap();
        let c1 = diag_lowrank_combine(&coeff, &a, &coeff, &u, &w).unwrap();
        for threads in [2usize, 4, 8] {
            set_num_threads(threads);
            assert_eq!(row_dots(&a, &u).unwrap(), d1, "row_dots t={threads}");
            assert_eq!(row_quad_forms(&a, &m).unwrap(), q1, "quad t={threads}");
            let ct = diag_lowrank_combine(&coeff, &a, &coeff, &u, &w).unwrap();
            assert_eq!(ct.as_slice(), c1.as_slice(), "combine t={threads}");
        }
        set_num_threads(before);
    }
}
