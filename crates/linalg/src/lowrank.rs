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
//! [`diag_lowrank_combine`] and [`row_quad_forms`] keep each output row
//! (for the quadratic forms, the products `M·gᵢ`) in a fixed-size
//! register accumulator, summing every entry's terms in the scalar
//! loop's order and skipping only exact zeros, so they are
//! bit-identical to the loops they replaced.
//!
//! All three run on the shared [`crate::par`] pool above a work
//! threshold; each output row depends only on its own input rows, so
//! results are bit-identical for every thread count. In
//! [`crate::Precision::F32`] mode the engine passes quantised `n x c`
//! operands to the same kernels.

use crate::error::LinalgError;
use crate::lanes::{panels, store_lanes, with_lanes, Panel};
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
    // Row i's inner products t_ij = m_j · g_i for every j, one lane per
    // j, summed over ascending k from -0 like `Iterator::sum`. With a
    // finite `M` the zeros of g_i add exact zeros, which only the sign
    // of a zero t_ij could notice, and a zero t_ij adds nothing to the
    // +0-started outer sum, so they are skipped.
    let mt = m.transpose();
    let skip_zeros = m.as_slice().iter().all(|v| v.is_finite());
    Ok(par_chunks_map(n, threads, |range| {
        let mut out = vec![0.0; range.len()];
        for (p0, w) in panels(c) {
            with_lanes!(
                w,
                quad_panel(g, &mt, skip_zeros, &mut out, range.start, p0, w)
            );
        }
        out
    }))
}

/// Columns `[p0, p0 + w)` of [`row_quad_forms`] for rows
/// `r0..r0 + out.len()`: `t = M·g_i` in a `W`-lane accumulator (lane
/// `j` sums `g_ik · m_jk` over ascending `k`), then
/// `out[i] += g_ij · t_j` over ascending `j`, skipping the zeros of
/// `g_i`.
fn quad_panel<const W: usize>(
    g: &Mat,
    mt: &Mat,
    skip_zeros: bool,
    out: &mut [f64],
    r0: usize,
    p0: usize,
    w: usize,
) {
    let mp = Panel::<W>::new(mt.as_slice(), mt.rows(), mt.cols(), p0, w);
    let mut lanes = [0.0; W];
    for (local, acc) in out.iter_mut().enumerate() {
        let gi = g.row(r0 + local);
        let mut t = [-0.0; W];
        for (k, &gk) in gi.iter().enumerate() {
            if skip_zeros && gk == 0.0 {
                continue;
            }
            for (o, &mv) in t.iter_mut().zip(mp.row(k)) {
                *o += gk * mv;
            }
        }
        store_lanes(t, &mut lanes[..w]);
        for (&gj, &tj) in gi[p0..p0 + w].iter().zip(&lanes) {
            if gj != 0.0 {
                *acc += gj * tj;
            }
        }
    }
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
        for (p0, pw) in panels(c) {
            with_lanes!(
                pw,
                combine_panel(a_coeff, a, u_coeff, u, w, chunk, p0, pw, r0, r1)
            );
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

/// Columns `[p0, p0 + pw)` of rows `[r0, r1)` of
/// [`diag_lowrank_combine`]: the row starts as `a_coeff[i]·A.row(i)` in
/// a `W`-lane accumulator and takes `(u_coeff[i]·u_ik)·W.row(k)` over
/// ascending `k`, skipping zero coefficients.
#[allow(clippy::too_many_arguments)]
fn combine_panel<const W: usize>(
    a_coeff: &[f64],
    a: &Mat,
    u_coeff: &[f64],
    u: &Mat,
    w: &Mat,
    chunk: &mut [f64],
    p0: usize,
    pw: usize,
    r0: usize,
    r1: usize,
) {
    let c = a.cols();
    let ap = Panel::<W>::new(a.as_slice(), a.rows(), a.cols(), p0, pw);
    let wp = Panel::<W>::new(w.as_slice(), w.rows(), w.cols(), p0, pw);
    for (local, i) in (r0..r1).enumerate() {
        let (da, du) = (a_coeff[i], u_coeff[i]);
        let mut acc = [0.0; W];
        for (o, &av) in acc.iter_mut().zip(ap.row(i)) {
            *o = da * av;
        }
        if du != 0.0 {
            for (k, &uv) in u.row(i).iter().enumerate() {
                if uv == 0.0 {
                    continue;
                }
                let s = du * uv;
                for (o, &wv) in acc.iter_mut().zip(wp.row(k)) {
                    *o += s * wv;
                }
            }
        }
        store_lanes(acc, &mut chunk[local * c + p0..][..pw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::oracle::{awkward, block_rows, same_bits};
    use crate::ops::matmul;
    use crate::par::set_num_threads;
    use crate::random::rand_uniform;

    /// The scalar loop [`row_quad_forms`] replaced: a full-width dot
    /// `m_j · g_i` for every nonzero `g_ij`.
    fn row_quad_forms_oracle(g: &Mat, m: &Mat) -> Vec<f64> {
        (0..g.rows())
            .map(|i| {
                let gi = g.row(i);
                let mut acc = 0.0;
                for (j, &gj) in gi.iter().enumerate() {
                    if gj == 0.0 {
                        continue;
                    }
                    let dot: f64 = m.row(j).iter().zip(gi).map(|(x, y)| x * y).sum();
                    acc += gj * dot;
                }
                acc
            })
            .collect()
    }

    /// The scalar loop [`diag_lowrank_combine`] replaced.
    fn combine_oracle(a_coeff: &[f64], a: &Mat, u_coeff: &[f64], u: &Mat, w: &Mat) -> Mat {
        let c = a.cols();
        let mut out = Mat::zeros(a.rows(), c);
        for i in 0..a.rows() {
            let orow = &mut out.as_mut_slice()[i * c..(i + 1) * c];
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
        out
    }

    fn mat(rows: usize, cols: usize, data: Vec<f64>) -> Mat {
        Mat::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn register_kernels_match_their_oracles_at_every_width() {
        // Widths 1..=70 cross every accumulator size and the multi-pass
        // widths. `G` is block-structured with all-zero rows and -0.0s;
        // NaN and ±∞ sit in `M`, `A` and the coefficients.
        for c in 1..=70usize {
            let seed = 1000 + c as u64;
            let n = 29;
            let g = mat(n, c, block_rows(n, c, seed));
            let m_finite = mat(c, c, awkward(c * c, seed + 1, false));
            let m_special = mat(c, c, awkward(c * c, seed + 2, true));
            for m in [&m_finite, &m_special] {
                let fast = row_quad_forms(&g, m).unwrap();
                assert!(
                    same_bits(&fast, &row_quad_forms_oracle(&g, m)),
                    "row_quad c={c}"
                );
            }
            let a = mat(n, c, awkward(n * c, seed + 3, true));
            let u = mat(n, c, block_rows(n, c, seed + 4));
            let coeff = awkward(n, seed + 5, true);
            let fast = diag_lowrank_combine(&coeff, &a, &coeff, &u, &m_special).unwrap();
            let slow = combine_oracle(&coeff, &a, &coeff, &u, &m_special);
            assert!(same_bits(fast.as_slice(), slow.as_slice()), "combine c={c}");
        }
    }

    #[test]
    fn register_kernels_match_their_oracles_across_threads() {
        // Above PAR_THRESHOLD, so the chunked branch runs at 4 threads.
        let (n, c) = (800, 40);
        let g = mat(n, c, block_rows(n, c, 21));
        let m = mat(c, c, awkward(c * c, 22, true));
        let a = mat(n, c, awkward(n * c, 23, true));
        let coeff = awkward(n, 24, false);
        let quad = row_quad_forms_oracle(&g, &m);
        let comb = combine_oracle(&coeff, &a, &coeff, &g, &m);
        let before = num_threads();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            assert!(
                same_bits(&row_quad_forms(&g, &m).unwrap(), &quad),
                "t={threads}"
            );
            let fast = diag_lowrank_combine(&coeff, &a, &coeff, &g, &m).unwrap();
            assert!(same_bits(fast.as_slice(), comb.as_slice()), "t={threads}");
        }
        set_num_threads(before);
    }

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
