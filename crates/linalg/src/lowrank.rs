//! The diagonal-plus-low-rank correction of the sparse-first NMTF
//! engine.
//!
//! The engine's implicit error-matrix representation (Eq. 27) writes
//! `R − E_R = D_{1−f}·R + D_f·U·Hᵀ` with `f` the row shrinkage factors
//! and `U = G S`, `H = G` the previous iterate's factors, so
//! `(R − E_R)·G = D_{1−f}·(R·G) + D_f·U·(HᵀG)` without forming
//! `R − E_R`. `HᵀG` is block-diagonal — type `k`'s cluster columns of
//! `G` are nonzero only in type `k`'s rows — so column block `l` of the
//! correction needs only `U`'s columns of block `l`:
//! [`diag_lowrank_combine_block`] computes one such block in `c_l`
//! register lanes, summing every entry's terms in the order of the
//! full-width loop and skipping only exact zeros.

use crate::lanes::{panels, store_lanes, with_lanes, Panel};
use crate::mat::Mat;
use std::ops::Range;

/// The bits of `-0.0`.
const NEG_ZERO: u64 = 0x8000_0000_0000_0000;

/// Column block `cols` of the diagonal-plus-low-rank combination
/// `D_a·A + D_u·(U·W)` for rows `rows`, with `W` block-diagonal:
/// `out[i, cols] = a_coeff[i]·A[i, cols] + u_coeff[i]·(U[i, cols]·W[cols, cols])`.
/// `out` is shaped like `A`; entries outside the block are left as they
/// are. Serial.
///
/// Entry `(i, j)` starts as `a_coeff[i]·a_ij` and takes
/// `(u_coeff[i]·u_ik)·w_kj` over ascending `k ∈ cols`, skipping zero
/// `u_ik` (all terms when `u_coeff[i]` is zero are skipped), held in a
/// register accumulator. Against the full-width combination over every
/// `k` the dropped terms are `(u_coeff[i]·u_ik)·w_kj` with `w_kj` a zero
/// outside `W`'s diagonal block: with `U` finite each is `±0`, which
/// changes a sum only in the sign of a zero result, and only if the
/// running sum is `-0` when a `+0` arrives. So an entry that comes out
/// `-0` is summed again over every `k`, and the block equals the
/// full-width combination's bit for bit whenever `W` is zero off its
/// diagonal blocks and `U` is finite.
///
/// # Panics
/// Panics if `U` and `out` are not shaped like `A`, `W` is not
/// `A.cols() x A.cols()`, a coefficient slice ends before `rows` does, or a
/// range runs past `A`.
#[allow(clippy::too_many_arguments)]
pub fn diag_lowrank_combine_block(
    a_coeff: &[f64],
    a: &Mat,
    u_coeff: &[f64],
    u: &Mat,
    w: &Mat,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut Mat,
) {
    let c = a.cols();
    assert!(
        u.shape() == a.shape() && out.shape() == a.shape() && w.shape() == (c, c),
        "diag_lowrank_combine_block: shape mismatch"
    );
    assert!(
        a_coeff.len() >= rows.end && u_coeff.len() >= rows.end,
        "diag_lowrank_combine_block: coefficients shorter than the rows"
    );
    assert!(
        rows.end <= a.rows() && cols.end <= c,
        "diag_lowrank_combine_block: range past the matrix"
    );
    for (q0, pw) in panels(cols.len()) {
        let p0 = cols.start + q0;
        with_lanes!(
            pw,
            combine_panel(
                a_coeff,
                a,
                u_coeff,
                u,
                w,
                cols.clone(),
                out,
                p0,
                pw,
                rows.clone()
            )
        );
    }
}

/// Columns `[p0, p0 + pw)` of rows `rows` of
/// [`diag_lowrank_combine_block`]: the row starts as `a_coeff[i]·A.row(i)`
/// in a `W`-lane accumulator and takes `(u_coeff[i]·u_ik)·W.row(k)` over
/// ascending `k ∈ inner`, skipping zero coefficients; a `-0` result is
/// summed again over every `k`.
#[allow(clippy::too_many_arguments)]
fn combine_panel<const W: usize>(
    a_coeff: &[f64],
    a: &Mat,
    u_coeff: &[f64],
    u: &Mat,
    w: &Mat,
    inner: Range<usize>,
    out: &mut Mat,
    p0: usize,
    pw: usize,
    rows: Range<usize>,
) {
    let c = a.cols();
    let ap = Panel::<W>::new(a.as_slice(), a.rows(), c, p0, pw);
    let wp = Panel::<W>::new(w.as_slice(), w.rows(), c, p0, pw);
    for i in rows {
        let (da, du) = (a_coeff[i], u_coeff[i]);
        let mut acc = [0.0; W];
        for (o, &av) in acc.iter_mut().zip(ap.row(i)) {
            *o = da * av;
        }
        if du != 0.0 {
            for (k, &uv) in inner.clone().zip(&u.row(i)[inner.clone()]) {
                if uv == 0.0 {
                    continue;
                }
                let s = du * uv;
                for (o, &wv) in acc.iter_mut().zip(wp.row(k)) {
                    *o += s * wv;
                }
            }
        }
        // Whole-array test first, so `acc` stays in registers; lanes past
        // `pw` may raise a false alarm, which only costs the re-check.
        let neg_zero = du != 0.0 && acc.iter().any(|v| v.to_bits() == NEG_ZERO);
        let dst = &mut out.row_mut(i)[p0..p0 + pw];
        store_lanes(acc, dst);
        if !neg_zero {
            continue;
        }
        // The full-width sum over every `k` for each `-0` entry.
        for (j, o) in (p0..).zip(dst.iter_mut()) {
            if o.to_bits() == NEG_ZERO {
                *o = da * a[(i, j)];
                for (k, &uv) in u.row(i).iter().enumerate() {
                    if uv != 0.0 {
                        *o += du * uv * w[(k, j)];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSpec;
    use crate::lanes::oracle::{awkward, same_bits, typed_rows};
    use crate::ops::{gram, matmul};
    use crate::par::{num_threads, set_num_threads};

    /// The full-width combination the typed blocks replace (the scalar
    /// loop of the former `diag_lowrank_combine`): every `k`, zero
    /// `u_ik` skipped.
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
    fn typed_combine_matches_the_full_width_combination() {
        // `W` = GᵀG of a type-blocked `G` (block-diagonal, +0 off the
        // blocks). `A` holds negative values, and a third of the rows
        // have a zero `A` coefficient, so `0 · (negative) = -0` starts
        // lanes that only a dropped `+0` term would flip: the `-0`
        // re-sum must reproduce that. A type with one cluster and one
        // with one object; 1 and 4 threads.
        let before = num_threads();
        for (li, (sizes, clusters)) in [
            (&[13usize, 1, 9][..], &[3usize, 15, 4][..]),
            (&[7, 11, 6, 5], &[1, 9, 33, 2]),
        ]
        .into_iter()
        .enumerate()
        {
            let spec = BlockSpec::from_sizes(clusters);
            let (gv, c) = typed_rows(sizes, clusters, 70 + li as u64);
            let n = sizes.iter().sum();
            // Column `j` of block 1 is an empty cluster, so its column of
            // `W` is zero; rows `i ≡ 0 (mod 3)` start lane `j` at
            // `0 · (-0.5) = -0`, and their `U` is negative in block 1 and
            // positive outside it: every kept term is `-0`, a dropped one
            // `+0`, and the full-width entry is `+0`.
            let j = spec.offset(1);
            let g = mat(n, c, gv.clone());
            let mut w = gram(&g);
            for k in 0..c {
                w[(k, j)] = 0.0;
            }
            let s = mat(c, c, awkward(c * c, 71 + li as u64, false));
            let mut u = matmul(&g, &s).unwrap();
            let mut a = mat(n, c, awkward(n * c, 72 + li as u64, false));
            for i in (0..n).step_by(3) {
                a[(i, j)] = -0.5;
                for k in 0..c {
                    let v = u[(i, k)].abs() + 0.125;
                    u[(i, k)] = if spec.range(1).contains(&k) { -v } else { v };
                }
            }
            let a_coeff: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { 0.75 })
                .collect();
            let u_coeff: Vec<f64> = (0..n)
                .map(|i| if i % 7 == 6 { 0.0 } else { 0.25 })
                .collect();
            let expect = combine_oracle(&a_coeff, &a, &u_coeff, &u, &w);
            assert!(
                (0..n)
                    .step_by(3)
                    .any(|i| u_coeff[i] != 0.0 && expect[(i, j)].to_bits() == 0),
                "the -0 trap is not exercised"
            );
            for threads in [1usize, 4] {
                set_num_threads(threads);
                let mut out = Mat::filled(n, c, 9.0);
                for l in 0..spec.num_blocks() {
                    diag_lowrank_combine_block(
                        &a_coeff,
                        &a,
                        &u_coeff,
                        &u,
                        &w,
                        0..n,
                        spec.range(l),
                        &mut out,
                    );
                }
                assert!(
                    same_bits(out.as_slice(), expect.as_slice()),
                    "layout {li} t={threads}"
                );
            }
        }
        set_num_threads(before);
    }
}
