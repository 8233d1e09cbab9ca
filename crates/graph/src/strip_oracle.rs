//! The exact search's kernel before the packed tile, kept as the test
//! oracle of [`crate::knn::CentredRows::p_nearest`] and
//! [`crate::knn::cross_sq_dist_map`].
//!
//! Every query row gets a strip of distances to every corpus row: the
//! cross terms `−2·x_qᵀx_j` accumulate one row tile at a time in an
//! axpy kernel over the transposed corpus (four query rows share each
//! strip of `Xᵀ`, and `k` is unrolled by four as one nested FMA chain),
//! then the strip takes `g_q + g_j` and is scanned by `insert_capped`.
//! Each pair is computed in both orientations.

use crate::knn::insert_capped;
use mtrl_linalg::par::par_chunks_map;
use mtrl_linalg::Mat;

/// Rows per distance tile.
const TILE: usize = 32;
/// Query rows that share each streamed strip of `Xᵀ` in the Gram tile.
const GROUP: usize = 4;
/// Column-strip width of the Gram micro-kernel.
const JT: usize = 512;

/// Each row's `p` nearest other rows of `x` (centred rows with their
/// squared norms `g`), as the strip kernel selected them.
pub(crate) fn p_nearest(x: &Mat, g: &[f64], p: usize, threads: usize) -> Vec<Vec<(f64, usize)>> {
    strip_map(x, g, x, g, threads, |i, strip| {
        let mut best = Vec::with_capacity(p + 1);
        for (j, &d) in strip.iter().enumerate() {
            if j != i {
                insert_capped(&mut best, (d, j), p);
            }
        }
        best
    })
}

/// `f(q, strip)` for every query row, `strip[j] = g_q + g_j − 2·x_qᵀx_j`.
pub(crate) fn strip_map<T, F>(
    queries: &Mat,
    q_norms: &[f64],
    corpus: &Mat,
    c_norms: &[f64],
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64]) -> T + Sync,
{
    let n = corpus.rows();
    if n == 0 {
        return (0..queries.rows()).map(|q| f(q, &[])).collect();
    }
    let ct = corpus.transpose();
    par_chunks_map(queries.rows(), threads, |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut tile_buf = vec![0.0; TILE.min(range.len().max(1)) * n];
        let mut t0 = range.start;
        while t0 < range.end {
            let t1 = (t0 + TILE).min(range.end);
            gram_tile_neg2(queries, &ct, t0, t1, &mut tile_buf);
            for local in 0..(t1 - t0) {
                let q = t0 + local;
                let gq = q_norms[q];
                let strip = &mut tile_buf[local * n..(local + 1) * n];
                for (s, &gj) in strip.iter_mut().zip(c_norms) {
                    *s += gq + gj;
                }
                out.push(f(q, strip));
            }
            t0 = t1;
        }
        out
    })
}

/// Accumulate `tile_buf[local][j] = −2 · src[t0 + local] · Xᵀ[.., j]`
/// for the row tile `[t0, t1)` of `src`.
fn gram_tile_neg2(src: &Mat, xt: &Mat, t0: usize, t1: usize, tile_buf: &mut [f64]) {
    let n = xt.cols();
    let d = src.cols();
    let rows = t1 - t0;
    tile_buf[..rows * n].fill(0.0);
    let mut brows: Vec<&mut [f64]> = tile_buf[..rows * n].chunks_mut(n.max(1)).collect();
    for (g, group) in brows.chunks_mut(GROUP).enumerate() {
        let i0 = t0 + g * GROUP;
        if group.len() == GROUP {
            let mut jt = 0;
            while jt < n {
                let je = (jt + JT).min(n);
                let mut k = 0;
                while k + 4 <= d {
                    let xk = [
                        &xt.row(k)[jt..je],
                        &xt.row(k + 1)[jt..je],
                        &xt.row(k + 2)[jt..je],
                        &xt.row(k + 3)[jt..je],
                    ];
                    for (local, b) in group.iter_mut().enumerate() {
                        let x = &src.row(i0 + local)[k..k + 4];
                        let a = [-2.0 * x[0], -2.0 * x[1], -2.0 * x[2], -2.0 * x[3]];
                        axpy4_fma(&mut b[jt..je], a, xk);
                    }
                    k += 4;
                }
                while k < d {
                    let xk = &xt.row(k)[jt..je];
                    for (local, b) in group.iter_mut().enumerate() {
                        axpy1_fma(&mut b[jt..je], -2.0 * src.row(i0 + local)[k], xk);
                    }
                    k += 1;
                }
                jt = je;
            }
        } else {
            for (local, brow) in group.iter_mut().enumerate() {
                let xrow = src.row(i0 + local);
                for (k, &xv) in xrow.iter().enumerate() {
                    axpy1_fma(brow, -2.0 * xv, xt.row(k));
                }
            }
        }
    }
}

/// `o[j] += a · x[j]` as one FMA per element.
fn axpy1_fma(o: &mut [f64], a: f64, x: &[f64]) {
    for (ov, &xv) in o.iter_mut().zip(x) {
        *ov = a.mul_add(xv, *ov);
    }
}

/// Four ascending-`k` accumulation steps per element as a nested FMA
/// chain.
fn axpy4_fma(o: &mut [f64], a: [f64; 4], x: [&[f64]; 4]) {
    let [x0, x1, x2, x3] = x;
    for ((((ov, &v0), &v1), &v2), &v3) in o.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        *ov = a[3].mul_add(
            v3,
            a[2].mul_add(v2, a[1].mul_add(v1, a[0].mul_add(v0, *ov))),
        );
    }
}
