//! Matrix products and scaling kernels.
//!
//! The NMTF updates of Algorithm 2 are dominated by three product shapes:
//!
//! * `(n x n) * (n x c)` — Laplacian/residual times membership matrix;
//! * `(n x c)T * (n x c)` — small Gram matrices `GᵀG`;
//! * `(n x c) * (c x c) * (n x c)ᵀ` — the reconstruction `G S Gᵀ`.
//!
//! [`matmul`], [`matmul_tn`] and [`gram`] make one pass per output row
//! and keep the row in a fixed-size register accumulator, at most 32
//! columns per pass (see the private `lanes` module), with a skip-zero
//! fast path on the left operand — the block structure of `G` (Section
//! I-A of the paper) makes it mostly zeros, which this exploits. Every
//! entry sums its terms in the scalar i-k-j loop's order, so results are
//! bit-identical to it. Products above a work threshold are split
//! row-wise across threads with `std::thread::scope`.
//!
//! [`matmul_block`] and [`matmul_tn_block`] run the same accumulators
//! on one sub-block of each operand. The sparse-first NMTF engine uses
//! them to restrict every `n x c` product to each object type's own
//! rows and cluster columns (`c_k` lanes instead of `c`).

use crate::error::LinalgError;
use crate::lanes::{panels, store_lanes, with_lanes, Panel};
use crate::mat::Mat;
use crate::par::{par_row_chunks, threads_for};
use crate::tile::{for_each_tile, kernel, Panels, Tile, MR, NR};
use crate::Result;
use std::ops::Range;

/// Output rows a narrow kernel accumulates side by side.
const GROUP: usize = 4;

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
    let threads = threads_for(m * a.cols() * n);
    par_row_chunks(out.as_mut_slice(), m, n, threads, |r0, r1, chunk| {
        mul_rows_into(a, b, 0..a.cols(), 0..n, chunk, r0..r1)
    });
    Ok(out)
}

/// One block of a product: `out[rows, cols] = A[rows, inner] · B[inner, cols]`,
/// with `out` shaped like `A * B` (`a.rows() x b.cols()`) and every
/// entry outside the block left as it is. Serial.
///
/// Each entry sums `a_ik · b_kj` over ascending `k` in `inner` from
/// `+0`, skipping the zeros of `A`, in the register accumulator of
/// [`matmul`]. Where `A` is zero outside `inner` in `rows`, the block
/// is therefore bit-identical to the same block of [`matmul`] — the
/// case of a block-diagonal membership matrix `G`, whose row `i` is
/// nonzero only in its type's cluster columns.
///
/// # Panics
/// Panics if `out` is not `a.rows() x b.cols()`, `a.cols() != b.rows()`,
/// or a range runs past its matrix.
pub fn matmul_block(
    a: &Mat,
    b: &Mat,
    rows: Range<usize>,
    inner: Range<usize>,
    cols: Range<usize>,
    out: &mut Mat,
) {
    assert_eq!(a.cols(), b.rows(), "matmul_block: inner dimension mismatch");
    assert_eq!(
        out.shape(),
        (a.rows(), b.cols()),
        "matmul_block: out is not A*B-shaped"
    );
    assert!(
        rows.end <= a.rows() && inner.end <= a.cols() && cols.end <= b.cols(),
        "matmul_block: range past the matrix"
    );
    let n = b.cols();
    let chunk = &mut out.as_mut_slice()[rows.start * n..rows.end * n];
    mul_rows_into(a, b, inner, cols, chunk, rows);
}

/// Product `Aᵀ * B` where `A` is `k x m` and `B` is `k x n`.
///
/// Output row `i` accumulates `a[r][i] · b[r]` over the rows `r` of `A`
/// in a register accumulator, which is efficient when the output
/// (`m x n`) is small — exactly the `GᵀG`, `GᵀRG` shapes of the paper.
/// Falls back to an explicit transpose for large outputs.
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
    matmul_tn_block(a, b, 0..a.rows(), 0..m, 0..n, &mut out);
    Ok(out)
}

/// One block of a transposed product:
/// `out[a_cols, b_cols] = A[rows, a_cols]ᵀ · B[rows, b_cols]`, with
/// `out` shaped like `Aᵀ * B` (`a.cols() x b.cols()`) and every entry
/// outside the block left as it is. Serial.
///
/// Output row `i` sums `a_ri · b_r` over ascending `r` in `rows` from
/// `+0`, skipping the zeros of `A`, as [`matmul_tn`] does. Where column
/// `i` of `A` is zero outside `rows`, row `i` of the block is therefore
/// bit-identical to the same entries of [`matmul_tn`] — the case of a
/// block-diagonal `G`, whose type-`k` cluster columns are nonzero only
/// in type `k`'s rows.
///
/// # Panics
/// Panics if `out` is not `a.cols() x b.cols()`, `a.rows() != b.rows()`,
/// or a range runs past its matrix.
pub fn matmul_tn_block(
    a: &Mat,
    b: &Mat,
    rows: Range<usize>,
    a_cols: Range<usize>,
    b_cols: Range<usize>,
    out: &mut Mat,
) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn_block: row count mismatch");
    assert_eq!(
        out.shape(),
        (a.cols(), b.cols()),
        "matmul_tn_block: out is not AᵀB-shaped"
    );
    assert!(
        rows.end <= a.rows() && a_cols.end <= a.cols() && b_cols.end <= b.cols(),
        "matmul_tn_block: range past the matrix"
    );
    for (q0, w) in panels(b_cols.len()) {
        let p0 = b_cols.start + q0;
        with_lanes!(
            w,
            tn_panel(
                a,
                b,
                rows.clone(),
                a_cols.clone(),
                out.as_mut_slice(),
                p0,
                w
            )
        );
    }
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
    let threads = threads_for(m * n * a.cols());
    par_row_chunks(out.as_mut_slice(), m, n, threads, |r0, r1, chunk| {
        nt_rows_into(a, b, chunk, r0, r1)
    });
    Ok(out)
}

/// Symmetric Gram matrix `AᵀA` (`cols x cols`), exploiting symmetry.
pub fn gram(a: &Mat) -> Mat {
    let c = a.cols();
    let mut out = Mat::zeros(c, c);
    for (p0, w) in panels(c) {
        with_lanes!(w, gram_panel(a, out.as_mut_slice(), p0, w));
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
/// Runs on the packed register tile (the private `tile` module) in its
/// unfused mode: entry `(i, j)` sums `a_ik · a_jk` over ascending `k`
/// from `+0`, one rounding for the product and one for the sum. Only
/// the tiles on or above the diagonal are computed and then mirrored,
/// so the result is exactly symmetric, and rows split across the
/// [`crate::par`] pool, so it is bit-identical for every thread count. For a finite `A` this is the skip-zero loop it replaced, bit
/// for bit: a skipped `0 · x` adds `±0` to a `+0`-started sum, which
/// never holds `-0`.
pub fn row_gram(a: &Mat) -> Mat {
    let (n, d) = a.shape();
    let mut out = Mat::zeros(n, n);
    let right = Panels::<NR>::of_rows(a.as_slice(), n, d, 1.0);
    // The upper triangle of rows `[r0, r1)`, from the tiles that hold
    // them (a tile across a chunk border is run by both chunks).
    let upper_rows = |r0: usize, r1: usize, chunk: &mut [f64]| {
        let panels = r0 / MR..r1.div_ceil(MR);
        for_each_tile(
            a.as_slice(),
            n,
            d,
            1.0,
            panels,
            right.count(),
            true,
            |p, q, left| {
                let mut acc: Tile = [[0.0; NR]; MR];
                kernel::<false>(left, right.panel(q), &mut acc);
                for (i, row) in (p * MR..r1.min(p * MR + MR))
                    .zip(&acc)
                    .filter(|(i, _)| *i >= r0)
                {
                    let out_row = &mut chunk[(i - r0) * n..(i - r0 + 1) * n];
                    for (j, &v) in (q * NR..n.min(q * NR + NR)).zip(row) {
                        if j >= i {
                            out_row[j] = v;
                        }
                    }
                }
            },
        );
    };
    // n²·cols/2 multiply-adds: only the upper triangle is computed.
    let threads = threads_for(n * n * d / 2);
    par_row_chunks(out.as_mut_slice(), n, n, threads, upper_rows);
    for i in 1..n {
        for j in 0..i {
            let v = out[(j, i)];
            out[(i, j)] = v;
        }
    }
    out
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

/// Columns `cols` of rows `rows` of `A[:, inner] · B[inner, :]` into
/// `chunk`, which holds those rows of the output (row stride
/// `b.cols()`).
fn mul_rows_into(
    a: &Mat,
    b: &Mat,
    inner: Range<usize>,
    cols: Range<usize>,
    chunk: &mut [f64],
    rows: Range<usize>,
) {
    for (q0, w) in panels(cols.len()) {
        let p0 = cols.start + q0;
        with_lanes!(
            w,
            mul_panel(a, b, inner.clone(), chunk, p0, w, rows.clone())
        );
    }
}

/// Columns `[p0, p0 + w)` of rows `rows` of `A[:, inner] · B[inner, :]`:
/// one pass per output row, the row held in a `W`-lane accumulator,
/// terms added in ascending `k` with the zeros of `A` skipped. Rows go
/// [`GROUP`] at a time, sharing each row of `B`: every accumulator
/// still sums its own terms in order, while the group's chains of
/// dependent adds overlap.
fn mul_panel<const W: usize>(
    a: &Mat,
    b: &Mat,
    inner: Range<usize>,
    chunk: &mut [f64],
    p0: usize,
    w: usize,
    rows: Range<usize>,
) {
    let n = b.cols();
    let bp = Panel::<W>::new(b.as_slice(), b.rows(), b.cols(), p0, w);
    let r0 = rows.start;
    let mut i = r0;
    while i < rows.end {
        // A short last group repeats its last row; only `group` rows are
        // stored.
        let group = (rows.end - i).min(GROUP);
        let arows: [&[f64]; GROUP] =
            std::array::from_fn(|q| &a.row(i + q.min(group - 1))[inner.clone()]);
        let mut acc = [[0.0; W]; GROUP];
        for (e, k) in inner.clone().enumerate() {
            let brow = bp.row(k);
            for (acc, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[e];
                if av != 0.0 {
                    for (o, &bv) in acc.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        for (q, acc) in acc.into_iter().enumerate().take(group) {
            store_lanes(acc, &mut chunk[(i + q - r0) * n + p0..][..w]);
        }
        i += group;
    }
}

/// Columns `[p0, p0 + w)` of rows `a_cols` of `A[rows, :]ᵀ · B[rows, :]`
/// into `out` (`a.cols() x b.cols()`): output row `i` sums
/// `a[r][i] · b[r]` over ascending `r` in `rows`, skipping the zeros of
/// `A`. Output rows go [`GROUP`] at a time, sharing each row of `B`.
fn tn_panel<const W: usize>(
    a: &Mat,
    b: &Mat,
    rows: Range<usize>,
    a_cols: Range<usize>,
    out: &mut [f64],
    p0: usize,
    w: usize,
) {
    let n = b.cols();
    let bp = Panel::<W>::new(b.as_slice(), b.rows(), b.cols(), p0, w);
    let mut i = a_cols.start;
    while i < a_cols.end {
        // A short last group repeats its last column; only `group`
        // output rows are stored.
        let group = (a_cols.end - i).min(GROUP);
        let cols: [usize; GROUP] = std::array::from_fn(|q| i + q.min(group - 1));
        let mut acc = [[0.0; W]; GROUP];
        for r in rows.clone() {
            let arow = a.row(r);
            let brow = bp.row(r);
            for (acc, &col) in acc.iter_mut().zip(&cols) {
                let av = arow[col];
                if av != 0.0 {
                    for (o, &bv) in acc.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        for (q, acc) in acc.into_iter().enumerate().take(group) {
            store_lanes(acc, &mut out[(i + q) * n + p0..][..w]);
        }
        i += group;
    }
}

/// The upper-triangle entries of `AᵀA` in columns `[p0, p0 + w)`:
/// output row `i` sums `a[r][i] · a[r]` over ascending `r`, skipping the
/// zeros of column `i`; lanes left of the diagonal are computed and
/// discarded.
fn gram_panel<const W: usize>(a: &Mat, out: &mut [f64], p0: usize, w: usize) {
    let c = a.cols();
    let ap = Panel::<W>::new(a.as_slice(), a.rows(), a.cols(), p0, w);
    for i in 0..p0 + w {
        let mut acc = [0.0; W];
        for r in 0..a.rows() {
            let vi = a.row(r)[i];
            if vi == 0.0 {
                continue;
            }
            for (o, &vj) in acc.iter_mut().zip(ap.row(r)) {
                *o += vi * vj;
            }
        }
        let mut row = [0.0; W];
        store_lanes(acc, &mut row[..w]);
        let from = i.max(p0) - p0;
        out[i * c + p0 + from..][..w - from].copy_from_slice(&row[from..w]);
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
    use crate::block::BlockSpec;
    use crate::lanes::oracle::{awkward, block_rows, same_bits, typed_rows};
    use crate::par::{num_threads, set_num_threads};
    use crate::random::rand_uniform;

    /// The scalar loop [`mul_rows_into`] replaced: i-k-j, the output row
    /// updated in memory, zeros of `A` skipped.
    fn matmul_oracle(a: &Mat, b: &Mat) -> Mat {
        let n = b.cols();
        let mut out = Mat::zeros(a.rows(), n);
        for i in 0..a.rows() {
            let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The scalar rank-1 loop of [`matmul_tn`]'s small-output branch.
    fn tn_oracle(a: &Mat, b: &Mat) -> Mat {
        let n = b.cols();
        let mut out = Mat::zeros(a.cols(), n);
        for r in 0..a.rows() {
            for (i, &av) in a.row(r).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(b.row(r)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The scalar upper-triangle loop of [`gram`], then the mirror.
    fn gram_oracle(a: &Mat) -> Mat {
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
        for i in 0..c {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    fn mat(rows: usize, cols: usize, data: Vec<f64>) -> Mat {
        Mat::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn register_kernels_match_their_oracles_at_every_width() {
        // Widths 1..=70 cross every accumulator size (8/16/24/32) and
        // the two- and three-pass widths; NaN and ±∞ sit in A.
        for w in 1..=70usize {
            let seed = w as u64;
            // NaN and ±∞ on either side: against a zero of A the oracle
            // never forms 0·∞, and neither may the kernel.
            for (sa, sb) in [(true, false), (false, true)] {
                let a = mat(23, 9, awkward(23 * 9, seed, sa));
                let b = mat(9, w, awkward(9 * w, seed + 100, sb));
                let fast = matmul(&a, &b).unwrap();
                let slow = matmul_oracle(&a, &b);
                assert!(same_bits(fast.as_slice(), slow.as_slice()), "matmul w={w}");
            }

            let g = mat(31, w, block_rows(31, w, seed));
            let h = mat(31, w, awkward(31 * w, seed + 200, true));
            let tn = matmul_tn(&g, &h).unwrap();
            assert!(
                same_bits(tn.as_slice(), tn_oracle(&g, &h).as_slice()),
                "tn w={w}"
            );
            let tn_special = matmul_tn(&h, &g).unwrap();
            assert!(
                same_bits(tn_special.as_slice(), tn_oracle(&h, &g).as_slice()),
                "tn (NaN side) w={w}"
            );
            assert!(
                same_bits(gram(&g).as_slice(), gram_oracle(&g).as_slice()),
                "gram w={w}"
            );
            assert!(
                same_bits(gram(&h).as_slice(), gram_oracle(&h).as_slice()),
                "gram (NaN) w={w}"
            );
        }
    }

    #[test]
    fn register_matmul_matches_its_oracle_on_empty_and_parallel_shapes() {
        let empty = Mat::zeros(0, 5);
        assert_eq!(matmul(&empty, &Mat::zeros(5, 7)).unwrap().shape(), (0, 7));
        assert_eq!(
            matmul(&Mat::zeros(4, 5), &Mat::zeros(5, 0))
                .unwrap()
                .shape(),
            (4, 0)
        );
        // All-zero rows of A, and a product above the parallel threshold
        // so the row fan-out runs at 4 threads.
        let a = mat(300, 230, block_rows(300, 230, 7));
        let b = mat(230, 70, awkward(230 * 70, 8, true));
        const { assert!(300 * 230 * 70 >= crate::par::PAR_WORK) };
        let expect = matmul_oracle(&a, &b);
        let before = num_threads();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let fast = matmul(&a, &b).unwrap();
            assert!(
                same_bits(fast.as_slice(), expect.as_slice()),
                "threads={threads}"
            );
        }
        set_num_threads(before);
    }

    /// Layouts crossing the accumulator widths, a type with one cluster
    /// and a type with one object.
    const LAYOUTS: [(&[usize], &[usize]); 3] = [
        (&[13, 1, 9], &[3, 15, 4]),
        (&[7, 11, 6, 5], &[1, 9, 33, 2]),
        (&[1, 21], &[17, 8]),
    ];

    #[test]
    fn block_kernels_match_the_full_width_products_on_typed_operands() {
        // Each type's block of every product against the same entries of
        // the full-width kernel, bit for bit; entries outside the blocks
        // stay untouched. `B` carries NaN/±∞: against a zero of `A` neither
        // kernel forms 0·∞. 1 and 4 threads.
        let before = num_threads();
        for (li, (sizes, clusters)) in LAYOUTS.iter().enumerate() {
            let (types, cl) = (
                BlockSpec::from_sizes(sizes),
                BlockSpec::from_sizes(clusters),
            );
            let (vals, c) = typed_rows(sizes, clusters, 40 + li as u64);
            let n = types.total();
            let g = mat(n, c, vals);
            let b = mat(c, c, awkward(c * c, 50 + li as u64, true));
            let x = mat(n, c, awkward(n * c, 60 + li as u64, true));
            for threads in [1usize, 4] {
                set_num_threads(threads);
                let full = matmul(&g, &b).unwrap();
                let full_x = matmul(&x, &b).unwrap();
                let tn_gx = matmul_tn(&g, &x).unwrap();
                let tn_gg = matmul_tn(&g, &g).unwrap();
                let (mut own, mut wide, mut xb) = (
                    Mat::filled(n, c, 9.0),
                    Mat::filled(n, c, 9.0),
                    Mat::filled(n, c, 9.0),
                );
                let (mut tn, mut tg) = (Mat::filled(c, c, 9.0), Mat::filled(c, c, 9.0));
                for k in 0..types.num_blocks() {
                    let (rows, cols) = (types.range(k), cl.range(k));
                    matmul_block(&g, &b, rows.clone(), cols.clone(), cols.clone(), &mut own);
                    matmul_block(&g, &b, rows.clone(), cols.clone(), 0..c, &mut wide);
                    matmul_block(&x, &b, rows.clone(), 0..c, cols.clone(), &mut xb);
                    matmul_tn_block(&g, &x, rows.clone(), cols.clone(), 0..c, &mut tn);
                    matmul_tn_block(&g, &g, rows.clone(), cols.clone(), cols.clone(), &mut tg);
                }
                for k in 0..types.num_blocks() {
                    let cols = cl.range(k);
                    for i in types.range(k) {
                        let at = |m: &Mat| m.row(i)[cols.clone()].to_vec();
                        assert!(same_bits(&at(&own), &at(&full)), "own {li} row {i}");
                        assert!(same_bits(&at(&xb), &at(&full_x)), "x·B {li} row {i}");
                        assert!(same_bits(wide.row(i), full.row(i)), "wide {li} row {i}");
                        let outside = own
                            .row(i)
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| !cols.contains(j));
                        assert!(outside.clone().all(|(_, &v)| v == 9.0), "own leaked {li}");
                    }
                    for a in cols.clone() {
                        assert!(same_bits(tn.row(a), tn_gx.row(a)), "GᵀX {li} row {a}");
                        let own_tg = &tg.row(a)[cols.clone()];
                        assert!(same_bits(own_tg, &tn_gg.row(a)[cols.clone()]), "GᵀG {li}");
                        // Off-block GᵀG is +0 for a finite G.
                        let off = tn_gg
                            .row(a)
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| !cols.contains(j));
                        assert!(off.clone().all(|(_, v)| v.to_bits() == 0), "GᵀG off-block");
                    }
                }
            }
        }
        set_num_threads(before);
    }

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

    /// The row Gram's loop before the tile: row `i` takes `a_ik · (Aᵀ)_k`
    /// over ascending `k`, skipping zero features, into the upper
    /// triangle, which is then mirrored.
    fn row_gram_axpy_oracle(a: &Mat) -> Mat {
        let n = a.rows();
        let at = a.transpose();
        let mut out = Mat::zeros(n, n);
        for i in 0..n {
            for (k, &v) in a.row(i).iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                for (o, &x) in out.row_mut(i)[i..].iter_mut().zip(&at.row(k)[i..]) {
                    *o += v * x;
                }
            }
        }
        for i in 1..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    #[test]
    fn row_gram_tile_equals_the_axpy_loop_bit_for_bit() {
        let before = num_threads();
        // Shapes below one tile, between tiles and across cache blocks;
        // a third of the features zero (the skipped terms), signed
        // values, subnormal and huge entries.
        for (case, (n, d)) in [
            (1, 1),
            (3, 5),
            (4, 16),
            (17, 3),
            (37, 11),
            (70, 190),
            (300, 40),
        ]
        .into_iter()
        .enumerate()
        {
            let mut a = rand_uniform(n, d, -1.0, 1.0, 90 + case as u64);
            for (e, v) in a.as_mut_slice().iter_mut().enumerate() {
                match e % 7 {
                    0 | 3 => *v = 0.0,
                    5 => *v = -0.0,
                    _ => {}
                }
            }
            a.as_mut_slice()[0] = 1e-310;
            if n * d > 2 {
                a.as_mut_slice()[1] = 1e150;
            }
            let expect = row_gram_axpy_oracle(&a);
            for threads in [1, 4] {
                set_num_threads(threads);
                let got = row_gram(&a);
                assert!(
                    same_bits(got.as_slice(), expect.as_slice()),
                    "{n}x{d} t{threads}"
                );
            }
        }
        set_num_threads(before);
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
        // Above the parallel threshold: 256*256*256 = 16.7M.
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
}
