//! The candidate support of the restricted SPG iterate and its product
//! with the Gram matrix, the solver's one `O(n·K′²)` kernel.
//!
//! The product is bound by its Gram gathers: on the 330-document Large3
//! doc type a row holds about 40 nonzero coefficients, each gathering
//! 65 Gram entries. The kernel therefore spends nothing else per term:
//! it compacts each row's nonzero coefficients into a term list before
//! the term loop, runs full-width rows at the constant width `LANES`,
//! and uses 8-wide AVX-512 gathers where the CPU has them.
//!
//! `mtrl-bench`'s `micro_subspace` compiles this same file (`#[path]`)
//! to time the product alone, so the kernel is benched without becoming
//! public API.

use mtrl_linalg::par::{par_row_chunks, threads_for};
use mtrl_linalg::Mat;

/// Candidates per object: row `i` of `W` is supported on the
/// `min(CANDIDATES, n − 1)` objects with the largest inner products with
/// object `i` (see the `spg` module docs).
pub const CANDIDATES: usize = 64;

/// Accumulator lanes of the support product: the widest support row,
/// the candidates plus the diagonal slot.
pub(crate) const LANES: usize = CANDIDATES + 1;

/// Row supports of the restricted iterate, `width` columns per row in
/// ascending order: the candidates of object `i` plus `i` itself, whose
/// slot the projection holds at zero. Every column is an object, so
/// below [`Support::objects`]; unsafe indexing relies on this.
pub(crate) struct Support {
    pub(crate) width: usize,
    cols: Vec<usize>,
    /// Position of column `i` within row `i`.
    pub(crate) diag: Vec<usize>,
}

impl Support {
    /// The `min(candidates, n − 1)` largest off-diagonal entries of each
    /// row of the Gram `k`, ties broken by the lower index.
    pub(crate) fn top_inner_products(k: &Mat, candidates: usize) -> Support {
        let n = k.rows();
        let kp = candidates.min(n - 1);
        let mut cols = Vec::with_capacity(n * (kp + 1));
        let mut diag = Vec::with_capacity(n);
        let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(n);
        for i in 0..n {
            scratch.clear();
            scratch.extend(k.row(i).iter().copied().zip(0..n).filter(|&(_, j)| j != i));
            scratch.select_nth_unstable_by(kp - 1, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let row_start = cols.len();
            cols.extend(scratch[..kp].iter().map(|&(_, j)| j));
            cols.push(i);
            let row = &mut cols[row_start..];
            row.sort_unstable();
            diag.push(row.partition_point(|&j| j < i));
        }
        Support {
            width: kp + 1,
            cols,
            diag,
        }
    }

    /// The number of objects `n`: rows, and the bound on every column.
    pub(crate) fn objects(&self) -> usize {
        self.diag.len()
    }

    pub(crate) fn row(&self, i: usize) -> &[usize] {
        &self.cols[i * self.width..(i + 1) * self.width]
    }
}

/// `out = X·K` on the support: `out_i[a] = Σ_b x_i[b] · K[S_i[b], S_i[a]]`,
/// skipping zero coefficients — row `i` of the dense product read at
/// `S_i`, for `X` supported on `S`. `O(n·width²)`.
///
/// One pass per row. The row's nonzero coefficients are first compacted,
/// branch-free, into a list of `(x_i[b], K[S_i[b], ·])` terms, so the
/// term loop runs over exactly the terms that contribute and tests
/// nothing. Each term's Gram entries are then gathered straight into the
/// multiply-add on a local accumulator that nothing else aliases. Above
/// `n = CANDIDATES + 1` every support row is exactly `LANES` wide, and
/// those rows run a fixed `[f64; LANES]` accumulator, so the lane loop
/// compiles to whole gather vectors; narrower supports keep the runtime
/// width. Every entry sums its terms over ascending `b` from `+0`,
/// skipping the exact zeros (`±0`) of `X`, exactly as a scalar loop over
/// the row would, so the result does not depend on the thread count.
pub(crate) fn support_product(k: &Mat, support: &Support, x: &Mat, out: &mut Mat) {
    let (n, width) = (x.rows(), support.width);
    let rows = |r0: usize, r1: usize, chunk: &mut [f64]| {
        for (orow, i) in chunk.chunks_exact_mut(width).zip(r0..r1) {
            let cols = support.row(i);
            // Support rows ascend, so this bounds every column of the row.
            assert!(
                cols[width - 1] < k.cols(),
                "support column outside the Gram"
            );
            let mut terms: [(f64, &[f64]); LANES] = [(0.0, &[]); LANES];
            let mut count = 0;
            for (&xv, &l) in x.row(i).iter().zip(cols) {
                // `count` never passes the position, and a zero's slot is
                // overwritten by the next coefficient.
                terms[count] = (xv, k.row(l));
                count += usize::from(xv != 0.0);
            }
            let terms = &terms[..count];
            let mut acc = [0.0; LANES];
            if let Ok(cols) = <&[usize; LANES]>::try_from(cols) {
                // SAFETY: every term's Gram row is a row of `k`, with
                // `k.cols()` entries, and every column of this ascending
                // support row is at most its last, `< k.cols()`
                // (asserted above).
                unsafe { accumulate_full(terms, cols, &mut acc) };
            } else {
                for &(xv, krow) in terms {
                    for (o, &j) in acc[..width].iter_mut().zip(cols) {
                        // SAFETY: `krow` is a row of `k`, with `k.cols()`
                        // entries, and `j` is a column of this ascending
                        // support row, so at most `cols[width − 1]`, which
                        // is `< k.cols()` (asserted above).
                        *o += xv * unsafe { *krow.get_unchecked(j) };
                    }
                }
            }
            orow.copy_from_slice(&acc[..width]);
        }
    };
    // n·(K′+1)² multiply-adds.
    let threads = threads_for(n * width * width);
    par_row_chunks(out.as_mut_slice(), n, width, threads, rows);
}

/// `acc[a] += x · K[l, cols[a]]` for each term `(x, K[l, ·])` in order,
/// on a full `LANES`-wide support row.
///
/// On a CPU with AVX-512 the 64 leading lanes run as eight 8-wide
/// gathers, half the gather instructions of the compiler's 4-wide
/// vectors; every lane still rounds its product and then its sum, so
/// both paths give the same bits.
///
/// # Safety
/// Every column in `cols` must be `< krow.len()` for every term's `krow`.
#[inline(always)]
pub(crate) unsafe fn accumulate_full(
    terms: &[(f64, &[f64])],
    cols: &[usize; LANES],
    acc: &mut [f64; LANES],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU supports AVX-512F (checked just now), and the
        // column bound is this function's own precondition.
        unsafe { accumulate_full_avx512(terms, cols, acc) };
        return;
    }
    // SAFETY: the column bound is this function's own precondition.
    unsafe { accumulate_full_portable(terms, cols, acc) };
}

/// [`accumulate_full`] in portable code.
///
/// # Safety
/// As for [`accumulate_full`].
#[inline(always)]
pub(crate) unsafe fn accumulate_full_portable(
    terms: &[(f64, &[f64])],
    cols: &[usize; LANES],
    acc: &mut [f64; LANES],
) {
    for &(xv, krow) in terms {
        for (o, &j) in acc.iter_mut().zip(cols) {
            // SAFETY: every `j` indexes `krow` (the precondition).
            *o += xv * unsafe { *krow.get_unchecked(j) };
        }
    }
}

/// [`accumulate_full`] with AVX-512 gathers.
///
/// # Safety
/// The CPU must support AVX-512F, and every column in `cols` must be
/// `< krow.len()` for every term's `krow`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_full_avx512(
    terms: &[(f64, &[f64])],
    cols: &[usize; LANES],
    acc: &mut [f64; LANES],
) {
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_i64gather_pd, _mm512_loadu_pd, _mm512_loadu_si512, _mm512_mul_pd,
        _mm512_set1_pd, _mm512_storeu_pd,
    };
    const VECTORS: usize = (LANES - 1) / 8;
    const _: () = assert!(VECTORS * 8 + 1 == LANES, "64 vector lanes and one scalar");
    // The gather offsets are the support columns as `i64`s: a column is
    // below a slice length, so below `isize::MAX`, and `usize` has the
    // width and layout of `i64` on x86-64.
    // SAFETY: each load reads 8 of the `LANES` columns, in bounds.
    let offsets: [_; VECTORS] =
        std::array::from_fn(|v| unsafe { _mm512_loadu_si512(cols.as_ptr().add(8 * v).cast()) });
    // SAFETY: each load reads 8 of the `LANES` accumulator lanes.
    let mut sums: [_; VECTORS] =
        std::array::from_fn(|v| unsafe { _mm512_loadu_pd(acc.as_ptr().add(8 * v)) });
    let mut last = acc[LANES - 1];
    for &(xv, krow) in terms {
        let x = _mm512_set1_pd(xv);
        for (sum, &offset) in sums.iter_mut().zip(&offsets) {
            // SAFETY: every offset is a column `< krow.len()` (the
            // precondition), so each gathered entry is in `krow`.
            let k = unsafe { _mm512_i64gather_pd::<8>(offset, krow.as_ptr()) };
            *sum = _mm512_add_pd(*sum, _mm512_mul_pd(x, k));
        }
        // SAFETY: as above, for the last column.
        last += xv * unsafe { *krow.get_unchecked(cols[LANES - 1]) };
    }
    for (v, &sum) in sums.iter().enumerate() {
        // SAFETY: each store writes 8 of the `LANES` accumulator lanes.
        unsafe { _mm512_storeu_pd(acc.as_mut_ptr().add(8 * v), sum) };
    }
    acc[LANES - 1] = last;
}
