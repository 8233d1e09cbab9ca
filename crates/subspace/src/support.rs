//! The candidate support of the restricted SPG iterate and its product
//! with the Gram matrix, the solver's one `O(n·K′²)` kernel.
//!
//! `mtrl-bench`'s `micro_subspace` compiles this same file (`#[path]`)
//! to time the product alone, so the kernel is benched without becoming
//! public API.

use mtrl_linalg::par::{num_threads, par_row_chunks};
use mtrl_linalg::Mat;

/// Candidates per object: row `i` of `W` is supported on the
/// `min(CANDIDATES, n − 1)` objects with the largest inner products with
/// object `i` (see the `spg` module docs).
pub const CANDIDATES: usize = 64;

/// Accumulator lanes of the support product: the widest support row,
/// the candidates plus the diagonal slot.
const LANES: usize = CANDIDATES + 1;

/// Work (`n·(K′+1)²` multiply-adds) above which the support product
/// splits rows across threads.
const PAR_WORK: usize = 1 << 20;

/// Row supports of the restricted iterate, `width` columns per row in
/// ascending order: the candidates of object `i` plus `i` itself, whose
/// slot the projection holds at zero.
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

    pub(crate) fn row(&self, i: usize) -> &[usize] {
        &self.cols[i * self.width..(i + 1) * self.width]
    }
}

/// `out = X·K` on the support: `out_i[a] = Σ_b x_i[b] · K[S_i[b], S_i[a]]`,
/// skipping zero coefficients — row `i` of the dense product read at
/// `S_i`, for `X` supported on `S`. `O(n·width²)`.
///
/// One pass per row: the row accumulates in a local `LANES`-wide array,
/// which nothing else aliases, and each term's Gram entries are gathered
/// straight into the multiply-add, so the inner loop vectorises into
/// gathers with no scratch row and no bounds check. Every entry sums its
/// terms over ascending `b`, exactly as a scalar loop over the row
/// would, so the result does not depend on the thread count.
pub(crate) fn support_product(k: &Mat, support: &Support, x: &Mat, out: &mut Mat) {
    let (n, width) = (x.rows(), support.width);
    let stride = k.cols();
    let rows = |r0: usize, r1: usize, chunk: &mut [f64]| {
        for (orow, i) in chunk.chunks_exact_mut(width).zip(r0..r1) {
            let cols = support.row(i);
            // Support rows ascend, so this bounds every column of the row.
            assert!(cols[width - 1] < stride, "support column outside the Gram");
            let mut acc = [0.0; LANES];
            for (&xv, &l) in x.row(i).iter().zip(cols) {
                if xv == 0.0 {
                    continue;
                }
                let krow = k.row(l);
                for (o, &j) in acc[..width].iter_mut().zip(cols) {
                    // SAFETY: `krow` has `stride` entries and every `j` is
                    // a column of this ascending support row, so at most
                    // `cols[width − 1] < stride` (checked above).
                    *o += xv * unsafe { *krow.get_unchecked(j) };
                }
            }
            orow.copy_from_slice(&acc[..width]);
        }
    };
    if n * width * width < PAR_WORK || num_threads() == 1 {
        rows(0, n, out.as_mut_slice());
    } else {
        par_row_chunks(out.as_mut_slice(), n, width, rows);
    }
}
