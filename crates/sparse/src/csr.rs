//! Compressed sparse row matrix.

use crate::lanes::{panels, store_lanes, with_lanes, Panel};
use mtrl_linalg::block::BlockSpec;
use mtrl_linalg::vecops::dots;
use mtrl_linalg::{Mat, Precision, Quantize};
use std::ops::Range;

/// Compressed sparse row (CSR) matrix of `f64`.
///
/// Invariants (maintained by all constructors):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing;
/// * `indices` / `values` have length `indptr[rows]`;
/// * within each row, column indices are strictly increasing;
/// * stored values may be zero only transiently (constructors drop
///   them) or after [`Quantize::quantize`], which keeps the pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics (debug and release) if the CSR invariants are violated —
    /// this is an internal constructor used by [`crate::Coo::to_csr`] and
    /// trusted transformation code.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr end");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr monotone");
            let cols_r = &indices[indptr[r]..indptr[r + 1]];
            for w in cols_r.windows(2) {
                assert!(w[0] < w[1], "row {r}: columns not strictly increasing");
            }
            if let Some(&last) = cols_r.last() {
                assert!(last < cols, "row {r}: column out of range");
            }
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty (all-zero) `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: vec![],
            values: vec![],
        }
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Convert a dense matrix, keeping entries with `|v| > threshold`.
    pub fn from_dense(m: &Mat, threshold: f64) -> Self {
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v.abs() > threshold {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows: m.rows(),
            cols: m.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Materialise as dense.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let dst = m.row_mut(i);
            for (&j, &v) in cols.iter().zip(vals) {
                dst[j] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.rows, "row index out of bounds");
        let span = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Entry lookup by binary search within the row — `O(log nnz_row)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse × dense product `self * B` — the workhorse for `R * G` and
    /// the engine's `L · G` when the Laplacian is kept sparse.
    ///
    /// Output rows are split across the [`mtrl_linalg::par`] pool above a
    /// work threshold; each row is an independent accumulation, so the
    /// result is bit-identical for every thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != b.rows()`.
    pub fn spmm_dense(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows(), "spmm_dense: dimension mismatch");
        let mut out = Mat::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut out, 0, 0);
        out
    }

    /// `self * B` written into a window of a larger matrix: rows
    /// `[row0, row0 + self.rows())` and columns
    /// `[col0, col0 + b.cols())` of `out`; every other entry of `out` is
    /// left as it is. With `B` one object type's packed block of a
    /// block-diagonal `G`, this is that type's share of `R·G` or `L·G`,
    /// in `c_k` lanes instead of `out.cols()`.
    ///
    /// Each output row takes one pass over its stored entries per panel
    /// of at most 32 columns, with the row held in a register
    /// accumulator; every entry sums `v · b[j]` over the row's entries
    /// in column order starting from `+0`, so the result is
    /// bit-identical to a scalar loop, NaN positions included. Rows split
    /// across the [`mtrl_linalg::par`] pool above a work threshold; each
    /// row is independent, so the result is bit-identical for every
    /// thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != b.rows()` or the window runs past `out`.
    pub fn spmm_into(&self, b: &Mat, out: &mut Mat, row0: usize, col0: usize) {
        assert_eq!(self.cols, b.rows(), "spmm_into: dimension mismatch");
        self.spmm_window(b.as_slice(), b.cols(), out, row0, col0);
    }

    /// The window product behind [`Self::spmm_into`] and
    /// [`crate::SparseBlockDiag::mul_dense`]: `rhs` holds `self.cols()`
    /// rows of stride `width` (a block's rows of a taller `B`, with no
    /// copy), and the product goes to `out[row0.., col0..col0 + width]`.
    pub(crate) fn spmm_window(
        &self,
        rhs: &[f64],
        width: usize,
        out: &mut Mat,
        row0: usize,
        col0: usize,
    ) {
        assert!(
            out.rows() >= row0 + self.rows && out.cols() >= col0 + width,
            "spmm: window past out"
        );
        let stride = out.cols();
        let span = &mut out.as_mut_slice()[row0 * stride..(row0 + self.rows) * stride];
        for (p0, w) in panels(width) {
            with_lanes!(
                w,
                Self::spmm_panel(self, rhs, width, span, stride, col0, p0, w)
            );
        }
    }

    /// Columns `[p0, p0 + w)` of `self * B` (`B` in `rhs`, row stride
    /// `width`) into columns `col0 + p0..` of the output rows `span`
    /// (row stride `stride`).
    #[allow(clippy::too_many_arguments)]
    fn spmm_panel<const W: usize>(
        &self,
        rhs: &[f64],
        width: usize,
        span: &mut [f64],
        stride: usize,
        col0: usize,
        p0: usize,
        w: usize,
    ) {
        let bp = Panel::<W>::new(rhs, self.cols, width, p0, w);
        let rows_into = |r0: usize, r1: usize, chunk: &mut [f64]| {
            for (local, i) in (r0..r1).enumerate() {
                let (cols, vals) = self.row(i);
                let mut acc = [0.0; W];
                for (&j, &v) in cols.iter().zip(vals) {
                    for (o, &bv) in acc.iter_mut().zip(bp.row(j)) {
                        *o += v * bv;
                    }
                }
                store_lanes(acc, &mut chunk[local * stride + col0 + p0..][..w]);
            }
        };
        // nnz * w multiply-adds.
        if mtrl_linalg::par::threads_for(self.nnz() * w) == 1 {
            rows_into(0, self.rows, span);
        } else {
            mtrl_linalg::par::par_row_chunks(span, self.rows, stride, rows_into);
        }
    }

    /// `self` cut into blocks by a row layout and a column layout:
    /// block `[k][l]` holds the stored entries in rows `rows.range(k)`
    /// and columns `cols.range(l)`, both renumbered from 0, in the same
    /// order. For `R` cut by object type, `R·G` with a block-diagonal `G`
    /// is, per block, `R_kl` times `G`'s packed block `l`, written into
    /// type `k`'s rows and type `l`'s cluster columns
    /// ([`Self::spmm_into`]); an empty block contributes nothing.
    ///
    /// # Panics
    /// Panics if the layouts do not cover `self`'s shape.
    pub fn split_blocks(&self, rows: &BlockSpec, cols: &BlockSpec) -> Vec<Vec<Csr>> {
        assert_eq!(rows.total(), self.rows, "split_blocks: row layout mismatch");
        assert_eq!(
            cols.total(),
            self.cols,
            "split_blocks: column layout mismatch"
        );
        (0..rows.num_blocks())
            .map(|k| {
                (0..cols.num_blocks())
                    .map(|l| {
                        let range = cols.range(l);
                        let (mut indptr, mut indices, mut values) =
                            (vec![0], Vec::new(), Vec::new());
                        for i in rows.range(k) {
                            let (idx, vals) = self.row(i);
                            for (&j, &v) in idx.iter().zip(vals) {
                                if range.contains(&j) {
                                    indices.push(j - range.start);
                                    values.push(v);
                                }
                            }
                            indptr.push(indices.len());
                        }
                        Csr::from_raw_parts(rows.size(k), range.len(), indptr, indices, values)
                    })
                    .collect()
            })
            .collect()
    }

    /// Quadratic form `tr(Gᵀ A G) = Σ_{(i,j) ∈ nnz(A)} A_ij · (g_i · g_j)`
    /// without materialising `A·G` — `O(nnz · c)`.
    ///
    /// Accumulated serially in row-major entry order so the value is
    /// deterministic.
    ///
    /// # Panics
    /// Panics if `self` is not square or `g.rows() != self.rows`.
    pub fn quad_form(&self, g: &Mat) -> f64 {
        assert_eq!(g.rows(), self.rows, "quad_form: dimension mismatch");
        self.quad_form_at(g, 0, 0..g.cols())
    }

    /// [`Self::quad_form`] against the rows `[offset, offset + n)` of a
    /// taller stacked `G`, whose entries in those rows are zero outside
    /// the columns `cols` — the per-block step of
    /// [`crate::SparseBlockDiag::trace_quad`], where `cols` is the
    /// block's type's cluster columns.
    ///
    /// When `G` is finite in the window, each `g_i · g_j` runs over
    /// `cols` only: the terms outside have an exact-zero factor and a
    /// finite one, so they are `±0`, and dropping them can change the
    /// dot product only in the sign of a zero result, which
    /// `acc += v · dot` cannot see (a `+0`-started sum never becomes
    /// `-0`, and a non-finite `v` gives NaN either way). Otherwise every
    /// column is used. The dot products of a row's entries are computed
    /// four at a time ([`mtrl_linalg::vecops::dots`]), each still summed
    /// in column order, and added to `acc` in entry order.
    ///
    /// # Panics
    /// Panics if `self` is not square, `g` has fewer than
    /// `offset + rows` rows, or `cols` runs past `g`.
    pub(crate) fn quad_form_at(&self, g: &Mat, offset: usize, cols: Range<usize>) -> f64 {
        assert_eq!(self.rows, self.cols, "quad_form requires square");
        assert!(
            g.rows() >= offset + self.rows,
            "quad_form_at: G ends before the block does"
        );
        assert!(cols.end <= g.cols(), "quad_form_at: window past G");
        let finite = (offset..offset + self.rows)
            .all(|i| g.row(i)[cols.clone()].iter().all(|v| v.is_finite()));
        let window = if finite { cols } else { 0..g.cols() };
        let row = |j: usize| &g.row(offset + j)[window.clone()];
        let mut acc = 0.0;
        for i in 0..self.rows {
            let (idx, vals) = self.row(i);
            let gi = row(i);
            let mut quads = idx.chunks_exact(4);
            let mut vq = vals.chunks_exact(4);
            for (js, vs) in (&mut quads).zip(&mut vq) {
                let d = dots(gi, [row(js[0]), row(js[1]), row(js[2]), row(js[3])]);
                for (&v, &dot) in vs.iter().zip(&d) {
                    acc += v * dot;
                }
            }
            for (&j, &v) in quads.remainder().iter().zip(vq.remainder()) {
                acc += v * dots(gi, [row(j)])[0];
            }
        }
        acc
    }

    /// Linear combination `alpha * self + beta * other` with merged
    /// sparsity patterns. Entries that combine to exactly zero are
    /// dropped (keeps the no-stored-zeros invariant).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn lin_comb(&self, alpha: f64, other: &Csr, beta: f64) -> Csr {
        assert_eq!(self.shape(), other.shape(), "lin_comb: shape mismatch");
        let mut out = CsrBuilder::with_capacity(self.rows, self.cols, self.nnz().max(other.nnz()));
        for i in 0..self.rows {
            let (ca, va) = self.row(i);
            let (cb, vb) = other.row(i);
            let (mut p, mut q) = (0, 0);
            while p < ca.len() || q < cb.len() {
                if q >= cb.len() || (p < ca.len() && ca[p] < cb[q]) {
                    out.push(ca[p], alpha * va[p]);
                    p += 1;
                } else if p >= ca.len() || cb[q] < ca[p] {
                    out.push(cb[q], beta * vb[q]);
                    q += 1;
                } else {
                    out.push(ca[p], alpha * va[p] + beta * vb[q]);
                    p += 1;
                    q += 1;
                }
            }
            out.finish_row();
        }
        out.build()
    }

    /// Positive/negative part split `A = A⁺ − A⁻` with `A⁺, A⁻ ≥ 0` —
    /// what the multiplicative update of Eq. (21) needs from a Laplacian.
    pub fn split_parts(&self) -> (Csr, Csr) {
        let mut pos = CsrBuilder::new(self.rows, self.cols);
        let mut neg = CsrBuilder::new(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if v > 0.0 {
                    pos.push(j, v);
                } else if v < 0.0 {
                    neg.push(j, -v);
                }
            }
            pos.finish_row();
            neg.finish_row();
        }
        (pos.build(), neg.build())
    }

    /// Copy with every stored value scaled; exact zeros (from `s == 0`)
    /// are dropped.
    pub fn scaled(&self, s: f64) -> Csr {
        if s == 0.0 {
            return Csr::zeros(self.rows, self.cols);
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.iter().map(|&v| v * s).collect(),
        }
    }

    /// Transpose (CSR → CSR of the transpose) in `O(nnz + rows + cols)`.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for c in 0..self.cols {
            counts[c + 1] += counts[c];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let pos = next[j];
                indices[pos] = i;
                values[pos] = v;
                next[j] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).1.iter().sum()).collect()
    }

    /// Stack `other` below `self` — the streaming-ingest primitive: an
    /// accumulated relation matrix grows by a batch of new object rows
    /// in `O(nnz)` copying without touching existing entries.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Csr) -> Csr {
        assert_eq!(self.cols, other.cols, "vstack: column count mismatch");
        let mut indptr = Vec::with_capacity(self.rows + other.rows + 1);
        indptr.extend_from_slice(&self.indptr);
        let base = self.nnz();
        indptr.extend(other.indptr[1..].iter().map(|&p| base + p));
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        indices.extend_from_slice(&self.indices);
        indices.extend_from_slice(&other.indices);
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Csr {
            rows: self.rows + other.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Build from per-row `(indices, values)` pairs with strictly
    /// increasing column indices (the layout sparse feature rows arrive
    /// in from a stream); exact zeros are dropped.
    ///
    /// # Panics
    /// Panics if a row's lengths differ, columns are out of range or not
    /// strictly increasing (via the builder's invariant check).
    pub fn from_sparse_rows(rows: &[(Vec<usize>, Vec<f64>)], cols: usize) -> Csr {
        let nnz = rows.iter().map(|(idx, _)| idx.len()).sum();
        let mut b = CsrBuilder::with_capacity(rows.len(), cols, nnz);
        for (idx, vals) in rows {
            assert_eq!(idx.len(), vals.len(), "row index/value length mismatch");
            for (&j, &v) in idx.iter().zip(vals) {
                b.push(j, v);
            }
            b.finish_row();
        }
        b.build()
    }

    /// Elementwise maximum with the transpose: `max(A, Aᵀ)` — the standard
    /// symmetrisation of a pNN graph (Eq. 3's "or" rule: an edge exists if
    /// either endpoint selects the other).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn max_symmetrize(&self) -> Csr {
        assert_eq!(self.rows, self.cols, "max_symmetrize requires square");
        let t = self.transpose();
        let mut builder = CsrBuilder::with_capacity(self.rows, self.cols, self.nnz() * 2);
        for i in 0..self.rows {
            let (ca, va) = self.row(i);
            let (cb, vb) = t.row(i);
            // Merge two sorted runs taking elementwise max.
            let (mut p, mut q) = (0, 0);
            while p < ca.len() || q < cb.len() {
                if q >= cb.len() || (p < ca.len() && ca[p] < cb[q]) {
                    builder.push(ca[p], va[p]);
                    p += 1;
                } else if p >= ca.len() || cb[q] < ca[p] {
                    builder.push(cb[q], vb[q]);
                    q += 1;
                } else {
                    builder.push(ca[p], va[p].max(vb[q]));
                    p += 1;
                    q += 1;
                }
            }
            builder.finish_row();
        }
        builder.build()
    }

    /// `true` if `self` equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            // Different sparsity patterns can still be numerically
            // symmetric if the asymmetric entries are < tol; fall back to
            // a value-level comparison.
            for i in 0..self.rows {
                let (cols, vals) = self.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    if (v - t.get(i, j)).abs() > tol {
                        return false;
                    }
                }
                let (tcols, tvals) = t.row(i);
                for (&j, &v) in tcols.iter().zip(tvals) {
                    if (v - self.get(i, j)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Iterate over all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }
}

impl Quantize for Csr {
    /// Round the stored values in place. The sparsity pattern is kept:
    /// an entry that underflows to zero stays stored.
    fn quantize(&mut self, precision: Precision) {
        precision.quantize_in_place(&mut self.values);
    }
}

/// Row-ordered CSR assembly for code that visits rows in order with
/// strictly increasing columns (cheaper than a [`crate::Coo`] round-trip:
/// no sort, no duplicate merge). Exact zeros are dropped on `push`, so
/// built matrices keep the no-stored-zeros invariant — this is the one
/// assembly path shared by `lin_comb`, `split_parts`, `max_symmetrize`,
/// `mtrl-graph`'s Laplacian and pNN construction and `mtrl-datagen`'s
/// corpus generator.
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Start an empty `rows x cols` assembly positioned at row 0.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_capacity(rows, cols, 0)
    }

    /// [`Self::new`] with entry capacity pre-reserved.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        CsrBuilder {
            rows,
            cols,
            indptr,
            indices: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Append an entry to the current row; exact zeros are skipped.
    /// Columns must arrive in strictly increasing order per row
    /// (enforced by `build`).
    pub fn push(&mut self, j: usize, v: f64) {
        if v != 0.0 {
            self.indices.push(j);
            self.values.push(v);
        }
    }

    /// Close the current row.
    pub fn finish_row(&mut self) {
        self.indptr.push(self.indices.len());
    }

    /// Finalise, checking every CSR invariant. Storage reserved beyond
    /// the pushed entries is released.
    ///
    /// # Panics
    /// Panics if fewer/more than `rows` rows were finished or columns
    /// were not strictly increasing within a row.
    pub fn build(mut self) -> Csr {
        self.indices.shrink_to_fit();
        self.values.shrink_to_fit();
        Csr::from_raw_parts(self.rows, self.cols, self.indptr, self.indices, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::oracle::{awkward, block_rows, same_bits, typed_rows};
    use crate::Coo;
    use mtrl_linalg::block::BlockSpec;
    use mtrl_linalg::ops::matmul;
    use mtrl_linalg::random::rand_uniform;
    use proptest::prelude::*;
    use std::borrow::Cow;

    /// The scalar loop the register SpMM replaced: rows of `out`
    /// starting at zero, updated in memory once per stored entry.
    fn spmm_oracle(a: &Csr, b: &Mat) -> Mat {
        let n = b.cols();
        let mut out = Mat::zeros(a.rows(), n);
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (&j, &v) in cols.iter().zip(vals) {
                for (o, &bv) in orow.iter_mut().zip(b.row(j)) {
                    *o += v * bv;
                }
            }
        }
        out
    }

    /// The full-width dot products [`Csr::quad_form`] replaced.
    fn quad_form_oracle(a: &Csr, g: &Mat) -> f64 {
        let mut acc = 0.0;
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let dot: f64 = g.row(i).iter().zip(g.row(j)).map(|(x, y)| x * y).sum();
                acc += v * dot;
            }
        }
        acc
    }

    /// A square pattern with empty rows and stored values drawn from
    /// [`awkward`] (exact zeros, `-0.0`, and with `specials` NaN/±∞).
    fn awkward_csr(n: usize, density: f64, seed: u64, specials: bool) -> Csr {
        let mask = rand_uniform(n, n, 0.0, 1.0, seed);
        let vals = awkward(n * n, seed + 1, specials);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..n {
            for j in 0..n {
                if i % 6 != 5 && mask[(i, j)] < density {
                    indices.push(j);
                    values.push(vals[i * n + j]);
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_raw_parts(n, n, indptr, indices, values)
    }

    #[test]
    fn register_spmm_and_quad_form_match_their_oracles_at_every_width() {
        // Widths 1..=70 cross every accumulator size and the multi-pass
        // widths; NaN/±∞ sit in R (the SpMM's stored values) and the
        // quad form's A, exact zeros and -0.0 in both operands.
        for w in 1..=70usize {
            let seed = 300 + w as u64;
            let r = awkward_csr(37, 0.3, seed, true);
            let g = Mat::from_vec(37, w, block_rows(37, w, seed)).unwrap();
            let dense = Mat::from_vec(37, w, awkward(37 * w, seed + 2, true)).unwrap();
            for b in [&g, &dense] {
                let fast = r.spmm_dense(b);
                assert!(
                    same_bits(fast.as_slice(), spmm_oracle(&r, b).as_slice()),
                    "w={w}"
                );
            }
            let q = r.quad_form(&g);
            let expect = quad_form_oracle(&r, &g);
            assert!(same_bits(&[q], &[expect]), "quad w={w}: {q} vs {expect}");
            let a = awkward_csr(37, 0.3, seed + 3, false);
            for b in [&g, &dense] {
                let (q, expect) = (a.quad_form(b), quad_form_oracle(&a, b));
                assert!(same_bits(&[q], &[expect]), "quad w={w}: {q} vs {expect}");
            }
        }
    }

    #[test]
    fn register_spmm_matches_its_oracle_across_threads_and_blocks() {
        // Above the parallel threshold, so 4 threads take the fan-out.
        let r = awkward_csr(600, 0.15, 77, true);
        let g = Mat::from_vec(600, 40, block_rows(600, 40, 78)).unwrap();
        assert!(r.nnz() * 32 >= (1 << 20));
        let expect = spmm_oracle(&r, &g);
        let before = mtrl_linalg::par::num_threads();
        for threads in [1usize, 4] {
            mtrl_linalg::par::set_num_threads(threads);
            assert!(
                same_bits(r.spmm_dense(&g).as_slice(), expect.as_slice()),
                "t={threads}"
            );
        }
        mtrl_linalg::par::set_num_threads(before);
        // A block writes only its own rows, against its own rows of a
        // taller G (the block step of `SparseBlockDiag::mul_dense`), and
        // `spmm_into` only its window.
        let blocks = [
            awkward_csr(11, 0.4, 79, true),
            awkward_csr(7, 0.5, 80, true),
        ];
        let tall = Mat::from_vec(18, 23, block_rows(18, 23, 81)).unwrap();
        let mut out = Mat::filled(18, 23, 9.0);
        blocks[1].spmm_window(&tall.as_slice()[11 * 23..], 23, &mut out, 11, 0);
        let sub = Mat::from_vec(7, 23, tall.as_slice()[11 * 23..].to_vec()).unwrap();
        let expect = spmm_oracle(&blocks[1], &sub);
        assert!(same_bits(&out.as_slice()[11 * 23..], expect.as_slice()));
        assert!(out.as_slice()[..11 * 23].iter().all(|&v| v == 9.0));
        let narrow = Mat::from_vec(7, 5, awkward(35, 82, true)).unwrap();
        let mut out = Mat::filled(18, 23, 9.0);
        blocks[1].spmm_into(&narrow, &mut out, 11, 4);
        let expect = spmm_oracle(&blocks[1], &narrow);
        for i in 0..18 {
            for j in 0..23 {
                let v = out[(i, j)];
                if (11..18).contains(&i) && (4..9).contains(&j) {
                    assert!(same_bits(&[v], &[expect[(i - 11, j - 4)]]), "({i},{j})");
                } else {
                    assert_eq!(v, 9.0, "({i},{j}) written");
                }
            }
        }
    }

    #[test]
    fn typed_spmm_matches_spmm_dense() {
        // R·G for a type-blocked G as the engine runs it: R cut into
        // type blocks, each nonempty block times G's packed own block of
        // its column type, written into its rows and that type's cluster
        // columns; the rest of the output stays +0. Layouts with a one-cluster
        // type, a one-object type and a type whose R rows are empty (every
        // sixth row of `awkward_csr`, and in the last layout a whole
        // type); R carries -0.0 and exact zeros, and type-self entries
        // (nothing restricts R's pattern here). F32-quantised operands;
        // 1 and 4 threads with R above the parallel threshold.
        let before = mtrl_linalg::par::num_threads();
        for (li, (sizes, clusters)) in [
            (&[13usize, 1, 9][..], &[3usize, 15, 4][..]),
            (&[230, 1, 300][..], &[1, 33, 7][..]),
            (&[6, 5][..], &[2, 3][..]),
        ]
        .into_iter()
        .enumerate()
        {
            let (types, cl) = (
                BlockSpec::from_sizes(sizes),
                BlockSpec::from_sizes(clusters),
            );
            let n = types.total();
            let (gv, c) = typed_rows(sizes, clusters, 90 + li as u64);
            let mut r = awkward_csr(n, if n > 100 { 0.5 } else { 0.3 }, 91 + li as u64, false);
            if li == 2 {
                // The second type has no relations at all.
                let dense = r.to_dense();
                let mut cut = Mat::zeros(n, n);
                for i in 0..6 {
                    for j in 0..6 {
                        cut[(i, j)] = dense[(i, j)];
                    }
                }
                r = Csr::from_dense(&cut, 0.0);
            }
            for prec in [Precision::F64, Precision::F32] {
                let mut g = Mat::from_vec(n, c, gv.clone()).unwrap();
                g.quantize(prec);
                let r_q = prec.quantized(&r);
                let split = r_q.split_blocks(&types, &types);
                let packed: Vec<Mat> = (0..types.num_blocks())
                    .map(|k| {
                        let (rows, cols) = (types.range(k), cl.range(k));
                        let data = rows.flat_map(|i| g.row(i)[cols.clone()].to_vec()).collect();
                        Mat::from_vec(sizes[k], clusters[k], data).unwrap()
                    })
                    .collect();
                for threads in [1usize, 4] {
                    mtrl_linalg::par::set_num_threads(threads);
                    let mut out = Mat::zeros(n, c);
                    for (k, row_blocks) in split.iter().enumerate() {
                        for (l, r_kl) in row_blocks.iter().enumerate() {
                            if r_kl.nnz() > 0 {
                                r_kl.spmm_into(&packed[l], &mut out, types.offset(k), cl.offset(l));
                            }
                        }
                    }
                    let expect = r_q.spmm_dense(&g);
                    assert!(
                        same_bits(out.as_slice(), expect.as_slice()),
                        "layout {li} {prec:?} t={threads}"
                    );
                }
            }
            if li == 1 {
                assert!(
                    r.nnz() * c >= 1 << 20,
                    "the parallel branch is not exercised"
                );
            }
        }
        mtrl_linalg::par::set_num_threads(before);
    }

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Csr {
        let dense = rand_uniform(rows, cols, -1.0, 1.0, seed);
        let mask = rand_uniform(rows, cols, 0.0, 1.0, seed + 1);
        let mut c = Coo::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if mask[(i, j)] < density {
                    c.push(i, j, dense[(i, j)]);
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn dense_roundtrip() {
        let m = rand_uniform(9, 7, -1.0, 1.0, 50);
        let s = Csr::from_dense(&m, 0.0);
        assert!(s.to_dense().approx_eq(&m, 0.0));
        assert_eq!(s.nnz(), 63);
    }

    #[test]
    fn from_dense_thresholds() {
        let m = Mat::from_vec(1, 3, vec![0.05, -0.5, 0.0]).unwrap();
        let s = Csr::from_dense(&m, 0.1);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(0, 1), -0.5);
    }

    #[test]
    fn spmm_dense_matches_dense() {
        let s = random_sparse(12, 10, 0.4, 52);
        let b = rand_uniform(10, 6, -1.0, 1.0, 53);
        let fast = s.spmm_dense(&b);
        let slow = matmul(&s.to_dense(), &b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn transpose_roundtrip() {
        let s = random_sparse(8, 13, 0.35, 54);
        let tt = s.transpose().transpose();
        assert_eq!(s, tt);
        assert!(s
            .transpose()
            .to_dense()
            .approx_eq(&s.to_dense().transpose(), 0.0));
    }

    #[test]
    fn sums() {
        let mut c = Coo::new(2, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 1, 4.0);
        let s = c.to_csr();
        assert_eq!(s.row_sums(), vec![3.0, 4.0]);
    }

    #[test]
    fn max_symmetrize_properties() {
        let s = random_sparse(10, 10, 0.2, 55);
        // Make values nonnegative (graph weights).
        let mut c = Coo::new(10, 10);
        for (i, j, v) in s.iter() {
            c.push(i, j, v.abs());
        }
        let g = c.to_csr();
        let sym = g.max_symmetrize();
        assert!(sym.is_symmetric(1e-12));
        // Every original edge survives with weight >= original.
        for (i, j, v) in g.iter() {
            assert!(sym.get(i, j) >= v - 1e-15);
            assert!(sym.get(j, i) >= v - 1e-15);
        }
    }

    /// The triplet assembly `max_symmetrize` replaced: the same merge,
    /// pushed into a `Coo` and sorted on finish.
    fn max_symmetrize_coo(a: &Csr) -> Csr {
        let t = a.transpose();
        let mut coo = Coo::with_capacity(a.rows(), a.cols(), a.nnz() * 2);
        for i in 0..a.rows() {
            let (ca, va) = a.row(i);
            let (cb, vb) = t.row(i);
            let (mut p, mut q) = (0, 0);
            while p < ca.len() || q < cb.len() {
                if q >= cb.len() || (p < ca.len() && ca[p] < cb[q]) {
                    coo.push(i, ca[p], va[p]);
                    p += 1;
                } else if p >= ca.len() || cb[q] < ca[p] {
                    coo.push(i, cb[q], vb[q]);
                    q += 1;
                } else {
                    coo.push(i, ca[p], va[p].max(vb[q]));
                    p += 1;
                    q += 1;
                }
            }
        }
        coo.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn max_symmetrize_matches_coo_assembly(
            n in 0usize..40,
            density in 0.0f64..1.0,
            seed in any::<u64>()
        ) {
            let mut a = random_sparse(n, n, density, seed);
            // A symmetric input makes every entry tie with its mirror.
            if seed.is_multiple_of(2) {
                a = a.lin_comb(1.0, &a.transpose(), 1.0);
            }
            let (fast, slow) = (a.max_symmetrize(), max_symmetrize_coo(&a));
            prop_assert_eq!(&fast, &slow);
            prop_assert!(fast.values.iter().zip(&slow.values).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn is_symmetric_negative_case() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0);
        assert!(!c.to_csr().is_symmetric(1e-12));
        let mut c2 = Coo::new(2, 2);
        c2.push(0, 1, 1.0);
        c2.push(1, 0, 1.0);
        assert!(c2.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn iter_yields_all_triplets() {
        let s = random_sparse(6, 6, 0.5, 56);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected.len(), s.nnz());
        for (i, j, v) in collected {
            assert_eq!(s.get(i, j), v);
        }
    }

    #[test]
    fn get_missing_is_zero() {
        let s = Csr::zeros(3, 3);
        assert_eq!(s.get(2, 2), 0.0);
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "columns not strictly increasing")]
    fn invariant_violation_panics() {
        Csr::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn vstack_matches_dense_stack() {
        let a = random_sparse(5, 7, 0.4, 70);
        let b = random_sparse(3, 7, 0.6, 71);
        let stacked = a.vstack(&b);
        assert_eq!(stacked.shape(), (8, 7));
        let expect = a.to_dense().vstack(&b.to_dense()).unwrap();
        assert!(stacked.to_dense().approx_eq(&expect, 0.0));
        // Empty sides are fine.
        assert_eq!(a.vstack(&Csr::zeros(0, 7)), a);
        assert_eq!(Csr::zeros(0, 7).vstack(&a), a);
    }

    #[test]
    fn from_sparse_rows_roundtrip() {
        let rows = vec![
            (vec![1usize, 4], vec![0.5, -2.0]),
            (vec![], vec![]),
            (vec![0, 2, 5], vec![1.0, 0.0, 3.0]), // exact zero dropped
        ];
        let s = Csr::from_sparse_rows(&rows, 6);
        assert_eq!(s.shape(), (3, 6));
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.get(0, 4), -2.0);
        assert_eq!(s.get(2, 2), 0.0);
        assert_eq!(s.get(2, 5), 3.0);
    }

    #[test]
    fn spmm_dense_matches_serial_across_threads() {
        // Workload chosen above the 1<<20 nnz·cols threshold so the
        // thread sweep genuinely exercises the par_row_chunks branch.
        let s = random_sparse(600, 500, 0.4, 57);
        let b = rand_uniform(500, 12, -1.0, 1.0, 58);
        assert!(
            s.nnz() * b.cols() >= (1 << 20),
            "workload fell below the parallel threshold ({} entries)",
            s.nnz()
        );
        let dense = matmul(&s.to_dense(), &b).unwrap();
        let before = mtrl_linalg::par::num_threads();
        for threads in [1usize, 3, 8] {
            mtrl_linalg::par::set_num_threads(threads);
            let fast = s.spmm_dense(&b);
            assert!(fast.approx_eq(&dense, 1e-10), "threads={threads}");
        }
        mtrl_linalg::par::set_num_threads(before);
    }

    #[test]
    fn quad_form_matches_dense_trace() {
        let s = random_sparse(25, 25, 0.3, 59);
        let g = rand_uniform(25, 4, -1.0, 1.0, 60);
        let fast = s.quad_form(&g);
        let lg = matmul(&s.to_dense(), &g).unwrap();
        let slow: f64 = lg
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
    }

    #[test]
    fn lin_comb_merges_patterns() {
        let a = random_sparse(15, 15, 0.2, 61);
        let b = random_sparse(15, 15, 0.25, 62);
        let c = a.lin_comb(2.0, &b, -0.5);
        let expect = a
            .to_dense()
            .scaled(2.0)
            .add(&b.to_dense().scaled(-0.5))
            .unwrap();
        assert!(c.to_dense().approx_eq(&expect, 1e-12));
        // Exact cancellation drops the entry.
        let z = a.lin_comb(1.0, &a, -1.0);
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn split_parts_reconstruct() {
        let s = random_sparse(20, 20, 0.3, 63);
        let (p, n) = s.split_parts();
        assert!(p.values.iter().all(|&v| v > 0.0));
        assert!(n.values.iter().all(|&v| v > 0.0));
        let rec = p.lin_comb(1.0, &n, -1.0);
        assert!(rec.to_dense().approx_eq(&s.to_dense(), 0.0));
    }

    #[test]
    fn scaled_and_zero_scale() {
        let s = random_sparse(10, 10, 0.3, 64);
        let twice = s.scaled(2.0);
        assert!(twice.to_dense().approx_eq(&s.to_dense().scaled(2.0), 0.0));
        assert_eq!(s.scaled(0.0).nnz(), 0);
    }

    #[test]
    fn quantize_keeps_the_pattern_and_an_underflowing_entry() {
        let s = Csr::from_raw_parts(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            vec![1.0 / 3.0, 1e-300, -0.1],
        );
        assert!(matches!(Precision::F64.quantized(&s), Cow::Borrowed(_)));
        let q = Precision::F32.quantized(&s);
        assert_eq!(q.shape(), s.shape());
        assert_eq!(q.nnz(), 3, "the underflowing entry stays stored");
        assert_eq!(q.row(0).0, &[0, 2]);
        assert_eq!(q.row(0).1[1].to_bits(), 0.0f64.to_bits());
        for ((i, j, a), (i2, j2, b)) in q.iter().zip(s.iter()) {
            assert_eq!((i, j), (i2, j2));
            assert_eq!(a.to_bits(), (b as f32 as f64).to_bits());
        }
    }
}
