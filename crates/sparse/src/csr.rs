//! Compressed sparse row matrix.

use crate::lanes::{panels, store_lanes, with_lanes, Panel};
use mtrl_linalg::{Mat, Precision, Quantize};

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

    /// Sparse matrix × dense vector.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            *yi = cols.iter().zip(vals).map(|(&j, &v)| v * x[j]).sum();
        }
        y
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
        self.spmm_dense_at(b, 0, &mut out);
        out
    }

    /// [`Self::spmm_dense`] as one diagonal block of a stacked operator:
    /// multiplies against rows `[offset, offset + cols)` of `b` and
    /// writes rows `[offset, offset + rows)` of `out` — the per-block
    /// step of [`crate::SparseBlockDiag::mul_dense`], with no submatrix
    /// copies. Rows of `out` outside the block are left as they are.
    ///
    /// Each output row takes one pass over its stored entries per panel
    /// of at most 32 columns, with the row held in a register
    /// accumulator; every entry sums `v · b[j]` over the row's entries
    /// in column order starting from `+0`, so the result is
    /// bit-identical to a scalar loop, NaN positions included.
    ///
    /// # Panics
    /// Panics if either matrix ends before the block does or the column
    /// counts differ.
    pub fn spmm_dense_at(&self, b: &Mat, offset: usize, out: &mut Mat) {
        assert!(
            b.rows() >= offset + self.cols,
            "spmm_dense_at: B ends before the block does"
        );
        assert!(
            out.rows() >= offset + self.rows,
            "spmm_dense_at: out ends before the block does"
        );
        assert_eq!(b.cols(), out.cols(), "spmm_dense_at: column mismatch");
        let n = b.cols();
        let span = &mut out.as_mut_slice()[offset * n..(offset + self.rows) * n];
        let rhs = &b.as_slice()[offset * n..];
        for (p0, w) in panels(n) {
            with_lanes!(w, Self::spmm_panel(self, rhs, span, n, p0, w));
        }
    }

    /// Columns `[p0, p0 + w)` of `self * B` into the block rows `span`,
    /// where `rhs` holds `B`'s rows from the block's first on, both with
    /// row stride `n`. Rows split across the [`mtrl_linalg::par`] pool
    /// above a work threshold; each row is independent, so the result is
    /// bit-identical for every thread count.
    fn spmm_panel<const W: usize>(
        &self,
        rhs: &[f64],
        span: &mut [f64],
        n: usize,
        p0: usize,
        w: usize,
    ) {
        let bp = Panel::<W>::new(rhs, self.cols, n, p0, w);
        let rows_into = |r0: usize, r1: usize, chunk: &mut [f64]| {
            for (local, i) in (r0..r1).enumerate() {
                let (cols, vals) = self.row(i);
                let mut acc = [0.0; W];
                for (&j, &v) in cols.iter().zip(vals) {
                    for (o, &bv) in acc.iter_mut().zip(bp.row(j)) {
                        *o += v * bv;
                    }
                }
                store_lanes(acc, &mut chunk[local * n + p0..][..w]);
            }
        };
        // nnz * w multiply-adds; below ~1M the row fan-out costs more
        // than it saves.
        if self.nnz() * w < (1 << 20) {
            rows_into(0, self.rows, span);
        } else {
            mtrl_linalg::par::par_row_chunks(span, self.rows, n, rows_into);
        }
    }

    /// Alias of [`Self::spmm_dense`] kept for the original API name.
    pub fn mul_dense(&self, b: &Mat) -> Mat {
        self.spmm_dense(b)
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
        self.quad_form_at(g, 0)
    }

    /// [`Self::quad_form`] against the rows `[offset, offset + n)` of a
    /// taller stacked `G` — the per-block step of
    /// [`crate::SparseBlockDiag::trace_quad`], shared here so both
    /// `tr(GᵀLG)` paths use one accumulation.
    ///
    /// # Panics
    /// Panics if `self` is not square or `g` has fewer than
    /// `offset + rows` rows.
    pub fn quad_form_at(&self, g: &Mat, offset: usize) -> f64 {
        assert_eq!(self.rows, self.cols, "quad_form requires square");
        assert!(
            g.rows() >= offset + self.rows,
            "quad_form_at: G ends before the block does"
        );
        // Over a finite G, the terms of g_i · g_j outside g_i's nonzero
        // span have an exact-zero factor and a finite one: they are ±0,
        // and dropping them can change the dot product only in the sign
        // of a zero result, which `acc += v · dot` cannot see (a
        // +0-started sum never becomes -0, and a non-finite v gives NaN
        // either way).
        let rows = &g.as_slice()[offset * g.cols()..(offset + self.rows) * g.cols()];
        let finite = rows.iter().all(|v| v.is_finite());
        let mut acc = 0.0;
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let gi = g.row(offset + i);
            let (lo, hi) = if finite {
                nonzero_span(gi)
            } else {
                (0, gi.len())
            };
            let gi = &gi[lo..hi];
            for (&j, &v) in cols.iter().zip(vals) {
                let gj = &g.row(offset + j)[lo..hi];
                let dot: f64 = gi.iter().zip(gj).map(|(a, b)| a * b).sum();
                acc += v * dot;
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

    /// Column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                s[j] += v;
            }
        }
        s
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Scale every stored value in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Drop stored entries with `|v| <= tol`, compacting storage.
    pub fn prune(&self, tol: f64) -> Csr {
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if v.abs() > tol {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
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
        let mut builder = crate::Coo::with_capacity(self.rows, self.cols, self.nnz() * 2);
        for i in 0..self.rows {
            let (ca, va) = self.row(i);
            let (cb, vb) = t.row(i);
            // Merge two sorted runs taking elementwise max.
            let (mut p, mut q) = (0, 0);
            while p < ca.len() || q < cb.len() {
                if q >= cb.len() || (p < ca.len() && ca[p] < cb[q]) {
                    builder.push(i, ca[p], va[p]);
                    p += 1;
                } else if p >= ca.len() || cb[q] < ca[p] {
                    builder.push(i, cb[q], vb[q]);
                    q += 1;
                } else {
                    builder.push(i, ca[p], va[p].max(vb[q]));
                    p += 1;
                    q += 1;
                }
            }
        }
        builder.to_csr()
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

/// The columns `[lo, hi)` from the first to the last nonzero of `row`
/// (empty for an all-zero row).
fn nonzero_span(row: &[f64]) -> (usize, usize) {
    match row.iter().position(|&v| v != 0.0) {
        Some(lo) => (
            lo,
            row.iter().rposition(|&v| v != 0.0).map_or(lo, |p| p + 1),
        ),
        None => (0, 0),
    }
}

/// Row-ordered CSR assembly for transformation code that already visits
/// rows in order with strictly increasing columns (cheaper than a [`crate::Coo`]
/// round-trip: no sort, no duplicate merge). Exact zeros are dropped on
/// `push`, so built matrices keep the no-stored-zeros invariant — this
/// is the one assembly path shared by `lin_comb`, `split_parts`,
/// `mtrl-graph`'s Laplacian and pNN construction.
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

    /// Finalise, checking every CSR invariant.
    ///
    /// # Panics
    /// Panics if fewer/more than `rows` rows were finished or columns
    /// were not strictly increasing within a row.
    pub fn build(self) -> Csr {
        Csr::from_raw_parts(self.rows, self.cols, self.indptr, self.indices, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::oracle::{awkward, block_rows, same_bits};
    use crate::Coo;
    use mtrl_linalg::ops::matmul;
    use mtrl_linalg::random::rand_uniform;
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
        // The block step writes only its own rows, against its own rows
        // of a taller G.
        let blocks = [
            awkward_csr(11, 0.4, 79, true),
            awkward_csr(7, 0.5, 80, true),
        ];
        let tall = Mat::from_vec(18, 23, block_rows(18, 23, 81)).unwrap();
        let mut out = Mat::filled(18, 23, 9.0);
        blocks[1].spmm_dense_at(&tall, 11, &mut out);
        let sub = Mat::from_vec(7, 23, tall.as_slice()[11 * 23..].to_vec()).unwrap();
        assert!(same_bits(
            &out.as_slice()[11 * 23..],
            spmm_oracle(&blocks[1], &sub).as_slice()
        ));
        assert!(out.as_slice()[..11 * 23].iter().all(|&v| v == 9.0));
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
    fn identity_spmv() {
        let i = Csr::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn spmv_matches_dense() {
        let s = random_sparse(20, 15, 0.3, 51);
        let d = s.to_dense();
        let x: Vec<f64> = (0..15).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let ys = s.spmv(&x);
        let yd = mtrl_linalg::ops::matvec(&d, &x).unwrap();
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_dense_matches_dense() {
        let s = random_sparse(12, 10, 0.4, 52);
        let b = rand_uniform(10, 6, -1.0, 1.0, 53);
        let fast = s.mul_dense(&b);
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
        assert_eq!(s.col_sums(), vec![1.0, 4.0, 2.0]);
        assert_eq!(s.sum(), 7.0);
    }

    #[test]
    fn prune_drops_small() {
        let mut c = Coo::new(1, 3);
        c.push(0, 0, 1e-12);
        c.push(0, 1, 0.5);
        c.push(0, 2, -1e-12);
        let s = c.to_csr().prune(1e-9);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(0, 1), 0.5);
    }

    #[test]
    fn max_symmetrize_properties() {
        let s = random_sparse(10, 10, 0.2, 55).prune(0.0);
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
    fn scale_inplace_works() {
        let mut s = Csr::identity(3);
        s.scale_inplace(2.5);
        assert_eq!(s.get(1, 1), 2.5);
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
