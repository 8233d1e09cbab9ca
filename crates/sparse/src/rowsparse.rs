//! Row-sparse matrix: sparse in *rows*, dense within a stored row.
//!
//! The shape the paper's ℓ2,1-regularised error matrix `E_R` takes
//! (Sec. III-C/D): the row-wise shrinkage of Eq. 27 drives most rows to
//! (near-)zero norm and leaves a small set of *active* rows — the
//! corrupted samples — with large dense rows `f_i·q_i`. Storing only the
//! active rows keeps the representation at `O(active · n)` instead of
//! `n²`, and iterating the active rows never visits the implicit zero
//! rows.

/// Matrix stored as a sorted list of `(row index, dense row)` pairs;
/// every unlisted row is implicitly zero.
///
/// Invariants (enforced by [`RowSparse::push_row`]):
/// * row indices are strictly increasing and `< rows`;
/// * every stored row has exactly `cols` entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowSparse {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, Vec<f64>)>,
}

impl RowSparse {
    /// An all-zero `rows x cols` matrix with no stored rows.
    pub fn new(rows: usize, cols: usize) -> Self {
        RowSparse {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Append an active row. Rows must arrive in strictly increasing
    /// index order (the natural order for the engine's row sweep).
    ///
    /// # Panics
    /// Panics if `i` is out of range, not increasing, or `values` has
    /// the wrong length.
    pub fn push_row(&mut self, i: usize, values: Vec<f64>) {
        assert!(i < self.rows, "row index {i} out of range");
        assert_eq!(values.len(), self.cols, "row {i}: wrong width");
        if let Some(&(last, _)) = self.entries.last() {
            assert!(last < i, "rows must be pushed in increasing order");
        }
        self.entries.push((i, values));
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when no row is stored (the matrix is exactly zero).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(row index, row)` pairs in increasing row order.
    pub fn active_iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.entries.iter().map(|(i, v)| (*i, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowSparse {
        let mut e = RowSparse::new(6, 4);
        e.push_row(1, vec![1.0, -2.0, 0.0, 0.5]);
        e.push_row(4, vec![0.0, 3.0, 1.0, 0.0]);
        e
    }

    #[test]
    fn shape_and_lookup() {
        let e = sample();
        assert_eq!(e.shape(), (6, 4));
        assert_eq!(e.active_iter().count(), 2);
        assert!(!e.is_empty());
        let rows: Vec<usize> = e.active_iter().map(|(i, _)| i).collect();
        assert_eq!(rows, [1, 4]);
        assert_eq!(e.active_iter().next().unwrap().1[1], -2.0);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn out_of_order_rows_panic() {
        let mut e = RowSparse::new(5, 2);
        e.push_row(3, vec![1.0, 2.0]);
        e.push_row(3, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn wrong_width_panics() {
        let mut e = RowSparse::new(5, 2);
        e.push_row(0, vec![1.0]);
    }
}
