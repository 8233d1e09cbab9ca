//! Triplet (coordinate) builder for sparse matrices.

use crate::csr::Csr;

/// Coordinate-format sparse matrix builder.
///
/// Entries may be pushed in any order; duplicates are *summed* when the
/// matrix is finalised into CSR (convenient for co-occurrence counting:
/// each document–term event is just pushed and accumulation happens at
/// build time).
#[derive(Debug, Clone)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// Create an empty builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Create an empty builder with pre-reserved capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Push one entry. Zero values are skipped.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "Coo::push out of bounds");
        if v != 0.0 {
            self.entries.push((i, j, v));
        }
    }

    /// Finalise into CSR, sorting and summing duplicate coordinates.
    pub fn to_csr(mut self) -> Csr {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut indptr = vec![0usize; self.rows + 1];
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(usize, usize)> = None;
        for &(i, j, v) in &self.entries {
            if last == Some((i, j)) {
                *values.last_mut().expect("non-empty on merge") += v;
            } else {
                indices.push(j);
                values.push(v);
                indptr[i + 1] += 1;
                last = Some((i, j));
            }
        }
        // Prefix-sum the per-row counts into offsets.
        for r in 0..self.rows {
            indptr[r + 1] += indptr[r];
        }
        Csr::from_raw_parts(self.rows, self.cols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple() {
        let mut c = Coo::new(2, 3);
        c.push(0, 1, 2.0);
        c.push(1, 2, 3.0);
        c.push(0, 0, 1.0);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 0, 2.5);
        c.push(1, 1, 1.0);
        c.push(0, 0, 0.5);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 4.0);
    }

    #[test]
    fn zeros_skipped() {
        let mut c = Coo::new(1, 1);
        c.push(0, 0, 0.0);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut c = Coo::new(1, 1);
        c.push(1, 0, 1.0);
    }

    #[test]
    fn unsorted_input_sorted_on_build() {
        let mut c = Coo::new(3, 3);
        c.push(2, 2, 9.0);
        c.push(0, 2, 3.0);
        c.push(1, 0, 4.0);
        c.push(0, 0, 1.0);
        let m = c.to_csr();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(2, 2), 9.0);
        // CSR invariant: strictly increasing column indices per row.
        for r in 0..3 {
            let (cols, _) = m.row(r);
            for w in cols.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn empty_rows_handled() {
        let mut c = Coo::new(5, 5);
        c.push(4, 4, 1.0);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 1);
        for r in 0..4 {
            assert_eq!(m.row(r).0.len(), 0);
        }
    }
}
