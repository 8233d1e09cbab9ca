//! Block-structured matrix helpers.
//!
//! Section I-A of the paper defines the global matrices over all `K` object
//! types: the intra-type matrix `W` (and its Laplacian `L`) is *block
//! diagonal* with one `n_k x n_k` block per type, while `G` stacks per-type
//! membership blocks. [`BlockSpec`] describes that layout; the sparse
//! block-diagonal `L` built on it lives in `mtrl_sparse::SparseBlockDiag`.

use crate::mat::Mat;
use std::ops::Range;

/// Sizes and offsets of the per-type segments of a stacked dimension.
///
/// Used for both the object dimension (`n = Σ n_k`) and the cluster
/// dimension (`c = Σ c_k`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpec {
    sizes: Vec<usize>,
    offsets: Vec<usize>,
    total: usize,
}

impl BlockSpec {
    /// Build a spec from per-type sizes.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0;
        for &s in sizes {
            offsets.push(acc);
            acc += s;
        }
        BlockSpec {
            sizes: sizes.to_vec(),
            offsets,
            total: acc,
        }
    }

    /// Number of types/blocks.
    pub fn num_blocks(&self) -> usize {
        self.sizes.len()
    }

    /// Size of block `k`.
    pub fn size(&self, k: usize) -> usize {
        self.sizes[k]
    }

    /// All per-block sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Starting offset of block `k` in the stacked dimension.
    pub fn offset(&self, k: usize) -> usize {
        self.offsets[k]
    }

    /// Total stacked size `Σ sizes`.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Index range of block `k`.
    pub fn range(&self, k: usize) -> Range<usize> {
        self.offsets[k]..self.offsets[k] + self.sizes[k]
    }
}

/// Assemble a stacked block-structured membership matrix `G` from per-type
/// blocks `G_k` (`n_k x c_k`), placing block `k` at row offset `Σ_{j<k} n_j`
/// and column offset `Σ_{j<k} c_j` — exactly the layout of Section II-A.
pub fn stack_membership(blocks: &[Mat]) -> Mat {
    let row_spec = BlockSpec::from_sizes(&blocks.iter().map(|b| b.rows()).collect::<Vec<_>>());
    let col_spec = BlockSpec::from_sizes(&blocks.iter().map(|b| b.cols()).collect::<Vec<_>>());
    let mut g = Mat::zeros(row_spec.total(), col_spec.total());
    for (k, b) in blocks.iter().enumerate() {
        g.set_submatrix(row_spec.offset(k), col_spec.offset(k), b);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_offsets() {
        let s = BlockSpec::from_sizes(&[3, 5, 2]);
        assert_eq!(s.total(), 10);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 3);
        assert_eq!(s.offset(2), 8);
        assert_eq!(s.range(1), 3..8);
    }

    #[test]
    fn stack_membership_layout() {
        let g1 = Mat::filled(2, 2, 1.0);
        let g2 = Mat::filled(3, 2, 2.0);
        let g = stack_membership(&[g1, g2]);
        assert_eq!(g.shape(), (5, 4));
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(0, 2)], 0.0); // off-block zero
        assert_eq!(g[(2, 2)], 2.0);
        assert_eq!(g[(2, 0)], 0.0);
    }
}
