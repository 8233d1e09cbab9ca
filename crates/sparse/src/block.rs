//! Sparse block-diagonal operator.
//!
//! Section I-A of the paper makes the global intra-type Laplacian `L`
//! block diagonal with one `n_k x n_k` block per object type, and a pNN
//! Laplacian block carries at most `2pn_k + n_k` entries. Keeping the
//! blocks in CSR form turns the fit loop's `L·G` products (and the
//! `tr(GᵀLG)` regulariser read off them) into `O(nnz · c)` work — no
//! `n x n` matrix is ever materialised while fitting.
//!
//! The block layout is an [`mtrl_linalg::BlockSpec`].

use crate::Csr;
use mtrl_linalg::block::BlockSpec;
use mtrl_linalg::error::LinalgError;
use mtrl_linalg::Mat;

/// Block-diagonal square matrix with one square sparse block per type.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseBlockDiag {
    blocks: Vec<Csr>,
    spec: BlockSpec,
}

impl SparseBlockDiag {
    /// Assemble from square sparse blocks.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] if any block is not square.
    pub fn new(blocks: Vec<Csr>) -> Result<Self, LinalgError> {
        for b in &blocks {
            if b.rows() != b.cols() {
                return Err(LinalgError::NotSquare {
                    op: "SparseBlockDiag::new",
                    shape: b.shape(),
                });
            }
        }
        let sizes: Vec<usize> = blocks.iter().map(|b| b.rows()).collect();
        Ok(SparseBlockDiag {
            blocks,
            spec: BlockSpec::from_sizes(&sizes),
        })
    }

    /// The underlying block layout.
    pub fn spec(&self) -> &BlockSpec {
        &self.spec
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Borrow block `k`.
    pub fn block(&self, k: usize) -> &Csr {
        &self.blocks[k]
    }

    /// The stored values of block `k`, writable in place; its pattern
    /// stays as it is, and a zero written here stays a stored entry.
    pub fn block_values_mut(&mut self, k: usize) -> &mut [f64] {
        self.blocks[k].values_mut()
    }

    /// Total stacked dimension `n`.
    pub fn n(&self) -> usize {
        self.spec.total()
    }

    /// Total stored entries over all blocks.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(Csr::nnz).sum()
    }

    /// Product with a stacked dense matrix: `out = blockdiag(L_k) * G`,
    /// `O(nnz · c)`. Each block product runs on the [`mtrl_linalg::par`]
    /// pool (see [`Csr::spmm_dense`]).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `g.rows() != n`.
    pub fn mul_dense(&self, g: &Mat) -> Result<Mat, LinalgError> {
        self.check_rows("SparseBlockDiag::mul_dense", g)?;
        let mut out = Mat::zeros(g.rows(), g.cols());
        let c = g.cols();
        for (k, block) in self.blocks.iter().enumerate() {
            let offset = self.spec.offset(k);
            block.spmm_window(&g.as_slice()[offset * c..], c, &mut out, offset, 0);
        }
        Ok(out)
    }

    fn check_rows(&self, op: &'static str, g: &Mat) -> Result<(), LinalgError> {
        if g.rows() != self.n() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: (self.n(), self.n()),
                rhs: g.shape(),
            });
        }
        Ok(())
    }

    /// Linear combination `alpha * self + beta * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the block layouts differ.
    pub fn lin_comb(
        &self,
        alpha: f64,
        other: &SparseBlockDiag,
        beta: f64,
    ) -> Result<Self, LinalgError> {
        if self.spec != other.spec {
            return Err(LinalgError::ShapeMismatch {
                op: "SparseBlockDiag::lin_comb",
                lhs: (self.n(), self.n()),
                rhs: (other.n(), other.n()),
            });
        }
        Ok(SparseBlockDiag {
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a.lin_comb(alpha, b, beta))
                .collect(),
            spec: self.spec.clone(),
        })
    }

    /// Scale every block.
    pub fn scaled(&self, s: f64) -> Self {
        SparseBlockDiag {
            blocks: self.blocks.iter().map(|b| b.scaled(s)).collect(),
            spec: self.spec.clone(),
        }
    }

    /// Split every block into positive and negative parts (Eq. 21 needs
    /// `L⁺` and `L⁻` separately).
    pub fn split_parts(&self) -> (SparseBlockDiag, SparseBlockDiag) {
        let (pos, neg): (Vec<Csr>, Vec<Csr>) = self.blocks.iter().map(Csr::split_parts).unzip();
        (
            SparseBlockDiag {
                blocks: pos,
                spec: self.spec.clone(),
            },
            SparseBlockDiag {
                blocks: neg,
                spec: self.spec.clone(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use mtrl_linalg::ops;
    use mtrl_linalg::random::rand_uniform;

    fn random_block(n: usize, seed: u64) -> Csr {
        let dense = rand_uniform(n, n, -1.0, 1.0, seed);
        let mask = rand_uniform(n, n, 0.0, 1.0, seed + 1);
        let mut c = Coo::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if mask[(i, j)] < 0.3 {
                    c.push(i, j, dense[(i, j)]);
                }
            }
        }
        c.to_csr()
    }

    fn sample() -> SparseBlockDiag {
        SparseBlockDiag::new(vec![random_block(6, 80), random_block(9, 82)]).unwrap()
    }

    /// The dense `n x n` matrix, as the oracle the sparse operators must match.
    fn densify(s: &SparseBlockDiag) -> Mat {
        let mut out = Mat::zeros(s.n(), s.n());
        for k in 0..s.num_blocks() {
            let o = s.spec().offset(k);
            for (i, j, v) in s.block(k).iter() {
                out[(o + i, o + j)] = v;
            }
        }
        out
    }

    #[test]
    fn rejects_non_square_blocks() {
        let mut c = Coo::new(2, 3);
        c.push(0, 2, 1.0);
        assert!(SparseBlockDiag::new(vec![c.to_csr()]).is_err());
    }

    #[test]
    fn mul_dense_matches_dense_oracle() {
        let s = sample();
        let g = rand_uniform(15, 3, -1.0, 1.0, 84);
        let fast = s.mul_dense(&g).unwrap();
        let slow = ops::matmul(&densify(&s), &g).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(s.mul_dense(&Mat::zeros(4, 2)).is_err());
    }

    #[test]
    fn lin_comb_and_scaled() {
        let a = sample();
        let b = sample().scaled(0.5);
        let c = a.lin_comb(2.0, &b, -1.0).unwrap();
        let expect = densify(&a).scaled(2.0).sub(&densify(&b)).unwrap();
        assert!(densify(&c).approx_eq(&expect, 1e-12));
        // Layout mismatch rejected.
        let d = SparseBlockDiag::new(vec![random_block(15, 86)]).unwrap();
        assert!(a.lin_comb(1.0, &d, 1.0).is_err());
    }

    #[test]
    fn split_parts_reconstruct_nonneg() {
        let s = sample();
        let (p, n) = s.split_parts();
        for k in 0..s.num_blocks() {
            assert!(p.block(k).iter().all(|(_, _, v)| v > 0.0));
            assert!(n.block(k).iter().all(|(_, _, v)| v > 0.0));
        }
        let rec = p.lin_comb(1.0, &n, -1.0).unwrap();
        assert!(densify(&rec).approx_eq(&densify(&s), 0.0));
    }

    #[test]
    fn layout_accessors() {
        let s = sample();
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.n(), 15);
        assert_eq!(s.spec().offset(1), 6);
        assert!(s.nnz() > 0);
        assert_eq!(s.block(0).rows(), 6);
    }
}
