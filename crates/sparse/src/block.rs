//! Sparse block-diagonal operator.
//!
//! Section I-A of the paper makes the global intra-type Laplacian `L`
//! block diagonal with one `n_k x n_k` block per object type, and a pNN
//! Laplacian block carries at most `2pn_k + n_k` entries. Keeping the
//! blocks in CSR form turns the fit loop's `L·G` products into
//! `O(nnz · c)` work and its `tr(GᵀLG)` regulariser into `O(nnz · c)`
//! reductions — no `n x n` matrix is ever materialised while fitting.
//!
//! The block layout is an [`mtrl_linalg::BlockSpec`].

use crate::Csr;
use mtrl_linalg::block::BlockSpec;
use mtrl_linalg::error::LinalgError;
use mtrl_linalg::{Mat, Precision, Quantize};

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

    /// The own-type columns of `blockdiag(L_k) * G` for a block-diagonal
    /// `G`, given as its packed blocks: `g_blocks[k]` is `G`'s block-`k`
    /// rows in type `k`'s cluster columns `clusters.range(k)`
    /// (`n_k x c_k`). Block `k`'s rows of `out` take `L_k · G_k` in those
    /// columns, in `c_k`-lane accumulators; every other entry of `out` is
    /// left as it is.
    ///
    /// Each written entry sums the same terms in the same order as
    /// [`Self::mul_dense`], so it is bit-identical to that entry.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if a packed block is not
    /// `n_k x c_k` or `out` is not `n x clusters.total()`.
    pub fn mul_typed(
        &self,
        g_blocks: &[Mat],
        clusters: &BlockSpec,
        out: &mut Mat,
    ) -> Result<(), LinalgError> {
        let fits = g_blocks.len() == self.blocks.len()
            && clusters.num_blocks() == self.blocks.len()
            && out.shape() == (self.n(), clusters.total())
            && g_blocks
                .iter()
                .enumerate()
                .all(|(k, b)| b.shape() == (self.spec.size(k), clusters.size(k)));
        if !fits {
            return Err(LinalgError::ShapeMismatch {
                op: "SparseBlockDiag::mul_typed",
                lhs: (self.n(), self.n()),
                rhs: out.shape(),
            });
        }
        for (k, block) in self.blocks.iter().enumerate() {
            block.spmm_into(&g_blocks[k], out, self.spec.offset(k), clusters.offset(k));
        }
        Ok(())
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

    /// The quadratic form `tr(Gᵀ L G) = Σ_k tr(G_kᵀ L_k G_k)` in
    /// `O(nnz · c)` without materialising `L G` or copying `G` blocks, for
    /// a block-diagonal `G`: block `k`'s rows are zero outside the
    /// cluster columns `clusters.range(k)`, and each block's products run
    /// over those columns (`Csr::quad_form_at`).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `g.rows() != n` or
    /// `clusters` does not split `g`'s columns into one range per block.
    pub fn trace_quad(&self, g: &Mat, clusters: &BlockSpec) -> Result<f64, LinalgError> {
        self.check_rows("SparseBlockDiag::trace_quad", g)?;
        if clusters.total() != g.cols() || clusters.num_blocks() != self.blocks.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "SparseBlockDiag::trace_quad",
                lhs: (self.n(), clusters.total()),
                rhs: g.shape(),
            });
        }
        Ok(self
            .blocks
            .iter()
            .enumerate()
            .map(|(k, block)| block.quad_form_at(g, self.spec.offset(k), clusters.range(k)))
            .sum())
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

impl Quantize for SparseBlockDiag {
    /// Round every block's stored values in place (patterns kept).
    fn quantize(&mut self, precision: Precision) {
        for block in &mut self.blocks {
            block.quantize(precision);
        }
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

    /// The block holding stacked index `i`.
    fn block_of(spec: &BlockSpec, i: usize) -> usize {
        (0..spec.num_blocks())
            .find(|&k| spec.range(k).contains(&i))
            .unwrap()
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
    fn mul_typed_writes_the_own_columns_of_mul_dense() {
        // Blocks of 6 and 9 rows owning clusters [0, 2) and [2, 5); G is
        // zero outside them, with -0.0 and zeros inside.
        let s = sample();
        let clusters = BlockSpec::from_sizes(&[2, 3]);
        let mut g = Mat::zeros(15, 5);
        for i in 0..15 {
            for j in clusters.range(block_of(s.spec(), i)) {
                g[(i, j)] = match (i + j) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    v => 0.3 * v as f64 + 0.01 * i as f64,
                };
            }
        }
        let packed: Vec<Mat> = (0..2)
            .map(|k| {
                let rows = s.spec().range(k);
                let data = rows
                    .flat_map(|i| g.row(i)[clusters.range(k)].to_vec())
                    .collect();
                Mat::from_vec(s.spec().size(k), clusters.size(k), data).unwrap()
            })
            .collect();
        let mut out = Mat::filled(15, 5, 9.0);
        s.mul_typed(&packed, &clusters, &mut out).unwrap();
        let full = s.mul_dense(&g).unwrap();
        for i in 0..15 {
            let own = clusters.range(block_of(s.spec(), i));
            for j in 0..5 {
                if own.contains(&j) {
                    assert_eq!(out[(i, j)].to_bits(), full[(i, j)].to_bits(), "({i},{j})");
                } else {
                    assert_eq!(out[(i, j)], 9.0, "({i},{j}) written");
                }
            }
        }
        assert!(s.mul_typed(&packed[..1], &clusters, &mut out).is_err());
        assert!(s
            .mul_typed(&packed, &BlockSpec::from_sizes(&[3, 2]), &mut out)
            .is_err());
    }

    #[test]
    fn trace_quad_matches_dense_oracle() {
        // A block-diagonal G (block 0 in columns [0, 1), block 1 in
        // [1, 4)), with -0.0 and zeros inside its blocks.
        let s = sample();
        let clusters = BlockSpec::from_sizes(&[1, 3]);
        let dense = rand_uniform(15, 4, 0.0, 1.0, 85);
        let mut g = Mat::zeros(15, 4);
        for i in 0..15 {
            for j in clusters.range(block_of(s.spec(), i)) {
                g[(i, j)] = match (i * 4 + j) % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => dense[(i, j)],
                };
            }
        }
        let fast = s.trace_quad(&g, &clusters).unwrap();
        // Bit-identical to the full-width products over every column.
        let full: f64 = (0..2)
            .map(|k| s.block(k).quad_form_at(&g, s.spec().offset(k), 0..4))
            .sum();
        assert_eq!(fast.to_bits(), full.to_bits());
        let lg = ops::matmul(&densify(&s), &g).unwrap();
        let slow = ops::trace_product_tn(&lg, &g).unwrap();
        assert!((fast - slow).abs() < 1e-10);
        assert!(s
            .trace_quad(&g, &BlockSpec::from_sizes(&[2, 2, 0]))
            .is_err());
    }

    #[test]
    fn lin_comb_and_scaled() {
        let a = sample();
        let b = sample().scaled(0.5);
        let c = a.lin_comb(2.0, &b, -1.0).unwrap();
        let mut expect = densify(&a).scaled(2.0);
        mtrl_linalg::vecops::axpy(-1.0, densify(&b).as_slice(), expect.as_mut_slice());
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

    #[test]
    fn quantize_rounds_every_block_and_keeps_the_layout() {
        let l = sample();
        let q = Precision::F32.quantized(&l);
        assert_eq!(q.spec(), l.spec());
        assert_eq!(q.nnz(), l.nnz());
        for k in 0..l.num_blocks() {
            for ((i, j, a), (i2, j2, b)) in q.block(k).iter().zip(l.block(k).iter()) {
                assert_eq!((i, j), (i2, j2));
                assert_eq!(a.to_bits(), (b as f32 as f64).to_bits());
            }
        }
    }
}
