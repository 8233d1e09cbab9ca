//! # mtrl-subspace
//!
//! Multiple subspace learning — stage 1 of RHCHME ("learning complete
//! intra-type relationships", Sec. III-A of Hou & Nayak, ICDE 2015).
//!
//! Objects of one type are expressed as sparse nonnegative combinations of
//! each other (the *self-expressive* model, Eq. 8):
//!
//! ```text
//! X = X·W + E,   W ≥ 0,  diag(W) = 0
//! ```
//!
//! and the affinity `W` is recovered by minimising Eq. (9):
//!
//! ```text
//! J₂(W) = γ‖X − XW‖²_F + ‖WWᵀ‖₁
//! ```
//!
//! with the Spectral Projected Gradient method of Algorithm 1 ([`spg`]).
//! Two objects get a nonzero affinity iff they lie in the same linear
//! subspace — including *distant* within-manifold pairs that a pNN graph
//! misses (Fig. 1's point `z`).
//!
//! The solver restricts row `i` of `W` to object `i`'s
//! [`CANDIDATES`]` = 64` largest inner products `⟨x_i, x_j⟩` (ties to the
//! lower index), read off the Gram `K = X Xᵀ`. Ranking by inner product
//! rather than distance keeps the distant links within a linear subspace:
//! a far point on a line has its largest inner products with its own
//! line (affine manifolds such as Fig. 1's lifted circles are the
//! exception; see [`spg`]). An
//! iteration then costs `O(n·K′²)` on the `K[S_i, S_i]` blocks instead of
//! the unrestricted solver's `O(nnz(W)·n)` product. That product makes one
//! pass per object with its row in a local 65-lane accumulator and the
//! Gram gather fused into the multiply-add; each entry sums its terms in
//! the scalar loop's order, skipping only exact zeros, so it is
//! bit-identical to that loop. The affinity comes
//! back as a [`mtrl_sparse::Csr`] with at most `K′` entries per row. Up to
//! `n = 65` objects every other object is a candidate, so the solver is
//! the paper's Algorithm 1 unchanged; the module docs of [`spg`] give the
//! details of the deviation above that.
//!
//! Layout convention: this crate takes objects as **rows** (`n x D`),
//! matching the rest of the workspace; the paper's column convention
//! (`X ∈ R^{D x n}`) is the transpose, and the recovered affinity is
//! symmetrised before graph use anyway.

#[cfg(test)]
mod dense_oracle;
pub mod spg;
mod support;

pub use spg::{spg_affinity, SpgConfig, SpgResult, CANDIDATES};

use mtrl_sparse::{Csr, CsrBuilder};

/// Turn a (generally asymmetric) self-expressive affinity into a symmetric
/// nonnegative weight matrix `W_S = (A + Aᵀ)/2` with zero diagonal, keeping
/// entries above `tol` — the form consumed by the Laplacian builder.
/// `O(nnz)`: it merges each row of `A` with the same row of `Aᵀ`.
///
/// # Panics
/// Panics if `a` is not square.
pub fn affinity_to_weights(a: &Csr, tol: f64) -> Csr {
    assert_eq!(a.rows(), a.cols(), "affinity matrix must be square");
    let sym = a.lin_comb(0.5, &a.transpose(), 0.5);
    let mut out = CsrBuilder::with_capacity(sym.rows(), sym.cols(), sym.nnz());
    for i in 0..sym.rows() {
        let (cols, vals) = sym.row(i);
        for (&j, &w) in cols.iter().zip(vals) {
            if j != i && w > tol {
                out.push(j, w);
            }
        }
        out.finish_row();
    }
    out.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    use mtrl_linalg::Mat;

    #[test]
    fn symmetrisation_and_pruning() {
        let a = Csr::from_dense(&Mat::from_vec(2, 2, vec![5.0, 0.4, 0.2, 7.0]).unwrap(), 0.0);
        let w = affinity_to_weights(&a, 0.0);
        assert!((w.get(0, 1) - 0.3).abs() < 1e-15);
        assert!((w.get(1, 0) - 0.3).abs() < 1e-15);
        assert_eq!(w.get(0, 0), 0.0); // diagonal dropped
        let w2 = affinity_to_weights(&a, 0.35);
        assert_eq!(w2.nnz(), 0);
    }

    #[test]
    fn sparse_symmetrisation_matches_the_dense_rule() {
        let mut dense = mtrl_linalg::random::rand_uniform(30, 30, -0.5, 1.0, 4);
        for v in dense.as_mut_slice() {
            *v = v.max(0.0);
        }
        let tol = 0.2;
        let w = affinity_to_weights(&Csr::from_dense(&dense, 0.0), tol);
        for i in 0..30 {
            for j in 0..30 {
                let expect = 0.5 * (dense[(i, j)] + dense[(j, i)]);
                let expect = if i != j && expect > tol { expect } else { 0.0 };
                assert_eq!(w.get(i, j).to_bits(), expect.to_bits(), "({i}, {j})");
            }
        }
    }
}
