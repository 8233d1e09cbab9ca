//! # mtrl-sparse
//!
//! Sparse matrix substrate for the RHCHME reproduction.
//!
//! The inter-type relationship matrix `R` (Section I-A) and the pNN graphs
//! (Eq. 3) are sparse by construction: document–term co-occurrence is
//! mostly zeros and a pNN graph has at most `2pn` edges. The complexity
//! analysis in Section III-F depends on `z = nnz(R)`, so the harness needs
//! a real sparse representation to honour it.
//!
//! Four types:
//! * [`Coo`] — a triplet builder (push `(i, j, v)` in any order; sorts
//!   on finish, so only tests and reference paths use it — program
//!   paths assemble row by row through [`CsrBuilder`]);
//! * [`Csr`] — compressed sparse row storage with the products the engine
//!   needs (parallel CSR×dense, quadratic forms, linear combinations,
//!   positive/negative splits, `spmv`, transpose, row reductions);
//! * [`SparseBlockDiag`] — the block-diagonal Laplacian operator of
//!   Section I-A, kept sparse through the whole fit loop;
//! * [`RowSparse`] — row-sparse storage (sparse in rows, dense within a
//!   row) for the ℓ2,1-structured error matrix `E_R` of Sec. III-C:
//!   only the shrunk-active rows are stored.
//!
//! The engine's products with these types are narrow (`c` a few dozen
//! columns). [`Csr::spmm_dense`] / [`Csr::spmm_into`] and
//! [`Csr::quad_form`] make one pass per output row, keep the row in a
//! register accumulator (up to 32 columns per pass), and skip only exact
//! zeros, so results are bit-identical to the scalar loops they replaced
//! (kept as `#[cfg(test)]` oracles). For the engine's block-diagonal
//! `G`, [`CsrBlock::spmm_stacked`] multiplies each object-type block of
//! `R`, read in place ([`Csr::block`]), by one type's packed block of `G` in that type's
//! cluster columns — or by many such blocks at once (the ensemble's
//! members, stacked side by side in a [`LaneStack`]), reading each
//! stored entry once per 32-lane panel for all of them;
//! [`Csr::split_blocks`] cuts the blocks out as matrices of their own,
//! and [`Csr::spmm_into`] multiplies a [`SparseBlockDiag`] block by one
//! type's packed block of `G` for the engine's `L·G`.

pub mod block;
mod coo;
mod csr;
// The register-accumulator helpers of `mtrl-linalg`'s narrow kernels,
// compiled here for the SpMM without widening either public API.
#[path = "../../linalg/src/lanes.rs"]
mod lanes;
mod rowsparse;
mod stack;

pub use block::SparseBlockDiag;
pub use coo::Coo;
pub use csr::{Csr, CsrBuilder};
pub use rowsparse::RowSparse;
pub use stack::{CsrBlock, LaneStack};
