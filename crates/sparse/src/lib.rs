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
//! `G`, [`Csr::split_blocks`] cuts `R` into object-type blocks so each
//! block multiplies one type's packed block of `G` in that type's
//! cluster columns, [`SparseBlockDiag::mul_typed`] does the same for
//! `L·G`, and [`SparseBlockDiag::trace_quad`] runs each `g_i · g_j`
//! over its type's cluster columns only.
//!
//! [`Csr`] and [`SparseBlockDiag`] implement [`mtrl_linalg::Quantize`],
//! so [`mtrl_linalg::Precision::F32`] mode rounds their values through
//! `f32` once and runs the ordinary kernels on the result.

pub mod block;
mod coo;
mod csr;
// The register-accumulator helpers of `mtrl-linalg`'s narrow kernels,
// compiled here for the SpMM without widening either public API.
#[path = "../../linalg/src/lanes.rs"]
mod lanes;
mod rowsparse;

pub use block::SparseBlockDiag;
pub use coo::Coo;
pub use csr::{Csr, CsrBuilder};
pub use rowsparse::RowSparse;
