//! # mtrl-linalg
//!
//! Dense linear-algebra substrate for the RHCHME reproduction
//! (Hou & Nayak, ICDE 2015).
//!
//! Every update rule in the paper — the SPG subspace solver (Algorithm 1)
//! and the multiplicative NMTF updates (Algorithm 2) — reduces to dense
//! matrix products, norms and small inversions. This crate provides those
//! primitives without any external BLAS:
//!
//! * [`Mat`] — a row-major dense `f64` matrix with cache-friendly row access
//!   (every kernel stores and accumulates `f64`);
//! * blocked and multi-threaded matrix products ([`ops`]);
//! * the scoped-thread worker pool shared by every parallel kernel in
//!   the workspace ([`par`]; `MTRL_NUM_THREADS` overrides the count);
//! * the packed register tile behind every all-pairs pass — the row
//!   Gram [`ops::row_gram`] here, and the exact p-nearest search, the
//!   stream's inserts and the resumable prefix search of `mtrl-graph`,
//!   which compiles the same private file;
//! * norms used by the paper: Frobenius, `l1`, `l2,1` ([`norms`]);
//! * the ridge-stabilised inverse behind Eq. (18)'s `(GᵀG)⁻¹` ([`solve`]);
//! * positive/negative part splits used by Eq. (21) ([`parts`]);
//! * the per-type block layout and stacked membership assembly for the
//!   `R`, `W`, `G` matrices of Section I-A ([`block`]);
//! * Euclidean projection onto the probability simplex ([`simplex`]),
//!   needed by the RMC baseline's ensemble weights;
//! * seeded random matrices ([`random`]) so every experiment is
//!   deterministic.
//!
//! The crate is deliberately free of `unsafe` code; hot loops are written
//! so that bounds checks vanish after slicing rows. The narrow kernels
//! behind the NMTF engine (`matmul` and `matmul_tn` and their sub-block
//! forms `matmul_block` / `matmul_tn_block`, `gram`) make one pass per
//! output row with the row held in a fixed-size register accumulator
//! (up to 32 columns per pass), and skip only exact zeros, so their
//! results are bit-identical to the scalar loops they replaced (kept as
//! `#[cfg(test)]` oracles). The engine runs the sub-block forms on each
//! object type's own rows and cluster columns.

pub mod block;
pub mod error;
pub mod kmeans;
mod lanes;
pub mod mat;
pub mod norms;
pub mod ops;
pub mod par;
pub mod parts;
mod precision;
pub mod random;
pub mod simplex;
pub mod solve;
mod tile;
pub mod vecops;

pub use block::BlockSpec;
pub use error::LinalgError;
pub use mat::Mat;
pub use precision::Precision;

/// Numerical floor used to guard divisions in multiplicative updates.
///
/// Standard NMF practice (Lee & Seung): denominators are clamped to at
/// least this value so iterates stay finite and nonnegative.
pub const EPS: f64 = 1e-12;

/// Result alias for fallible linear-algebra operations.
pub(crate) type Result<T> = std::result::Result<T, LinalgError>;
