//! # mtrl-graph
//!
//! Nearest-neighbour graphs and graph Laplacians for the RHCHME
//! reproduction.
//!
//! This crate implements the paper's Eq. (3) — the pNN intra-type
//! relationship `W_E` with binary / heat-kernel / cosine weighting — plus
//! the Laplacian constructions used by every HOCC method:
//!
//! * SNMTF uses a single pNN Laplacian (Eq. 1);
//! * RMC uses a linear ensemble of pre-given candidates (Eq. 2);
//! * RHCHME uses the *heterogeneous* ensemble `L = α·L_S + L_E` (Eq. 12)
//!   mixing the subspace-learned Laplacian with the pNN one.
//!
//! Graphs are built over objects given as **rows** of a dense feature
//! matrix by one search entry, [`knn_indices`], and one graph entry,
//! [`pnn_graph`]. Each takes a [`GraphBackend`] — the exact parallel,
//! blocked Gram-trick kernel (see [`knn`]) or the random-projection
//! forest index (see [`ann`]) — and a [`mtrl_linalg::Precision`]
//! (`F32` stores the centred operands as `f32`, accumulating in `f64`).
//! Output is bit-identical for every thread count. The weight matrices
//! are sparse ([`mtrl_sparse::Csr`]) and the Laplacians stay sparse too
//! ([`laplacian_csr`], ≤ `2pn + n` entries) — the positive/negative
//! splits and `L·G` products of the multiplicative update run on CSR
//! blocks; [`laplacian_dense`] remains as a `.to_dense()` shim for
//! spectral utilities and tests.

pub mod ann;
pub mod components;
pub mod ensemble;
pub mod knn;
pub mod laplacian;
mod serde_impl;

pub use ann::{GraphBackend, RpForestIndex, RpForestParams};
pub use ensemble::{hetero_ensemble, linear_combination};
pub use knn::{
    center_columns, cross_sq_dist_map, dist_less, gram_sq_dist, graph_from_neighbours,
    insert_capped, knn_indices, pnn_graph, threads_for, WeightScheme,
};
pub use laplacian::{laplacian_csr, laplacian_dense, LaplacianKind};
