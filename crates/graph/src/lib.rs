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
//! * RMC combines pre-given pNN candidates (Eq. 2);
//! * RHCHME mixes the subspace-learned Laplacian with the pNN one in the
//!   *heterogeneous* ensemble `L = α·L_S + L_E` (Eq. 12), built by
//!   `rhchme::intra::hetero_laplacian`.
//!
//! Graphs are built over objects given as **rows** of a dense feature
//! matrix by one search entry, [`knn_indices`], and one graph entry,
//! [`pnn_graph`]. Each takes a [`GraphBackend`] — the exact parallel,
//! blocked Gram-trick search ([`CentredRows::p_nearest`], see [`knn`])
//! or the random-projection forest index (see [`ann`]); every operand
//! and accumulation is `f64`.
//! Output is bit-identical for every thread count. The weight matrices
//! are sparse ([`mtrl_sparse::Csr`]) and the Laplacians stay sparse too
//! ([`laplacian_csr`], ≤ `2pn + n` entries) — the positive/negative
//! splits and `L·G` products of the multiplicative update run on CSR
//! blocks.

pub mod ann;
pub mod knn;
mod laplacian;
mod serde_impl;
#[cfg(test)]
mod strip_oracle;
// The packed register tile of `mtrl-linalg`'s row Gram, compiled here
// for the exact search without widening either public API.
#[path = "../../linalg/src/tile.rs"]
mod tile;

pub use ann::{GraphBackend, RpForestParams};
pub use knn::{
    cross_sq_dist_map, dist_less, graph_from_neighbours, insert_capped, knn_indices, pnn_graph,
    CentredRows, PrefixSearch, WeightScheme,
};
pub use laplacian::{laplacian_csr, LaplacianKind};
