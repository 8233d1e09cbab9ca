//! # rhchme
//!
//! Reproduction of **RHCHME** — *Robust High-order Co-clustering via
//! Heterogeneous Manifold Ensemble* (Hou & Nayak, ICDE 2015) — plus every
//! method it is compared against.
//!
//! ## What this crate provides
//!
//! * [`multitype`] — assembly of the symmetric inter-type relationship
//!   matrix `R`, block membership `G` layout and per-type feature views
//!   (Sec. I-A of the paper);
//! * [`kmeans`] — k-means++ used to initialise `G` (Algorithm 2's input);
//! * [`intra`] — stage 1 & 2: per-type pNN graphs, SPG subspace affinities
//!   and the heterogeneous Laplacian ensemble `L = α·L_S + L_E` (Eq. 12);
//! * [`engine`] — the **sparse-first** multiplicative-update optimiser
//!   of Eq. (15) (Algorithm 2): closed-form `S`, multiplicative `G`
//!   with row-ℓ1 normalisation, implicit IRLS `E_R` with the L2,1
//!   penalty — `O(nnz·c + n·c²)` per iteration on a CSR `R`, with the
//!   retired dense loop kept as a test reference;
//! * [`rhchme`] — the end-to-end RHCHME estimator;
//! * [`pipeline`] — the method table of Sec. IV-B's comparison suite
//!   (one engine row per method, with its paper reference: DRCC's
//!   DR-T/DR-C/DR-TC on two-type data, SRC, SNMTF, RMC and RHCHME on
//!   the three types), and one-call runners with artifact caching used
//!   by the table/figure benches;
//! * [`export`] — the serving-ready [`FittedModel`] bundle (per-type
//!   membership blocks, association matrix `S`, feature centroids)
//!   consumed by the `mtrl-serve` crate for out-of-sample fold-in.
//!
//! ## Quickstart
//!
//! ```
//! use mtrl_datagen::datasets::{load, DatasetId, Scale};
//! use rhchme::rhchme::{Rhchme, RhchmeConfig};
//!
//! let corpus = load(DatasetId::D1, Scale::Tiny);
//! let model = Rhchme::new(RhchmeConfig::fast());
//! let result = model.fit_corpus(&corpus).unwrap();
//! let f = mtrl_metrics::fscore(&corpus.labels, &result.doc_labels);
//! assert!(f > 0.3);
//! ```

pub mod engine;
mod error;
pub mod export;
pub mod intra;
pub mod multitype;
pub mod pipeline;
pub mod rhchme;

pub use mtrl_linalg::kmeans;

pub use error::RhchmeError;
pub use export::{FittedModel, SCHEMA_VERSION};
pub use mtrl_graph::GraphBackend;
pub use multitype::MultiTypeData;
pub use pipeline::{run_spec, EnsembleSpec, Method, MethodOutput, MethodSpec};
pub use rhchme::{Rhchme, RhchmeConfig, RhchmeResult, WarmStart};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RhchmeError>;
