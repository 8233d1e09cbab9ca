//! The comparison suite of Sec. IV-B.
//!
//! Three of the baselines are rows of the one NMTF engine table
//! ([`crate::pipeline::Method::engine_config`] writes every row, and
//! [`crate::pipeline::Method::baseline_regularizer`] builds the
//! baselines' graph regularisers):
//!
//! | method | reference | graph regulariser | `E_R`, row ℓ1 |
//! |--------|-----------|-------------------|---------------|
//! | SRC    | ref \[2\] (Long et al.): collective NMTF on inter-type relationships only | none (λ = 0) | off |
//! | SNMTF  | refs \[5, 6\] (Wang et al.): Eq. (1), NMTF + a single pNN Laplacian (`p = 5`, cosine) | fixed pNN | off |
//! | RMC    | ref \[15\] (Li et al.): Eq. (2), NMTF + a learned linear ensemble `Σ βᵢ L̂ᵢ` of six pNN candidates (`p ∈ {5, 10}` × binary / heat-kernel / cosine), β re-optimised on the simplex each iteration | ensemble | off |
//! | RHCHME | the paper, Eq. (15) | heterogeneous ensemble (Eq. 12) | on |
//!
//! SNMTF's original orthogonality constraint is replaced by the engine's
//! multiplicative form, matching RMC's treatment. The baselines build
//! their graphs exact and run `f64`; the graph backend and precision
//! belong to RHCHME.
//!
//! [`drcc`] — DRCC (ref \[1\]) — has its own two-type solver and runs as
//! DR-T (terms), DR-C (concepts) and DR-TC (concatenated).

pub mod drcc;

pub use drcc::{run_drcc, DrccConfig, DrccVariant};
