//! RMC — Relational Multi-manifold Co-clustering (Li et al., ref \[15\]).
//!
//! Identical decomposition to SNMTF but with the intra-type Laplacian
//! replaced by a *learned linear ensemble* of pre-given candidates
//! (Eq. 2): `L = Σ βᵢ L̂ᵢ, Σβᵢ = 1, βᵢ > 0`. Following Sec. IV-B, the six
//! candidates cross `p ∈ {5, 10}` with binary / Gaussian-kernel / cosine
//! weighting. The weights are re-optimised every iteration by minimising
//! `Σ βᵢ tr(GᵀL̂ᵢG) + μ‖β‖²` over the probability simplex — the ensemble
//! gravitates toward the candidates that best smooth the current labels.

use crate::engine::{run_engine, EngineConfig, GraphRegularizer};
use crate::intra::rmc_candidates;
use crate::multitype::MultiTypeData;
use crate::rhchme::{init_membership, package_result, RhchmeResult};
use crate::Result;
use mtrl_graph::LaplacianKind;

/// RMC configuration.
#[derive(Debug, Clone)]
pub struct RmcConfig {
    /// Graph regularisation weight λ.
    pub lambda: f64,
    /// Quadratic penalty μ on the ensemble weights.
    pub mu: f64,
    /// Laplacian normalisation for the candidates.
    pub laplacian_kind: LaplacianKind,
    /// Multiplicative-update iteration budget.
    pub max_iter: usize,
    /// Relative objective-change tolerance.
    pub tol: f64,
    /// RNG seed for k-means initialisation.
    pub seed: u64,
    /// Record per-iteration document labels.
    pub record_doc_labels: bool,
}

impl Default for RmcConfig {
    fn default() -> Self {
        RmcConfig {
            lambda: 1.0,
            mu: 1.0,
            laplacian_kind: LaplacianKind::SymNormalized,
            max_iter: 100,
            tol: 1e-6,
            seed: 2015,
            record_doc_labels: false,
        }
    }
}

/// RMC result: clustering output plus the learned ensemble weights.
#[derive(Debug, Clone)]
pub struct RmcResult {
    /// Standard clustering output.
    pub clustering: RhchmeResult,
    /// Final ensemble weights over the 6 candidates
    /// (`[p5-bin, p5-heat, p5-cos, p10-bin, p10-heat, p10-cos]`).
    pub ensemble_weights: Vec<f64>,
}

/// Run RMC on assembled multi-type data.
///
/// # Errors
/// Propagates engine failures ([`crate::RhchmeError`]).
pub fn run_rmc(data: &MultiTypeData, cfg: &RmcConfig) -> Result<RmcResult> {
    let features = data.all_features();
    let candidates = rmc_candidates(&features, cfg.laplacian_kind, None)?;
    let g0 = init_membership(data, &features, cfg.seed);
    let r = data.assemble_r_csr();
    let engine_cfg = EngineConfig {
        lambda: cfg.lambda,
        use_error_matrix: false,
        l1_row_normalize: false,
        max_iter: cfg.max_iter,
        tol: cfg.tol,
        record_labels_for_type: cfg.record_doc_labels.then_some(0),
        ..EngineConfig::default()
    };
    let reg = GraphRegularizer::Ensemble {
        candidates,
        mu: cfg.mu,
    };
    let out = run_engine(&r, data, &reg, g0, &engine_cfg)?;
    let ensemble_weights = out.ensemble_weights.clone().unwrap_or_default();
    Ok(RmcResult {
        clustering: package_result(data, out),
        ensemble_weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    #[test]
    fn rmc_clusters_and_weights_on_simplex() {
        let corpus = generate(&CorpusConfig {
            docs_per_class: vec![10, 10],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 45),
            background_frac: 0.25,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 43,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        let res = run_rmc(
            &data,
            &RmcConfig {
                lambda: 0.5,
                max_iter: 25,
                ..RmcConfig::default()
            },
        )
        .unwrap();
        let f = mtrl_metrics::fscore(&corpus.labels, &res.clustering.doc_labels);
        assert!(f > 0.7, "fscore {f}");
        assert_eq!(res.ensemble_weights.len(), 6);
        let sum: f64 = res.ensemble_weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum {sum}");
        assert!(res.ensemble_weights.iter().all(|&b| b >= 0.0));
    }
}
