//! SNMTF — Symmetric NMTF-based HOCC (Wang et al., refs \[5, 6\]).
//!
//! Decomposes the symmetric inter-type matrix with the graph-regularised
//! objective of Eq. (1): `‖R − GSGᵀ‖²_F + λ·tr(GᵀLG)` where `L` comes
//! from a single pNN graph (the paper runs SNMTF with `p = 5`). No error
//! matrix, no ℓ1 row normalisation (the original uses an orthogonality
//! constraint instead; the engine's multiplicative form matches RMC's
//! treatment, see DESIGN.md §3).

use crate::engine::{run_engine, EngineConfig, GraphRegularizer};
use crate::intra::pnn_laplacians_backend_prec;
use crate::multitype::MultiTypeData;
use crate::rhchme::{init_membership, package_result, RhchmeResult};
use crate::Result;
use mtrl_graph::{GraphBackend, LaplacianKind, WeightScheme};
use mtrl_linalg::Precision;

/// SNMTF configuration.
#[derive(Debug, Clone)]
pub struct SnmtfConfig {
    /// Graph regularisation weight λ.
    pub lambda: f64,
    /// pNN neighbour count (paper: 5).
    pub p: usize,
    /// pNN weighting scheme (paper: cosine for text data).
    pub weight_scheme: WeightScheme,
    /// Laplacian normalisation.
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

impl Default for SnmtfConfig {
    fn default() -> Self {
        SnmtfConfig {
            lambda: 1.0,
            p: 5,
            weight_scheme: WeightScheme::Cosine,
            laplacian_kind: LaplacianKind::SymNormalized,
            max_iter: 100,
            tol: 1e-6,
            seed: 2015,
            record_doc_labels: false,
        }
    }
}

/// Run SNMTF on assembled multi-type data.
///
/// # Errors
/// Propagates engine failures ([`crate::RhchmeError`]).
pub fn run_snmtf(data: &MultiTypeData, cfg: &SnmtfConfig) -> Result<RhchmeResult> {
    let features = data.all_features();
    let l = pnn_laplacians_backend_prec(
        &features,
        cfg.p,
        cfg.weight_scheme,
        cfg.laplacian_kind,
        &GraphBackend::Exact,
        Precision::F64,
    )?;
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
    let out = run_engine(&r, data, &GraphRegularizer::Fixed(l), g0, &engine_cfg)?;
    Ok(package_result(data, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    #[test]
    fn snmtf_clusters_clean_data() {
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
            seed: 42,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        let res = run_snmtf(
            &data,
            &SnmtfConfig {
                lambda: 0.5,
                max_iter: 40,
                ..SnmtfConfig::default()
            },
        )
        .unwrap();
        let f = mtrl_metrics::fscore(&corpus.labels, &res.doc_labels);
        assert!(f > 0.7, "fscore {f}");
    }
}
