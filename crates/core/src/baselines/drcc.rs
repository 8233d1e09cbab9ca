//! DRCC — Dual Regularized Co-Clustering (Gu & Zhou, ref \[1\]).
//!
//! The paper's two-way baseline: co-cluster documents against a *single*
//! feature space with graph regularisation on both sides,
//!
//! ```text
//! min ‖R − G S Fᵀ‖²_F + λ·tr(Gᵀ L_G G) + μ·tr(Fᵀ L_F F),   G, F ≥ 0
//! ```
//!
//! run in three flavours (Sec. IV-B): **DR-T** on document–term, **DR-C**
//! on document–concept, and **DR-TC** on the concatenated feature space.
//! Unlike HOCC it cannot exploit the inter-relatedness between the term
//! and concept cluster structures — which is precisely the paper's point.

use crate::engine::GRAM_RIDGE;
use crate::error::RhchmeError;
use crate::kmeans::{kmeans, labels_to_membership};
use crate::Result;
use mtrl_graph::{laplacian_csr, pnn_graph, GraphBackend, LaplacianKind, WeightScheme};
use mtrl_linalg::norms::frobenius_sq_diff;
use mtrl_linalg::ops::{gram, matmul, matmul_tn};
use mtrl_linalg::parts::split_parts;
use mtrl_linalg::solve::ridge_inverse;
use mtrl_linalg::{Mat, EPS};
use mtrl_sparse::Csr;

/// Which feature space DRCC clusters against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrccVariant {
    /// Document–term matrix (DR-T).
    Terms,
    /// Document–concept matrix (DR-C).
    Concepts,
    /// Concatenated `[terms | concepts]` (DR-TC).
    TermsAndConcepts,
}

/// DRCC configuration.
#[derive(Debug, Clone)]
pub(crate) struct DrccConfig {
    /// Sample-side (document) graph weight λ.
    pub lambda: f64,
    /// Feature-side graph weight μ.
    pub mu: f64,
    /// Number of document clusters.
    pub doc_clusters: usize,
    /// Number of feature clusters.
    pub feature_clusters: usize,
    /// pNN neighbour count for both graphs.
    pub p: usize,
    /// Iteration budget.
    pub max_iter: usize,
    /// Relative objective-change tolerance.
    pub tol: f64,
    /// RNG seed for the k-means initialisations.
    pub seed: u64,
    /// Record per-iteration document labels.
    pub record_doc_labels: bool,
}

impl Default for DrccConfig {
    fn default() -> Self {
        DrccConfig {
            lambda: 0.5,
            mu: 0.5,
            doc_clusters: 2,
            feature_clusters: 10,
            p: 5,
            max_iter: 100,
            tol: 1e-6,
            seed: 2015,
            record_doc_labels: false,
        }
    }
}

/// DRCC output.
#[derive(Debug, Clone)]
pub(crate) struct DrccResult {
    /// Document cluster labels.
    pub doc_labels: Vec<usize>,
    /// Objective per iteration.
    pub objective_trace: Vec<f64>,
    /// Per-iteration document labels (empty unless requested).
    pub label_trace: Vec<Vec<usize>>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Build the DRCC input matrix for a variant from a corpus.
pub(crate) fn variant_matrix(corpus: &mtrl_datagen::MultiTypeCorpus, variant: DrccVariant) -> Mat {
    match variant {
        DrccVariant::Terms => corpus.doc_term.to_dense(),
        DrccVariant::Concepts => corpus.doc_concept.to_dense(),
        DrccVariant::TermsAndConcepts => corpus
            .doc_term
            .to_dense()
            .hstack(&corpus.doc_concept.to_dense())
            .expect("same document count"),
    }
}

/// Run DRCC on a rectangular nonnegative matrix (`docs x features`).
///
/// # Errors
/// Returns [`RhchmeError::InvalidData`] for degenerate inputs (a
/// relation holding a NaN or infinite value included) and
/// [`RhchmeError::Diverged`] if the iterates become non-finite.
pub(crate) fn run_drcc(r: &Mat, cfg: &DrccConfig) -> Result<DrccResult> {
    let (n, m) = r.shape();
    if n < 2 || m < 2 {
        return Err(RhchmeError::InvalidData(format!(
            "DRCC needs at least a 2x2 relation, got {n}x{m}"
        )));
    }
    if r.has_non_finite() {
        return Err(RhchmeError::InvalidData(
            "DRCC relation matrix has a non-finite value".into(),
        ));
    }
    if r.min() < 0.0 {
        return Err(RhchmeError::InvalidData(
            "DRCC expects a nonnegative relation matrix".into(),
        ));
    }
    let cg = cfg.doc_clusters.clamp(2, n);
    let cf = cfg.feature_clusters.clamp(2, m);

    // Graph Laplacians: documents over rows, features over columns —
    // sparse end to end, like the HOCC engine.
    let l_g = laplacian_csr(
        &pnn_graph(r, cfg.p, WeightScheme::Cosine, &GraphBackend::Exact),
        LaplacianKind::SymNormalized,
    );
    let rt = r.transpose();
    let l_f = laplacian_csr(
        &pnn_graph(&rt, cfg.p, WeightScheme::Cosine, &GraphBackend::Exact),
        LaplacianKind::SymNormalized,
    );
    let (lg_pos, lg_neg) = l_g.split_parts();
    let (lf_pos, lf_neg) = l_f.split_parts();

    // k-means initialisation on both sides.
    let mut g = labels_to_membership(&kmeans(r, cg, cfg.seed, 50).labels, cg, 0.2);
    let mut f = labels_to_membership(&kmeans(&rt, cf, cfg.seed + 1, 50).labels, cf, 0.2);

    let mut objective_trace = Vec::with_capacity(cfg.max_iter);
    let mut label_trace = Vec::new();
    let mut prev_obj = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for t in 0..cfg.max_iter {
        iterations = t + 1;

        // S = (GᵀG)⁻¹ Gᵀ R F (FᵀF)⁻¹.
        let gram_g = gram(&g);
        let gram_f = gram(&f);
        let ginv = ridge_inverse(&gram_g, GRAM_RIDGE)?;
        let finv = ridge_inverse(&gram_f, GRAM_RIDGE)?;
        let rf = matmul(r, &f)?; // n x cf
        let gtrf = matmul_tn(&g, &rf)?; // cg x cf
        let s = matmul(&matmul(&ginv, &gtrf)?, &finv)?;

        // G update: numerator (RFSᵀ)⁺ + G(SFᵀFSᵀ)⁻ + λ L_G⁻ G, etc.
        let rfst = matmul(&rf, &s.transpose())?; // n x cg
        let sffs = matmul(&matmul(&s, &gram_f)?, &s.transpose())?; // cg x cg
        let (sffs_p, sffs_n) = split_parts(&sffs);
        update_factor(
            &mut g, &rfst, &sffs_p, &sffs_n, &lg_pos, &lg_neg, cfg.lambda,
        )?;
        if g.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // F update: numerator (RᵀGS)⁺ + F(SᵀGᵀGS)⁻ + μ L_F⁻ F.
        let gs = matmul(&g, &s)?; // n x cf
        let rtgs = matmul_tn(r, &gs)?; // m x cf
        let sggs = matmul_tn(&s, &matmul(&gram(&g), &s)?)?; // cf x cf
        let (sggs_p, sggs_n) = split_parts(&sggs);
        update_factor(&mut f, &rtgs, &sggs_p, &sggs_n, &lf_pos, &lf_neg, cfg.mu)?;
        if f.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // Objective: sparse quadratic forms, no L·G materialisation.
        let recon = g_s_gt_rect(&g, &s, &f)?;
        let fit = frobenius_sq_diff(r, &recon);
        let obj = fit + cfg.lambda * l_g.quad_form(&g) + cfg.mu * l_f.quad_form(&f);
        objective_trace.push(obj);
        if cfg.record_doc_labels {
            label_trace.push(argmax_labels(&g));
        }
        if t > 0 && (prev_obj - obj).abs() / prev_obj.abs().max(1.0) < cfg.tol {
            converged = true;
            break;
        }
        prev_obj = obj;
    }

    Ok(DrccResult {
        doc_labels: argmax_labels(&g),
        objective_trace,
        label_trace,
        iterations,
        converged,
    })
}

/// Multiplicative update shared by the `G` and `F` steps:
/// `X ← X ∘ sqrt((P⁺ + X·N⁻ + w·L⁻X) / (P⁻ + X·N⁺ + w·L⁺X))`.
fn update_factor(
    x: &mut Mat,
    p: &Mat,
    n_pos: &Mat,
    n_neg: &Mat,
    l_pos: &Csr,
    l_neg: &Csr,
    w: f64,
) -> Result<()> {
    let xn_pos = matmul(x, n_pos)?;
    let xn_neg = matmul(x, n_neg)?;
    let lx_pos = l_pos.spmm_dense(x);
    let lx_neg = l_neg.spmm_dense(x);
    let c = x.cols();
    for i in 0..x.rows() {
        let prow = p.row(i);
        let xnp = xn_pos.row(i);
        let xnn = xn_neg.row(i);
        let lxp = lx_pos.row(i);
        let lxn = lx_neg.row(i);
        let xrow = x.row_mut(i);
        for j in 0..c {
            let num = prow[j].max(0.0) + xnn[j] + w * lxn[j];
            let den = (-prow[j]).max(0.0) + xnp[j] + w * lxp[j];
            xrow[j] *= ((num + EPS) / (den + EPS)).sqrt();
        }
    }
    Ok(())
}

/// `G S Fᵀ` for rectangular factors.
fn g_s_gt_rect(g: &Mat, s: &Mat, f: &Mat) -> Result<Mat> {
    let gs = matmul(g, s)?;
    Ok(mtrl_linalg::ops::matmul_nt(&gs, f)?)
}

fn argmax_labels(m: &Mat) -> Vec<usize> {
    (0..m.rows())
        .map(|i| mtrl_linalg::vecops::argmax(m.row(i)).unwrap_or(0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    fn corpus() -> mtrl_datagen::MultiTypeCorpus {
        generate(&CorpusConfig {
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
            seed: 44,
        })
    }

    #[test]
    fn drt_clusters_clean_data() {
        let c = corpus();
        let r = variant_matrix(&c, DrccVariant::Terms);
        let res = run_drcc(
            &r,
            &DrccConfig {
                doc_clusters: 2,
                feature_clusters: 6,
                max_iter: 40,
                ..DrccConfig::default()
            },
        )
        .unwrap();
        let f = mtrl_metrics::fscore(&c.labels, &res.doc_labels);
        assert!(f > 0.7, "fscore {f}");
    }

    #[test]
    fn objective_decreases() {
        let c = corpus();
        let r = variant_matrix(&c, DrccVariant::Concepts);
        let res = run_drcc(
            &r,
            &DrccConfig {
                doc_clusters: 2,
                feature_clusters: 4,
                max_iter: 25,
                ..DrccConfig::default()
            },
        )
        .unwrap();
        let t = &res.objective_trace;
        assert!(t.last().unwrap() <= &(t[0] * (1.0 + 1e-6)));
    }

    #[test]
    fn variants_have_expected_widths() {
        let c = corpus();
        assert_eq!(variant_matrix(&c, DrccVariant::Terms).cols(), 60);
        assert_eq!(variant_matrix(&c, DrccVariant::Concepts).cols(), 15);
        assert_eq!(variant_matrix(&c, DrccVariant::TermsAndConcepts).cols(), 75);
    }

    #[test]
    fn rejects_bad_input() {
        let tiny = Mat::zeros(1, 5);
        assert!(run_drcc(&tiny, &DrccConfig::default()).is_err());
        let neg = Mat::from_vec(2, 2, vec![1.0, -0.5, 0.0, 1.0]).unwrap();
        assert!(run_drcc(&neg, &DrccConfig::default()).is_err());
    }
}
