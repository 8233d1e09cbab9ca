//! The end-to-end RHCHME estimator.
//!
//! Wires together the full pipeline of the paper:
//!
//! 1. assemble `R` and the per-type feature views (Sec. I-A);
//! 2. learn *complete* intra-type relationships with SPG subspace
//!    learning (Sec. III-A);
//! 3. learn *accurate* intra-type relationships by combining them with a
//!    pNN graph into the heterogeneous manifold ensemble (Sec. III-B,
//!    Eq. 12);
//! 4. initialise `G` by per-type k-means;
//! 5. optimise the robust objective (Eq. 15) with Algorithm 2 — sparse
//!    error matrix `E_R`, row-ℓ1 normalised `G`.

use crate::engine::{run_engine, EngineConfig, EngineResult, GraphRegularizer};
use crate::export::FittedModel;
use crate::intra::{hetero_laplacian, pnn_laplacians_backend_prec, subspace_laplacians};
use crate::kmeans::{kmeans, labels_to_membership};
use crate::multitype::MultiTypeData;
use crate::pipeline::Method;
use crate::Result;
use mtrl_graph::{LaplacianKind, WeightScheme};
use mtrl_linalg::block::stack_membership;
use mtrl_linalg::{Mat, Precision};
use mtrl_subspace::SpgConfig;

/// The hyper-parameters of a fit: the one parameter struct of
/// [`Rhchme`], [`crate::pipeline::run_spec`] (every method reads its
/// share), [`crate::pipeline::Artifacts`] and the `mtrl-ensemble` and
/// `mtrl-stream` layers. [`RhchmeConfig::spg_config`] derives stage 1's
/// settings and [`crate::pipeline::Method::engine_config`] a method's
/// engine row from it.
///
/// Defaults are tuned for this workspace's data conventions and map onto
/// the paper's tuned values (Sec. IV-E: λ ≈ 250, γ ∈ [10, 50], α = 1,
/// β = 50, p = 5) as follows: the paper decomposes *raw tf-idf* co-occurrence
/// matrices under an *unnormalized* Laplacian `D − W`, so its fidelity
/// term is orders of magnitude larger than its trace term and λ must be
/// in the hundreds. Here `R` rows are l2-normalised and the Laplacian is
/// symmetric-normalised (spectrum in `[0, 2]`), putting both terms on the
/// same `O(n)` scale — the equivalent operating point is λ ≈ 0.1.
/// Likewise γ trades reconstruction against the `‖WWᵀ‖₁` sparsity on
/// unit-norm rows, shifting its sweet spot from ~25 to ~5. The Fig. 2
/// bench sweeps both grids (README, "Reproducing the paper's evaluation").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RhchmeConfig {
    /// Laplacian regularisation weight λ (SNMTF, RMC, RHCHME; SRC has no
    /// graph term and DRCC's graph weights are fixed at 0.1).
    pub lambda: f64,
    /// Subspace-learning noise tolerance γ (Eq. 9; RHCHME only).
    pub gamma: f64,
    /// Ensemble trade-off α (Eq. 12; RHCHME only).
    pub alpha: f64,
    /// Error-matrix trade-off β (Eq. 15; RHCHME only).
    pub beta: f64,
    /// pNN neighbour count `p` (paper sets 5) of the SNMTF, RHCHME and
    /// DRCC graphs.
    pub p: usize,
    /// pNN weighting (paper uses cosine for `L_E`).
    pub weight_scheme: WeightScheme,
    /// Neighbour-search backend for the pNN graphs (`L_E`): the exact
    /// blocked kernel, or the rp-forest index (`mtrl_graph::ann`) for
    /// large corpora. The index changes candidate generation only;
    /// distances and selection stay bit-identical to the exact kernel.
    /// It belongs to RHCHME alone: SRC, SNMTF and RMC always build exact
    /// graphs (`Method::baseline_regularizer`), so their ensemble members
    /// equal their solo fits under any backend.
    pub graph_backend: mtrl_graph::GraphBackend,
    /// Operand precision; [`Precision`] has the one value `F64`, which
    /// every stage of the fit runs in.
    pub precision: Precision,
    /// Laplacian normalisation (see `mtrl_graph::laplacian`).
    pub laplacian_kind: LaplacianKind,
    /// SPG iteration budget for stage 1.
    pub spg_max_iter: usize,
    /// Multiplicative-update iteration budget (every NMTF method and
    /// DRCC).
    pub max_iter: usize,
    /// Relative objective-change tolerance.
    pub tol: f64,
    /// RNG seed (k-means init + SPG init; the ensemble's member seeds
    /// derive from it).
    pub seed: u64,
    /// Term/concept cluster count divisor (`m / divisor`, clamped to
    /// `[2, 30]`; the paper explores `m/10` – `m/100`).
    pub feature_cluster_divisor: usize,
    /// Record per-iteration document labels (Fig. 3 traces).
    pub record_doc_labels: bool,
}

impl Default for RhchmeConfig {
    fn default() -> Self {
        RhchmeConfig {
            lambda: 0.05,
            gamma: 5.0,
            alpha: 1.0,
            beta: 50.0,
            p: 5,
            weight_scheme: WeightScheme::Cosine,
            graph_backend: mtrl_graph::GraphBackend::Exact,
            precision: Precision::F64,
            laplacian_kind: LaplacianKind::SymNormalized,
            spg_max_iter: 60,
            max_iter: 100,
            tol: 1e-6,
            seed: 2015,
            feature_cluster_divisor: 20,
            record_doc_labels: false,
        }
    }
}

impl RhchmeConfig {
    /// A budget-reduced configuration for tests and doc examples.
    pub fn fast() -> Self {
        RhchmeConfig {
            spg_max_iter: 30,
            max_iter: 30,
            ..RhchmeConfig::default()
        }
    }

    /// Stage 1's SPG settings: this configuration's γ, SPG budget and
    /// seed over the solver's defaults.
    pub fn spg_config(&self) -> SpgConfig {
        SpgConfig {
            gamma: self.gamma,
            max_iter: self.spg_max_iter,
            seed: self.seed,
            ..SpgConfig::default()
        }
    }
}

/// Fitted RHCHME model output.
#[derive(Debug, Clone)]
pub struct RhchmeResult {
    /// Cluster labels of the primary type (documents).
    pub doc_labels: Vec<usize>,
    /// Cluster labels for every type, in type order.
    pub labels_per_type: Vec<Vec<usize>>,
    /// Final membership matrix `G`.
    pub g: Mat,
    /// Final association matrix `S`.
    pub s: Mat,
    /// Objective `J₄` per iteration.
    pub objective_trace: Vec<f64>,
    /// Per-iteration document labels (empty unless requested).
    pub label_trace: Vec<Vec<usize>>,
    /// Row l2 norms of the final error matrix `E_R`.
    pub error_row_norms: Vec<f64>,
    /// The shrunk-active rows of the final `E_R`, stored row-sparsely
    /// (see [`crate::engine::EngineResult::error_rows`]).
    pub error_rows: mtrl_sparse::RowSparse,
    /// Multiplicative-update iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iter`.
    pub converged: bool,
}

/// Warm-start specification for [`Rhchme::fit_warm`].
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Initial stacked membership `G₀` (block-structured, nonnegative):
    /// rows copied from a previous solution for surviving objects,
    /// fold-in posteriors for new ones.
    pub g0: Mat,
    /// Prebuilt heterogeneous Laplacian to reuse (e.g. maintained
    /// incrementally by `mtrl-stream`); `None` recomputes stages 1–2
    /// from the configuration exactly as [`Rhchme::fit_data`] does.
    pub laplacian: Option<mtrl_sparse::SparseBlockDiag>,
    /// Iteration cap for the refresh (clamped to the configuration's
    /// `max_iter` and at least 1).
    pub max_iter: usize,
}

/// The RHCHME estimator.
#[derive(Debug, Clone)]
pub struct Rhchme {
    config: RhchmeConfig,
}

impl Rhchme {
    /// Create an estimator with the given configuration.
    pub fn new(config: RhchmeConfig) -> Self {
        Rhchme { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &RhchmeConfig {
        &self.config
    }

    /// Fit on a generated corpus (documents / terms / concepts).
    ///
    /// # Errors
    /// Propagates data-assembly and optimisation errors.
    pub fn fit_corpus(&self, corpus: &mtrl_datagen::MultiTypeCorpus) -> Result<RhchmeResult> {
        let data = MultiTypeData::from_corpus(corpus, self.config.feature_cluster_divisor)?;
        self.fit_data(&data)
    }

    /// Fit on arbitrary K-type relational data.
    ///
    /// # Errors
    /// Propagates optimisation errors ([`crate::RhchmeError`]).
    pub fn fit_data(&self, data: &MultiTypeData) -> Result<RhchmeResult> {
        let _span = mtrl_obs::span!("rhchme.fit");
        let cfg = &self.config;
        let features = data.all_features();
        let l = self.full_laplacian(&features)?;
        let g0 = {
            let _init_span = mtrl_obs::span!("rhchme.kmeans_init");
            init_membership(data, &features, cfg.seed)
        };
        self.run_with(data, l, g0, cfg.max_iter)
    }

    /// Warm-started mini-batch refresh: re-optimise on updated data from
    /// a previous solution instead of a cold k-means initialisation.
    ///
    /// The multiplicative update of Algorithm 2 is a fixed-point
    /// iteration, so a `G₀` seeded from a previous factorisation (rows
    /// copied for surviving objects, fold-in posteriors for new ones —
    /// see `mtrl_stream::warm_membership`) starts close to the optimum
    /// and `warm.max_iter` can be a fraction of a cold run's budget —
    /// the warm-start property matrix-factorisation multi-aspect
    /// clustering inherits (Luong & Nayak). `warm.laplacian` lets the
    /// caller reuse incrementally maintained graph artifacts (e.g. a
    /// `DynamicGraph` Laplacian) instead of recomputing stages 1–2; when
    /// `None`, both stages run exactly as in [`Self::fit_data`].
    ///
    /// # Errors
    /// Returns [`crate::RhchmeError::InvalidData`] when `warm.g0` does
    /// not match `data`'s layout (or is negative), and propagates
    /// optimisation errors.
    pub fn fit_warm(&self, data: &MultiTypeData, warm: WarmStart) -> Result<RhchmeResult> {
        let _span = mtrl_obs::span!("rhchme.fit_warm");
        let l = match warm.laplacian {
            Some(l) => l,
            None => self.full_laplacian(&data.all_features())?,
        };
        let max_iter = warm.max_iter.min(self.config.max_iter).max(1);
        self.run_with(data, l, warm.g0, max_iter)
    }

    /// Stages 1 & 2 of the paper: subspace Laplacians, pNN Laplacians,
    /// and their heterogeneous ensemble (Eq. 12), per this config.
    fn full_laplacian(&self, features: &[Mat]) -> Result<mtrl_sparse::SparseBlockDiag> {
        let _span = mtrl_obs::span!("rhchme.laplacian");
        let cfg = &self.config;
        let l_s = subspace_laplacians(features, &cfg.spg_config(), cfg.laplacian_kind)?;
        let l_e = pnn_laplacians_backend_prec(
            features,
            cfg.p,
            cfg.weight_scheme,
            cfg.laplacian_kind,
            &cfg.graph_backend,
            cfg.precision,
        )?;
        hetero_laplacian(&l_s, &l_e, cfg.alpha)
    }

    /// Shared optimisation tail: assemble `R` (sparse — the engine is
    /// sparse-first and no `n x n` dense matrix is formed), run
    /// Algorithm 2 with the given regulariser, initial membership and
    /// iteration budget.
    fn run_with(
        &self,
        data: &MultiTypeData,
        l: mtrl_sparse::SparseBlockDiag,
        g0: Mat,
        max_iter: usize,
    ) -> Result<RhchmeResult> {
        let r = data.assemble_r_csr();
        let engine_cfg = EngineConfig {
            max_iter,
            ..Method::Rhchme.engine_config(&self.config)?
        };
        let engine_out = run_engine(&r, data, &GraphRegularizer::Fixed(l), g0, &engine_cfg)?;
        Ok(package_result(data, engine_out))
    }

    /// Export a fitted result as a serving-ready [`FittedModel`]
    /// (membership blocks, association matrix, feature centroids) for the
    /// corpus it was fitted on.
    ///
    /// # Errors
    /// Propagates data-assembly errors and shape mismatches between
    /// `result` and the corpus layout.
    pub fn export_model(
        &self,
        result: &RhchmeResult,
        corpus: &mtrl_datagen::MultiTypeCorpus,
    ) -> Result<FittedModel> {
        let data = MultiTypeData::from_corpus(corpus, self.config.feature_cluster_divisor)?;
        self.export_model_from_data(result, &data)
    }

    /// [`Self::export_model`] for arbitrary K-type relational data.
    ///
    /// # Errors
    /// Returns [`crate::RhchmeError::InvalidData`] when `result` does not
    /// match `data`'s block layout.
    pub fn export_model_from_data(
        &self,
        result: &RhchmeResult,
        data: &MultiTypeData,
    ) -> Result<FittedModel> {
        Ok(crate::export::build_model(self.config.clone(), result, data)?.with_method("rhchme"))
    }
}

/// k-means++ initialisation of the stacked membership matrix (Algorithm 2
/// input), one block per type.
pub fn init_membership(data: &MultiTypeData, features: &[Mat], seed: u64) -> Mat {
    let blocks: Vec<Mat> = features
        .iter()
        .zip(data.cluster_counts())
        .enumerate()
        .map(|(k, (f, &ck))| {
            let km = kmeans(f, ck, seed.wrapping_add(k as u64), 50);
            labels_to_membership(&km.labels, ck, 0.2)
        })
        .collect();
    stack_membership(&blocks)
}

/// Convert an engine result into the public result type. Public so
/// method layers built on [`crate::engine::run_engine`] (the pipeline's
/// baseline arms, the `mtrl-ensemble` generator) can package their fits
/// uniformly.
pub fn package_result(data: &MultiTypeData, out: EngineResult) -> RhchmeResult {
    let labels_per_type: Vec<Vec<usize>> = (0..data.num_types())
        .map(|k| data.labels_from_membership(&out.g, k))
        .collect();
    RhchmeResult {
        doc_labels: labels_per_type[0].clone(),
        labels_per_type,
        g: out.g,
        s: out.s,
        objective_trace: out.objective_trace,
        label_trace: out.label_trace,
        error_row_norms: out.error_row_norms,
        error_rows: out.error_rows,
        iterations: out.iterations,
        converged: out.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    fn tiny_corpus(corrupt: f64, seed: u64) -> mtrl_datagen::MultiTypeCorpus {
        generate(&CorpusConfig {
            docs_per_class: vec![8, 8, 8],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 45),
            background_frac: 0.25,
            topic_noise: 0.25,
            concept_map_noise: 0.1,
            corrupt_frac: corrupt,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed,
        })
    }

    #[test]
    fn fits_tiny_corpus_reasonably() {
        let corpus = tiny_corpus(0.0, 31);
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let res = model.fit_corpus(&corpus).unwrap();
        assert_eq!(res.doc_labels.len(), 24);
        assert_eq!(res.labels_per_type.len(), 3);
        let f = mtrl_metrics::fscore(&corpus.labels, &res.doc_labels);
        assert!(f > 0.6, "fscore {f}");
        // Objective decreases overall.
        let t = &res.objective_trace;
        assert!(t.last().unwrap() <= t.first().unwrap());
    }

    #[test]
    fn label_trace_when_requested() {
        let corpus = tiny_corpus(0.0, 32);
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            max_iter: 5,
            tol: 0.0,
            record_doc_labels: true,
            ..RhchmeConfig::fast()
        });
        let res = model.fit_corpus(&corpus).unwrap();
        assert_eq!(res.label_trace.len(), res.iterations);
    }

    #[test]
    fn warm_fit_from_previous_solution_converges_fast() {
        let corpus = tiny_corpus(0.0, 34);
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let cold = model.fit_corpus(&corpus).unwrap();
        let data = crate::multitype::MultiTypeData::from_corpus(&corpus, 20).unwrap();
        // Seeding from the cold solution, a handful of iterations keeps
        // the solution: same labels, objective no worse than the cold end
        // (within the engine's surrogate-descent slack).
        let warm = model
            .fit_warm(
                &data,
                WarmStart {
                    g0: cold.g.clone(),
                    laplacian: None,
                    max_iter: 5,
                },
            )
            .unwrap();
        assert!(warm.iterations <= 5);
        assert_eq!(warm.doc_labels, cold.doc_labels);
        let cold_final = *cold.objective_trace.last().unwrap();
        let warm_final = *warm.objective_trace.last().unwrap();
        assert!(
            warm_final <= cold_final * 1.01 + 1e-9,
            "warm {warm_final} vs cold {cold_final}"
        );
    }

    #[test]
    fn warm_fit_accepts_prebuilt_laplacian() {
        let corpus = tiny_corpus(0.0, 35);
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let data = crate::multitype::MultiTypeData::from_corpus(&corpus, 20).unwrap();
        let features = data.all_features();
        let l = crate::intra::pnn_laplacians_backend_prec(
            &features,
            5,
            mtrl_graph::WeightScheme::Cosine,
            mtrl_graph::LaplacianKind::SymNormalized,
            &mtrl_graph::GraphBackend::Exact,
            Default::default(),
        )
        .unwrap();
        let g0 = init_membership(&data, &features, 35);
        let res = model
            .fit_warm(
                &data,
                WarmStart {
                    g0,
                    laplacian: Some(l),
                    max_iter: 10,
                },
            )
            .unwrap();
        assert!(res.iterations <= 10);
        assert_eq!(res.doc_labels.len(), 24);
        // Bad G0 shape is rejected.
        assert!(model
            .fit_warm(
                &data,
                WarmStart {
                    g0: Mat::zeros(3, 3),
                    laplacian: None,
                    max_iter: 5
                }
            )
            .is_err());
    }

    #[test]
    fn deterministic() {
        let corpus = tiny_corpus(0.05, 33);
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            max_iter: 10,
            ..RhchmeConfig::fast()
        });
        let a = model.fit_corpus(&corpus).unwrap();
        let b = model.fit_corpus(&corpus).unwrap();
        assert_eq!(a.doc_labels, b.doc_labels);
        assert_eq!(a.objective_trace, b.objective_trace);
    }
}
