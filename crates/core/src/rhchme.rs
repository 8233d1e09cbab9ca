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
//!
//! Steps 1, 4 and the pNN half of step 3 are staged once, after SPG,
//! as [`crate::pipeline::Artifacts`] (on the exact backend, one search
//! per type at depth `p`). A result carries its data, so
//! [`Rhchme::export_model`] takes no corpus.

use crate::engine::{run_engine, EngineConfig, EngineResult, GraphRegularizer};
use crate::export::FittedModel;
use crate::intra::subspace_laplacians;
use crate::kmeans::{kmeans, labels_to_membership};
use crate::multitype::MultiTypeData;
use crate::pipeline::{Artifacts, Method};
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
    /// graph term and DRCC's graph weight is fixed at 0.1).
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
    /// Multiplicative-update iteration budget (every method).
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
    /// The data the fit ran on (its relations are shared, not copied),
    /// which [`Rhchme::export_model`] reads.
    pub data: MultiTypeData,
}

/// Warm-start specification for [`Rhchme::fit_warm`].
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Initial stacked membership `G₀` (block-structured, nonnegative):
    /// rows copied from a previous solution for surviving objects,
    /// fold-in posteriors for new ones.
    pub g0: Mat,
    /// The heterogeneous Laplacian to refit under (e.g. maintained
    /// incrementally by `mtrl-stream`).
    pub laplacian: mtrl_sparse::SparseBlockDiag,
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
        let data = Method::Rhchme.data(corpus, &self.config)?;
        Ok(self.fit_staged(data)?.0)
    }

    /// Fit on arbitrary K-type relational data, handing back the
    /// [`Artifacts`] it staged for a caller that goes on from the fit (a
    /// stream session). Spans: `rhchme.laplacian` (`L_S`) and
    /// `rhchme.kmeans_init` (in the staging) under `rhchme.fit`.
    ///
    /// # Errors
    /// Propagates optimisation errors ([`crate::RhchmeError`]).
    pub fn fit_staged(&self, data: MultiTypeData) -> Result<(RhchmeResult, Artifacts)> {
        let _span = mtrl_obs::span!("rhchme.fit");
        let cfg = &self.config;
        let features = data.all_features();
        // SPG runs before `R` and the graphs are staged, so its scratch
        // is never live beside them.
        let l_sub = {
            let _span = mtrl_obs::span!("rhchme.laplacian");
            subspace_laplacians(&features, &cfg.spg_config(), cfg.laplacian_kind)?
        };
        let arts = Artifacts::stage(features, data, Some(Method::Rhchme), cfg)?;
        let result = arts.run_rhchme_engine(&l_sub, cfg)?;
        Ok((result, arts))
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
    /// clustering inherits (Luong & Nayak). The caller supplies the
    /// Laplacian (e.g. from a `DynamicGraph` maintained incrementally),
    /// so no graph stage runs here; `R` is assembled from `data`.
    ///
    /// # Errors
    /// Returns [`crate::RhchmeError::InvalidData`] when `warm.g0` does
    /// not match `data`'s layout (or is negative), and propagates
    /// optimisation errors.
    pub fn fit_warm(&self, data: &MultiTypeData, warm: WarmStart) -> Result<RhchmeResult> {
        let _span = mtrl_obs::span!("rhchme.fit_warm");
        let engine_cfg = EngineConfig {
            max_iter: warm.max_iter.min(self.config.max_iter).max(1),
            ..Method::Rhchme.engine_config(&self.config)
        };
        let reg = GraphRegularizer::Fixed(warm.laplacian);
        let out = run_engine(&data.assemble_r_csr(), data, &reg, warm.g0, &engine_cfg)?;
        Ok(package_result(data, out))
    }

    /// Export a fitted result as a serving-ready [`FittedModel`]
    /// (membership blocks, association matrix, feature centroids) for the
    /// data it was fitted on.
    ///
    /// # Errors
    /// Returns [`crate::RhchmeError::InvalidData`] when `result`'s `G` or
    /// `S` does not match its data's block layout.
    pub fn export_model(&self, result: &RhchmeResult) -> Result<FittedModel> {
        Ok(crate::export::build_model(self.config.clone(), result)?.with_method("rhchme"))
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

/// Convert an engine result into the public result type, which keeps a
/// handle on `data` (its relations are shared). Public so
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
        data: data.clone(),
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

    /// The heterogeneous Laplacian a cold fit of `arts` runs under.
    fn staged_laplacian(arts: &Artifacts, cfg: &RhchmeConfig) -> mtrl_sparse::SparseBlockDiag {
        let l_sub = arts.subspace_laplacian(cfg).unwrap();
        crate::intra::hetero_laplacian(&l_sub, arts.l_pnn.as_ref().unwrap(), cfg.alpha).unwrap()
    }

    #[test]
    fn warm_fit_from_previous_solution_converges_fast() {
        let corpus = tiny_corpus(0.0, 34);
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let data = Method::Rhchme.data(&corpus, model.config()).unwrap();
        let (cold, arts) = model.fit_staged(data).unwrap();
        let laplacian = staged_laplacian(&arts, model.config());
        // Seeding from the cold solution, a handful of iterations keeps
        // the solution: same labels, objective no worse than the cold end
        // (within the engine's surrogate-descent slack).
        let warm = model
            .fit_warm(
                &arts.data,
                WarmStart {
                    g0: cold.g.clone(),
                    laplacian,
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
        let cfg = RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        };
        let model = Rhchme::new(cfg.clone());
        let data = Method::Rhchme.data(&corpus, &cfg).unwrap();
        let arts = Artifacts::stage(data.all_features(), data, Some(Method::Rhchme), &cfg).unwrap();
        let l = staged_laplacian(&arts, &cfg);
        // From the staged G₀ and Laplacian with the full budget, the warm
        // fit is the cold fit.
        let warm = model
            .fit_warm(
                &arts.data,
                WarmStart {
                    g0: arts.g0.clone(),
                    laplacian: l.clone(),
                    max_iter: cfg.max_iter,
                },
            )
            .unwrap();
        let cold = model.fit_corpus(&corpus).unwrap();
        assert_eq!(warm.doc_labels, cold.doc_labels);
        assert_eq!(warm.objective_trace, cold.objective_trace);
        let res = model
            .fit_warm(
                &arts.data,
                WarmStart {
                    g0: arts.g0.clone(),
                    laplacian: l.clone(),
                    max_iter: 10,
                },
            )
            .unwrap();
        assert!(res.iterations <= 10);
        assert_eq!(res.doc_labels.len(), 24);
        // Bad G0 shape is rejected.
        assert!(model
            .fit_warm(
                &arts.data,
                WarmStart {
                    g0: Mat::zeros(3, 3),
                    laplacian: l,
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
