//! One-call experiment runners and the method table.
//!
//! [`run_spec`] executes a [`MethodSpec`] on a corpus under one
//! [`RhchmeConfig`] and returns labels, traces and wall time. The
//! heavyweight intermediates (assembled `R`, feature views, pNN
//! Laplacians, subspace Laplacians) are also exposed through
//! [`Artifacts`] so parameter sweeps recompute only what a swept
//! parameter actually touches (Fig. 2).
//!
//! # Method dispatch
//!
//! [`MethodSpec`] is the one specification type: `MethodSpec::Base(Method)`
//! wraps the seven paper methods and [`MethodSpec::Ensemble`] carries an
//! [`EnsembleSpec`] (the consensus-ensemble configuration). [`run_spec`]
//! here runs the seven base methods. `mtrl_ensemble::run_spec` runs
//! ensemble specs and delegates every base spec back here, so callers
//! that may receive either kind (the eval runner, demos) dispatch
//! through it. [`MethodOutput::method`] records the spec; use
//! [`MethodSpec::key`] for stable report keys.
//!
//! # The method table
//!
//! SRC, SNMTF, RMC and RHCHME are one NMTF objective (Eqs. 1, 2, 15) on
//! one engine; they differ in the intra-type regulariser and in whether
//! the `E_R` and row-ℓ1 terms are on (the table in [`crate::engine`]).
//! Every method reads its parameters from one [`RhchmeConfig`],
//! [`Method::engine_config`] is the one place a method's
//! [`EngineConfig`] row is written, and
//! [`Method::baseline_regularizer`] builds the SRC, SNMTF and RMC graph
//! regularisers. Every fit of these four methods builds its engine input
//! there: [`run_spec`], [`Rhchme`],
//! [`Artifacts::run_rhchme_engine`] and the `mtrl-ensemble` members. The
//! graph backend belongs to RHCHME alone, so an ensemble
//! member equals the solo fit of its method at the same seed and
//! cluster counts. The rows and their paper references:
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
//! their graphs exact; the graph backend belongs to RHCHME.
//!
//! DRCC (ref \[1\]) has its own two-type solver (`baselines::drcc`) and
//! runs as DR-T (terms), DR-C (concepts) and DR-TC (concatenated).
//!
//! The baselines' own weights are constants at their Sec. IV-B values,
//! not [`RhchmeConfig`] fields: RMC's simplex penalty μ = 1
//! ([`RMC_MU`]) and DRCC's graph weights λ = μ = 0.1. The parameters a
//! sweep varies are the paper's tuned λ, γ, α, β and p (Sec. IV-E).

use crate::baselines::{run_drcc, variant_matrix, DrccConfig, DrccVariant};
use crate::engine::{run_engine, EngineConfig, EngineResult, GraphRegularizer};
use crate::intra::{
    exact_neighbours, hetero_laplacian, pnn_laplacians_backend_prec, pnn_laplacians_ranked,
    rmc_candidates, rmc_candidates_ranked, subspace_laplacians, RankedLists,
};
use crate::multitype::MultiTypeData;
use crate::rhchme::{init_membership, package_result, Rhchme, RhchmeConfig};
use crate::{Result, RhchmeError};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_graph::GraphBackend;
use mtrl_linalg::Mat;
use mtrl_sparse::SparseBlockDiag;
use std::time::{Duration, Instant};

/// The seven methods of Tables III–V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// DRCC on document–term (two-way baseline).
    DrT,
    /// DRCC on document–concept.
    DrC,
    /// DRCC on the concatenated feature space.
    DrTC,
    /// Spectral Relational Clustering (inter-type only).
    Src,
    /// Symmetric NMTF with a single pNN Laplacian.
    Snmtf,
    /// Relational multi-manifold co-clustering (pNN ensemble).
    Rmc,
    /// The paper's method.
    Rhchme,
}

impl Method {
    /// All methods in the paper's table order.
    pub fn all() -> [Method; 7] {
        [
            Method::DrT,
            Method::DrC,
            Method::DrTC,
            Method::Src,
            Method::Snmtf,
            Method::Rmc,
            Method::Rhchme,
        ]
    }

    /// Paper row label.
    pub fn paper_name(self) -> &'static str {
        match self {
            Method::DrT => "DR-T",
            Method::DrC => "DR-C",
            Method::DrTC => "DR-TC",
            Method::Src => "SRC",
            Method::Snmtf => "SNMTF",
            Method::Rmc => "RMC",
            Method::Rhchme => "RHCHME",
        }
    }

    /// Whether this is a high-order (multi-type) method.
    pub fn is_hocc(self) -> bool {
        !matches!(self, Method::DrT | Method::DrC | Method::DrTC)
    }

    /// Stable lower-case key used in reports and scenario names.
    pub fn key(self) -> &'static str {
        match self {
            Method::DrT => "dr_t",
            Method::DrC => "dr_c",
            Method::DrTC => "dr_tc",
            Method::Src => "src",
            Method::Snmtf => "snmtf",
            Method::Rmc => "rmc",
            Method::Rhchme => "rhchme",
        }
    }

    /// This method's row of the engine table (see the module docs for
    /// each row's paper reference): the [`EngineConfig`] every fit of
    /// SRC, SNMTF, RMC or RHCHME runs with.
    ///
    /// The four rows share `cfg`'s iteration budget, tolerance and label
    /// recording. SRC has no graph term (λ = 0); SNMTF and RMC weight
    /// theirs by `cfg.lambda`. Only RHCHME turns on the error matrix
    /// `E_R` (weight `cfg.beta`) and the row-ℓ1 normalisation.
    ///
    /// # Errors
    /// [`RhchmeError::InvalidConfig`] for the DRCC variants, which have
    /// their own solver.
    pub fn engine_config(self, cfg: &RhchmeConfig) -> Result<EngineConfig> {
        let (lambda, robust) = match self {
            Method::Src => (0.0, false),
            Method::Snmtf | Method::Rmc => (cfg.lambda, false),
            Method::Rhchme => (cfg.lambda, true),
            Method::DrT | Method::DrC | Method::DrTC => {
                return Err(RhchmeError::InvalidConfig(format!(
                    "{} is not an NMTF engine method",
                    self.paper_name()
                )))
            }
        };
        Ok(EngineConfig {
            lambda,
            beta: if robust { cfg.beta } else { 0.0 },
            use_error_matrix: robust,
            l1_row_normalize: robust,
            max_iter: cfg.max_iter,
            tol: cfg.tol,
            record_labels_for_type: cfg.record_doc_labels.then_some(0),
            ..EngineConfig::default()
        })
    }

    /// SRC's, SNMTF's or RMC's graph regulariser on `features`: none, the
    /// pNN Laplacian of RHCHME's `L_E` recipe, or RMC's six candidates —
    /// all built exact, since the graph backend belongs to RHCHME. A
    /// caller that holds the [`Artifacts`] of the same features and
    /// `cfg` passes them as `shared`; their `L_E` is reused where it
    /// is the same graph (an exact `L_E`, and for RMC only at `p = 5`),
    /// and RMC's candidates reuse their exact neighbour search.
    ///
    /// # Errors
    /// [`RhchmeError::InvalidConfig`] for RHCHME (its regulariser is the
    /// heterogeneous ensemble) and the DRCC variants; propagates graph
    /// construction failures.
    pub fn baseline_regularizer(
        self,
        features: &[Mat],
        cfg: &RhchmeConfig,
        shared: Option<&Artifacts>,
    ) -> Result<GraphRegularizer> {
        let exact_l_e = shared
            .map(|arts| &arts.l_pnn)
            .filter(|_| cfg.graph_backend.is_exact());
        match self {
            Method::Src => Ok(GraphRegularizer::None),
            Method::Snmtf => Ok(GraphRegularizer::Fixed(match exact_l_e {
                Some(l) => l.clone(),
                None => pnn_laplacians_backend_prec(
                    features,
                    cfg.p,
                    cfg.weight_scheme,
                    cfg.laplacian_kind,
                    &GraphBackend::Exact,
                    Default::default(),
                )?,
            })),
            Method::Rmc => {
                let pnn5_cosine = exact_l_e.filter(|_| cfg.p == 5);
                let candidates = match shared.and_then(|arts| arts.ranked.as_ref()) {
                    Some(ranked) => {
                        rmc_candidates_ranked(features, ranked, cfg.laplacian_kind, pnn5_cosine)?
                    }
                    None => rmc_candidates(features, cfg.laplacian_kind, pnn5_cosine)?,
                };
                Ok(GraphRegularizer::Ensemble {
                    candidates,
                    mu: RMC_MU,
                })
            }
            _ => Err(RhchmeError::InvalidConfig(format!(
                "{} has no baseline graph regulariser",
                self.paper_name()
            ))),
        }
    }
}

/// Configuration of the consensus-ensemble method layer (`mtrl-ensemble`).
///
/// This is plain specification data: `crates/core` defines it so one
/// [`MethodSpec`] type spans the whole workspace, while the execution
/// lives in the `mtrl-ensemble` crate (`mtrl_ensemble::run_spec`).
/// The merge is fixed: the anchor-selected probability-trajectory walk,
/// with the k-hyperedge-medoid labels scored as one more anchor and
/// used alone only when every walk degenerates.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSpec {
    /// Number of base partitions to generate.
    pub members: usize,
    /// Method pool cycled round-robin across members. Member 0 always
    /// uses `pool[0]` with the canonical seed and cluster counts, so the
    /// merge has at least one same-k anchor candidate; the merge then
    /// selects the best-scoring anchor among all same-k members.
    pub pool: Vec<Method>,
    /// Perturb the document cluster count of odd-indexed members by
    /// drawing k uniformly from `[c, 2c]` (clamped to the corpus size);
    /// even-indexed members keep the canonical count so the merge always
    /// has same-k anchor candidates.
    pub random_k: bool,
    /// Co-cluster neighbours kept per object in the sparse
    /// co-association structure (its row budget; no n×n is built).
    pub coassoc_p: usize,
    /// Probability-trajectory walk length T.
    pub walk_steps: usize,
    /// Per-step decay θ of the trajectory vote memory
    /// `E_t = θ·E_{t-1} + W·onehot(labels_{t-1})`.
    pub walk_decay: f64,
    /// Posterior smoothing of the exported consensus membership blocks.
    pub smoothing: f64,
}

impl Default for EnsembleSpec {
    fn default() -> Self {
        EnsembleSpec {
            members: 8,
            pool: vec![Method::Rhchme, Method::Snmtf, Method::Rmc, Method::Src],
            random_k: true,
            coassoc_p: 12,
            walk_steps: 3,
            walk_decay: 0.8,
            smoothing: 0.2,
        }
    }
}

/// Open method specification — see the module docs for the
/// `Method` → `MethodSpec` migration contract.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodSpec {
    /// One of the seven paper methods, executed by [`run_spec`] here.
    Base(Method),
    /// The consensus-ensemble layer, executed by `mtrl_ensemble::run_spec`.
    Ensemble(EnsembleSpec),
}

impl From<Method> for MethodSpec {
    fn from(method: Method) -> Self {
        MethodSpec::Base(method)
    }
}

impl From<EnsembleSpec> for MethodSpec {
    fn from(spec: EnsembleSpec) -> Self {
        MethodSpec::Ensemble(spec)
    }
}

impl MethodSpec {
    /// The default consensus-ensemble spec.
    pub fn ensemble() -> Self {
        MethodSpec::Ensemble(EnsembleSpec::default())
    }

    /// Stable lower-case key used in reports, scenario names and model
    /// provenance (`FittedModel::method`).
    pub fn key(&self) -> &'static str {
        match self {
            MethodSpec::Base(m) => m.key(),
            MethodSpec::Ensemble(_) => "ensemble",
        }
    }
}

/// RMC's quadratic penalty μ on its ensemble weights `β` (Eq. 2; the
/// Sec. IV-B setting).
pub const RMC_MU: f64 = 1.0;

/// DRCC's document-side graph weight λ (Sec. IV-B).
const DRCC_LAMBDA: f64 = 0.1;

/// DRCC's feature-side graph weight μ (Sec. IV-B).
const DRCC_MU: f64 = 0.1;

/// Another name for [`RhchmeConfig`], kept because the `perfbench/`
/// harness names it.
pub type PipelineParams = RhchmeConfig;

/// Unified method output for the benches and the evaluation layer,
/// which scores `doc_labels` with `mtrl_metrics::quality_scores`.
#[derive(Debug, Clone)]
pub struct MethodOutput {
    /// Which method produced this output.
    pub method: MethodSpec,
    /// Document cluster labels.
    pub doc_labels: Vec<usize>,
    /// Objective per iteration.
    pub objective_trace: Vec<f64>,
    /// Per-iteration document labels (empty unless requested).
    pub label_trace: Vec<Vec<usize>>,
    /// Wall-clock time of the full run (including intra-type learning).
    pub elapsed: Duration,
    /// Iterations performed by the main optimisation.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Run a [`MethodSpec`] end to end on a corpus under `cfg`; each method
/// reads its share of the configuration (see the field docs of
/// [`RhchmeConfig`]). A fitted RHCHME model exports through
/// [`Rhchme::export_model`].
///
/// This crate executes the seven base methods. [`MethodSpec::Ensemble`]
/// is implemented by the `mtrl-ensemble` crate; pass ensemble specs to
/// `mtrl_ensemble::run_spec` (which delegates base specs back here) —
/// this function returns [`crate::RhchmeError::InvalidConfig`] for them.
///
/// # Errors
/// Propagates data-assembly and optimisation errors, and rejects
/// [`MethodSpec::Ensemble`] as described above.
pub fn run_spec(
    corpus: &MultiTypeCorpus,
    spec: &MethodSpec,
    cfg: &RhchmeConfig,
) -> Result<MethodOutput> {
    let method = match spec {
        MethodSpec::Base(m) => *m,
        MethodSpec::Ensemble(_) => {
            return Err(RhchmeError::InvalidConfig(
                "MethodSpec::Ensemble is executed by mtrl_ensemble::run_spec; \
                 rhchme::pipeline::run_spec dispatches only the seven base methods"
                    .into(),
            ))
        }
    };
    let start = Instant::now();
    let out = match method {
        Method::DrT | Method::DrC | Method::DrTC => {
            let variant = match method {
                Method::DrT => DrccVariant::Terms,
                Method::DrC => DrccVariant::Concepts,
                _ => DrccVariant::TermsAndConcepts,
            };
            let r = variant_matrix(corpus, variant);
            let div = cfg.feature_cluster_divisor.max(1);
            let res = run_drcc(
                &r,
                &DrccConfig {
                    lambda: DRCC_LAMBDA,
                    mu: DRCC_MU,
                    doc_clusters: corpus.num_classes,
                    feature_clusters: (r.cols() / div).clamp(2, 30),
                    p: cfg.p,
                    max_iter: cfg.max_iter,
                    tol: cfg.tol,
                    seed: cfg.seed,
                    record_doc_labels: cfg.record_doc_labels,
                },
            )?;
            MethodOutput {
                method: MethodSpec::Base(method),
                doc_labels: res.doc_labels,
                objective_trace: res.objective_trace,
                label_trace: res.label_trace,
                elapsed: start.elapsed(),
                iterations: res.iterations,
                converged: res.converged,
            }
        }
        Method::Src | Method::Snmtf | Method::Rmc => {
            let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)?;
            let out = fit_baseline(&data, method, cfg)?;
            to_output(method, package_result(&data, out), start)
        }
        Method::Rhchme => {
            let res = Rhchme::new(cfg.clone()).fit_corpus(corpus)?;
            to_output(method, res, start)
        }
    };
    Ok(out)
}

/// SRC, SNMTF or RMC on assembled data: the method's graph regulariser,
/// a k-means start and its engine row.
fn fit_baseline(data: &MultiTypeData, method: Method, cfg: &RhchmeConfig) -> Result<EngineResult> {
    let features = data.all_features();
    let reg = method.baseline_regularizer(&features, cfg, None)?;
    let engine_cfg = method.engine_config(cfg)?;
    let g0 = init_membership(data, &features, cfg.seed);
    run_engine(&data.assemble_r_csr(), data, &reg, g0, &engine_cfg)
}

fn to_output(method: Method, res: crate::rhchme::RhchmeResult, start: Instant) -> MethodOutput {
    MethodOutput {
        method: MethodSpec::Base(method),
        doc_labels: res.doc_labels,
        objective_trace: res.objective_trace,
        label_trace: res.label_trace,
        elapsed: start.elapsed(),
        iterations: res.iterations,
        converged: res.converged,
    }
}

/// Precomputed heavyweight intermediates for parameter sweeps (Fig. 2).
///
/// A full RHCHME run decomposes into cacheable stages:
///
/// | swept parameter | must recompute                     |
/// |-----------------|------------------------------------|
/// | λ, β            | nothing (reuse `l_hetero(α)`)      |
/// | α               | only the linear combination        |
/// | γ               | the subspace Laplacians            |
///
/// Every stage reads the one [`RhchmeConfig`]: [`Self::new`] its graph
/// settings, [`Self::subspace_laplacian`] its SPG settings and
/// [`Self::run_rhchme_engine`] its α and RHCHME engine row, so a sweep
/// varies one field of a config and calls the stage it touches.
pub struct Artifacts {
    /// Assembled multi-type dataset.
    pub data: MultiTypeData,
    /// Symmetric block `R` in CSR form (never densified; the engine is
    /// sparse-first).
    pub r: mtrl_sparse::Csr,
    /// Per-type feature views.
    pub features: Vec<Mat>,
    /// k-means initial membership.
    pub g0: Mat,
    /// RHCHME's pNN Laplacian ensemble member `L_E` (sparse block
    /// diagonal), at the configuration's graph backend.
    pub l_pnn: SparseBlockDiag,
    /// On the exact backend, the one exact neighbour search per type
    /// (depth `max(p, 10)`) that `L_E` was built from, kept for RMC's
    /// candidates ([`Method::baseline_regularizer`]).
    ranked: Option<RankedLists>,
}

impl Artifacts {
    /// Build the sweep-invariant artifacts once.
    ///
    /// # Errors
    /// Propagates data-assembly errors.
    pub fn new(corpus: &MultiTypeCorpus, cfg: &RhchmeConfig) -> Result<Self> {
        let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)?;
        let features = data.all_features();
        let g0 = init_membership(&data, &features, cfg.seed);
        let r = data.assemble_r_csr();
        // On the exact backend one search per type serves `L_E` (the
        // first `p` of each list) and RMC's candidates (the first 5 and
        // 10).
        let ranked = cfg
            .graph_backend
            .is_exact()
            .then(|| exact_neighbours(&features, cfg.p.max(10)));
        let l_pnn = match &ranked {
            Some(ranked) => pnn_laplacians_ranked(
                &features,
                ranked,
                cfg.p,
                cfg.weight_scheme,
                cfg.laplacian_kind,
            )?,
            None => pnn_laplacians_backend_prec(
                &features,
                cfg.p,
                cfg.weight_scheme,
                cfg.laplacian_kind,
                &cfg.graph_backend,
                cfg.precision,
            )?,
        };
        Ok(Artifacts {
            data,
            r,
            features,
            g0,
            l_pnn,
            ranked,
        })
    }

    /// Subspace Laplacians at `cfg`'s SPG settings (the only
    /// γ-dependent stage).
    ///
    /// # Errors
    /// Propagates SPG failures.
    pub fn subspace_laplacian(&self, cfg: &RhchmeConfig) -> Result<SparseBlockDiag> {
        subspace_laplacians(&self.features, &cfg.spg_config(), cfg.laplacian_kind)
    }

    /// Run the RHCHME engine stage on cached artifacts with an explicit
    /// heterogeneous ensemble (`l_sub` from [`Self::subspace_laplacian`]),
    /// weighted by `cfg.alpha`, under RHCHME's engine row of `cfg`.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn run_rhchme_engine(
        &self,
        l_sub: &SparseBlockDiag,
        cfg: &RhchmeConfig,
    ) -> Result<crate::rhchme::RhchmeResult> {
        let l = hetero_laplacian(l_sub, &self.l_pnn, cfg.alpha)?;
        let out = run_engine(
            &self.r,
            &self.data,
            &GraphRegularizer::Fixed(l),
            self.g0.clone(),
            &Method::Rhchme.engine_config(cfg)?,
        )?;
        Ok(package_result(&self.data, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    fn corpus() -> MultiTypeCorpus {
        generate(&CorpusConfig {
            docs_per_class: vec![8, 8],
            vocab_size: 48,
            concept_count: 12,
            doc_len_range: (25, 40),
            background_frac: 0.25,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 55,
        })
    }

    fn fast_params() -> RhchmeConfig {
        RhchmeConfig {
            lambda: 0.5,
            max_iter: 20,
            spg_max_iter: 20,
            feature_cluster_divisor: 10,
            ..RhchmeConfig::default()
        }
    }

    #[test]
    fn every_method_runs() {
        let c = corpus();
        let params = fast_params();
        for method in Method::all() {
            let out = run_spec(&c, &method.into(), &params).unwrap();
            assert_eq!(out.doc_labels.len(), 16, "{method:?}");
            assert!(!out.objective_trace.is_empty(), "{method:?}");
            assert!(out.elapsed.as_nanos() > 0);
            let q = mtrl_metrics::quality_scores(&c.labels, &out.doc_labels);
            assert!(q.fscore > 0.5, "{method:?} fscore {}", q.fscore);
            assert!(q.nmi >= 0.0 && q.ari.is_finite(), "{method:?}");
        }
    }

    #[test]
    fn a_non_finite_spg_gamma_is_a_typed_error() {
        let c = corpus();
        for gamma in [f64::NAN, f64::INFINITY] {
            let params = RhchmeConfig {
                gamma,
                ..fast_params()
            };
            let out = run_spec(&c, &Method::Rhchme.into(), &params);
            assert!(
                matches!(
                    out,
                    Err(RhchmeError::Linalg(
                        mtrl_linalg::LinalgError::InvalidArgument(_)
                    ))
                ),
                "gamma {gamma} gave {:?}",
                out.map(|o| o.doc_labels)
            );
        }
    }

    #[test]
    fn method_names_and_order() {
        let names: Vec<_> = Method::all().iter().map(|m| m.paper_name()).collect();
        assert_eq!(
            names,
            vec!["DR-T", "DR-C", "DR-TC", "SRC", "SNMTF", "RMC", "RHCHME"]
        );
        assert!(!Method::DrT.is_hocc());
        assert!(Method::Rhchme.is_hocc());
    }

    #[test]
    fn run_spec_records_the_spec_and_rejects_ensemble() {
        let c = corpus();
        let params = fast_params();
        let out = run_spec(&c, &MethodSpec::from(Method::Src), &params).unwrap();
        assert_eq!(out.method, MethodSpec::Base(Method::Src));

        let err = run_spec(&c, &MethodSpec::ensemble(), &params).unwrap_err();
        assert!(
            err.to_string().contains("mtrl_ensemble"),
            "error should point at the ensemble dispatcher: {err}"
        );
    }

    #[test]
    fn spec_keys() {
        assert_eq!(MethodSpec::from(Method::Rhchme).key(), "rhchme");
        assert_eq!(MethodSpec::ensemble().key(), "ensemble");
    }

    #[test]
    fn engine_rows_follow_the_method_table() {
        let cfg = RhchmeConfig {
            lambda: 0.3,
            beta: 7.0,
            max_iter: 11,
            tol: 1e-4,
            record_doc_labels: true,
            ..RhchmeConfig::default()
        };
        let rows = [Method::Src, Method::Snmtf, Method::Rmc, Method::Rhchme]
            .map(|m| m.engine_config(&cfg).unwrap());
        let lambdas: Vec<f64> = rows.iter().map(|r| r.lambda).collect();
        assert_eq!(lambdas, vec![0.0, 0.3, 0.3, 0.3]);
        let betas: Vec<f64> = rows.iter().map(|r| r.beta).collect();
        assert_eq!(betas, vec![0.0, 0.0, 0.0, 7.0]);
        for (row, robust) in rows.iter().zip([false, false, false, true]) {
            assert_eq!(row.use_error_matrix, robust);
            assert_eq!(row.l1_row_normalize, robust);
            assert_eq!((row.max_iter, row.tol), (11, 1e-4));
            assert_eq!(row.record_labels_for_type, Some(0));
        }
        for drcc in [Method::DrT, Method::DrC, Method::DrTC] {
            assert!(drcc.engine_config(&cfg).is_err(), "{drcc:?}");
        }
        let params = RhchmeConfig::default();
        for other in [Method::Rhchme, Method::DrT] {
            assert!(other.baseline_regularizer(&[], &params, None).is_err());
        }
    }

    /// `method`'s table-row fit of a clean two-class corpus: the
    /// document FScore and the engine result.
    fn fit_clean(method: Method, seed: u64, params: &RhchmeConfig) -> (f64, EngineResult) {
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
            seed,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        let out = fit_baseline(&data, method, params).unwrap();
        let doc_labels = data.labels_from_membership(&out.g, 0);
        (mtrl_metrics::fscore(&corpus.labels, &doc_labels), out)
    }

    #[test]
    fn src_clusters_clean_data() {
        let params = RhchmeConfig {
            max_iter: 40,
            ..RhchmeConfig::default()
        };
        let (f, out) = fit_clean(Method::Src, 41, &params);
        assert!(f > 0.7, "fscore {f}");
        assert!(out.error_row_norms.is_empty());
    }

    #[test]
    fn snmtf_clusters_clean_data() {
        let params = RhchmeConfig {
            lambda: 0.5,
            max_iter: 40,
            ..RhchmeConfig::default()
        };
        let (f, _) = fit_clean(Method::Snmtf, 42, &params);
        assert!(f > 0.7, "fscore {f}");
    }

    #[test]
    fn rmc_clusters_and_weights_on_simplex() {
        let params = RhchmeConfig {
            lambda: 0.5,
            max_iter: 25,
            ..RhchmeConfig::default()
        };
        let (f, out) = fit_clean(Method::Rmc, 43, &params);
        assert!(f > 0.7, "fscore {f}");
        let weights = out.ensemble_weights.expect("RMC learns ensemble weights");
        assert_eq!(weights.len(), 6);
        let sum: f64 = weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum {sum}");
        assert!(weights.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn artifacts_sweep_reuse_matches_direct_run() {
        let c = corpus();
        let params = fast_params();
        let arts = Artifacts::new(&c, &params).unwrap();
        let l_sub = arts.subspace_laplacian(&params).unwrap();
        let res = arts.run_rhchme_engine(&l_sub, &params).unwrap();
        assert_eq!(res.doc_labels.len(), 16);
        let f = mtrl_metrics::fscore(&c.labels, &res.doc_labels);
        assert!(f > 0.5, "fscore {f}");
    }
}
