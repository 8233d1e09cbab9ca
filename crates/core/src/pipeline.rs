//! One-call experiment runners and the method table.
//!
//! [`run_spec`] executes a [`MethodSpec`] on a corpus with a single
//! parameter bundle and returns labels, traces and wall time. The
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
//! [`MethodSpec::key`] for stable report keys and [`MethodSpec::as_base`]
//! to recover the [`Method`].
//!
//! # The method table
//!
//! SRC, SNMTF, RMC and RHCHME are one NMTF objective (Eqs. 1, 2, 15) on
//! one engine; they differ in the intra-type regulariser and in whether
//! the `E_R` and row-ℓ1 terms are on (the table in [`crate::engine`]).
//! [`PipelineParams::rhchme_config`] is the one mapping from a parameter
//! bundle to a [`RhchmeConfig`], [`Method::engine_config`] is the one
//! place a method's [`EngineConfig`] row is written, and
//! [`Method::baseline_regularizer`] builds the SRC, SNMTF and RMC graph
//! regularisers. Every fit of these four methods builds its engine input
//! there: [`run_spec`], [`Rhchme`],
//! [`Artifacts::run_rhchme_engine`] and the `mtrl-ensemble` members. The
//! graph backend and precision belong to RHCHME alone, so an ensemble
//! member equals the solo fit of its method at the same seed and
//! cluster counts.

use crate::baselines::{run_drcc, DrccConfig, DrccVariant};
use crate::engine::{run_engine, EngineConfig, EngineResult, GraphRegularizer};
use crate::intra::{
    hetero_laplacian, pnn_laplacians_backend_prec, rmc_candidates, subspace_laplacians,
};
use crate::multitype::MultiTypeData;
use crate::rhchme::{init_membership, package_result, Rhchme, RhchmeConfig};
use crate::{Result, RhchmeError};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_graph::{GraphBackend, LaplacianKind};
use mtrl_linalg::{Mat, Precision};
use mtrl_sparse::SparseBlockDiag;
use mtrl_subspace::SpgConfig;
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

    /// This method's row of the engine table (see [`crate::baselines`]
    /// for each row's paper reference): the [`EngineConfig`] every fit of
    /// SRC, SNMTF, RMC or RHCHME runs with.
    ///
    /// The four rows share `cfg`'s iteration budget, tolerance and label
    /// recording. SRC has no graph term (λ = 0); SNMTF and RMC weight
    /// theirs by `cfg.lambda`. Only RHCHME turns on the error matrix
    /// `E_R` (weight `cfg.beta`) and the row-ℓ1 normalisation, and only
    /// RHCHME runs at `cfg.precision`: SRC, SNMTF and RMC run `f64`.
    ///
    /// # Errors
    /// [`RhchmeError::InvalidConfig`] for the DRCC variants, which have
    /// their own solver ([`crate::baselines::drcc`]).
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
            precision: if robust {
                cfg.precision
            } else {
                Precision::F64
            },
            ..EngineConfig::default()
        })
    }

    /// SRC's, SNMTF's or RMC's graph regulariser on `features`: none, the
    /// pNN Laplacian of RHCHME's `L_E` recipe, or RMC's six candidates —
    /// all built exact and `f64`, since the graph backend and precision
    /// belong to RHCHME. A caller that holds RHCHME's `L_E` for the same
    /// features and `params` passes it as `l_e`; it is reused where it
    /// is the same graph (an exact `f64` `L_E`, and for RMC only at
    /// `p = 5`).
    ///
    /// # Errors
    /// [`RhchmeError::InvalidConfig`] for RHCHME (its regulariser is the
    /// heterogeneous ensemble) and the DRCC variants; propagates graph
    /// construction failures.
    pub fn baseline_regularizer(
        self,
        features: &[Mat],
        params: &PipelineParams,
        l_e: Option<&SparseBlockDiag>,
    ) -> Result<GraphRegularizer> {
        let cfg = params.rhchme_config();
        let exact_l_e =
            l_e.filter(|_| cfg.graph_backend.is_exact() && cfg.precision == Precision::F64);
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
                    Precision::F64,
                )?,
            })),
            Method::Rmc => Ok(GraphRegularizer::Ensemble {
                candidates: rmc_candidates(
                    features,
                    cfg.laplacian_kind,
                    exact_l_e.filter(|_| cfg.p == 5),
                )?,
                mu: params.rmc_mu,
            }),
            _ => Err(RhchmeError::InvalidConfig(format!(
                "{} has no baseline graph regulariser",
                self.paper_name()
            ))),
        }
    }
}

/// How the consensus-ensemble layer merges base partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeStrategy {
    /// Probability-trajectory random walk over the sparse co-association
    /// graph (the robust default); falls back to [`Self::HyperedgeMedoid`]
    /// when the walk degenerates (fewer than two consensus clusters).
    ProbabilityTrajectory,
    /// k-hyperedge-medoid consensus: greedily select one base cluster per
    /// consensus cluster by coverage, then assign objects by co-association
    /// affinity to the selected hyperedges.
    HyperedgeMedoid,
}

/// Configuration of the consensus-ensemble method layer (`mtrl-ensemble`).
///
/// This is plain specification data: `crates/core` defines it so one
/// [`MethodSpec`] type spans the whole workspace, while the execution
/// lives in the `mtrl-ensemble` crate (`mtrl_ensemble::run_spec`). All
/// `with_*` methods are fluent builders over [`EnsembleSpec::default`].
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
    /// Merge strategy for turning co-associations into consensus labels.
    pub merge: MergeStrategy,
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
            merge: MergeStrategy::ProbabilityTrajectory,
            smoothing: 0.2,
        }
    }
}

impl EnsembleSpec {
    /// Set the number of base partitions.
    #[must_use]
    pub fn with_members(mut self, members: usize) -> Self {
        self.members = members;
        self
    }

    /// Set the base-method pool (cycled round-robin; `pool[0]` anchors).
    #[must_use]
    pub fn with_pool(mut self, pool: Vec<Method>) -> Self {
        self.pool = pool;
        self
    }

    /// Enable or disable random-k perturbation of members `1..`.
    #[must_use]
    pub fn with_random_k(mut self, random_k: bool) -> Self {
        self.random_k = random_k;
        self
    }

    /// Set the co-association neighbour budget per object.
    #[must_use]
    pub fn with_coassoc_p(mut self, p: usize) -> Self {
        self.coassoc_p = p;
        self
    }

    /// Set the probability-trajectory walk length and decay.
    #[must_use]
    pub fn with_walk(mut self, steps: usize, decay: f64) -> Self {
        self.walk_steps = steps;
        self.walk_decay = decay;
        self
    }

    /// Set the merge strategy.
    #[must_use]
    pub fn with_merge(mut self, merge: MergeStrategy) -> Self {
        self.merge = merge;
        self
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

    /// Human-readable table label.
    pub fn label(&self) -> &'static str {
        match self {
            MethodSpec::Base(m) => m.paper_name(),
            MethodSpec::Ensemble(_) => "ENSEMBLE",
        }
    }

    /// Whether this spec is a high-order (multi-type) method.
    pub fn is_hocc(&self) -> bool {
        match self {
            MethodSpec::Base(m) => m.is_hocc(),
            MethodSpec::Ensemble(_) => true,
        }
    }

    /// The wrapped base [`Method`], when this spec is one.
    pub fn as_base(&self) -> Option<Method> {
        match self {
            MethodSpec::Base(m) => Some(*m),
            MethodSpec::Ensemble(_) => None,
        }
    }
}

/// Shared parameter bundle for all methods (tuned defaults from
/// Sec. IV-B/E; per-method interpretations documented inline).
#[derive(Debug, Clone)]
pub struct PipelineParams {
    /// Laplacian weight λ for SNMTF/RMC/RHCHME (DRCC uses `drcc_lambda`).
    pub lambda: f64,
    /// Subspace-learning γ (RHCHME only).
    pub gamma: f64,
    /// Ensemble trade-off α (RHCHME only).
    pub alpha: f64,
    /// Error-matrix β (RHCHME only).
    pub beta: f64,
    /// pNN neighbour count for SNMTF/RHCHME/DRCC graphs.
    pub p: usize,
    /// Neighbour-search backend for RHCHME's pNN graph `L_E`: the exact
    /// blocked kernel or the rp-forest index of `mtrl_graph::ann`. Like
    /// [`Self::precision`] it belongs to RHCHME alone: SRC, SNMTF and RMC
    /// always build exact graphs and run `f64` ([`Method::engine_config`]),
    /// so their ensemble members equal their solo fits under any backend.
    pub graph_backend: GraphBackend,
    /// Kernel storage precision for RHCHME's hot loops (pNN Gram chain,
    /// engine SpMM / low-rank / residual kernels); see
    /// [`RhchmeConfig::precision`]. RHCHME's alone, like
    /// [`Self::graph_backend`]: SRC, SNMTF and RMC always run `f64`.
    pub precision: Precision,
    /// RMC's quadratic penalty μ on ensemble weights.
    pub rmc_mu: f64,
    /// DRCC document-side graph weight.
    pub drcc_lambda: f64,
    /// DRCC feature-side graph weight.
    pub drcc_mu: f64,
    /// Multiplicative-update iteration budget (all NMTF methods).
    pub max_iter: usize,
    /// Relative objective tolerance.
    pub tol: f64,
    /// SPG iteration budget (RHCHME stage 1).
    pub spg_max_iter: usize,
    /// Term/concept cluster divisor (`m / divisor`, clamped to `[2, 30]`).
    pub feature_cluster_divisor: usize,
    /// Seed for k-means / SPG initialisation.
    pub seed: u64,
    /// Record per-iteration document labels (Fig. 3).
    pub record_doc_labels: bool,
    /// Export a serving-ready [`crate::FittedModel`] with the result
    /// (RHCHME only; other methods ignore this flag).
    pub export_model: bool,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            lambda: 0.05,
            gamma: 5.0,
            alpha: 1.0,
            beta: 50.0,
            p: 5,
            graph_backend: GraphBackend::Exact,
            precision: Precision::F64,
            rmc_mu: 1.0,
            drcc_lambda: 0.1,
            drcc_mu: 0.1,
            max_iter: 100,
            tol: 1e-6,
            spg_max_iter: 60,
            feature_cluster_divisor: 20,
            seed: 2015,
            record_doc_labels: false,
            export_model: false,
        }
    }
}

impl PipelineParams {
    /// The estimator-side view of this bundle — the one mapping from
    /// [`PipelineParams`] to [`RhchmeConfig`]. The weight scheme and
    /// Laplacian kind keep their defaults; the DRCC, RMC and export
    /// fields have no estimator counterpart.
    pub fn rhchme_config(&self) -> RhchmeConfig {
        RhchmeConfig {
            lambda: self.lambda,
            gamma: self.gamma,
            alpha: self.alpha,
            beta: self.beta,
            p: self.p,
            graph_backend: self.graph_backend,
            precision: self.precision,
            spg_max_iter: self.spg_max_iter,
            max_iter: self.max_iter,
            tol: self.tol,
            seed: self.seed,
            feature_cluster_divisor: self.feature_cluster_divisor,
            record_doc_labels: self.record_doc_labels,
            ..RhchmeConfig::default()
        }
    }
}

/// Unified method output for the benches.
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
    /// Serving-ready export of the fitted model (present only when
    /// [`PipelineParams::export_model`] is set and the method supports it).
    pub model: Option<crate::FittedModel>,
}

impl MethodOutput {
    /// Score the document labels against a ground truth — the report
    /// hook the evaluation layer (`mtrl-eval`) aggregates per scenario.
    ///
    /// # Panics
    /// Panics if `truth` and the document labels differ in length.
    pub fn quality(&self, truth: &[usize]) -> mtrl_metrics::QualityScores {
        mtrl_metrics::quality_scores(truth, &self.doc_labels)
    }
}

/// Run a [`MethodSpec`] end to end on a corpus.
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
    params: &PipelineParams,
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
            let r = crate::baselines::drcc::variant_matrix(corpus, variant);
            let div = params.feature_cluster_divisor.max(1);
            let res = run_drcc(
                &r,
                &DrccConfig {
                    lambda: params.drcc_lambda,
                    mu: params.drcc_mu,
                    doc_clusters: corpus.num_classes,
                    feature_clusters: (r.cols() / div).clamp(2, 30),
                    p: params.p,
                    max_iter: params.max_iter,
                    tol: params.tol,
                    seed: params.seed,
                    record_doc_labels: params.record_doc_labels,
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
                model: None,
            }
        }
        Method::Src | Method::Snmtf | Method::Rmc => {
            let data = MultiTypeData::from_corpus(corpus, params.feature_cluster_divisor)?;
            let out = fit_baseline(&data, method, params)?;
            to_output(method, package_result(&data, out), start)
        }
        Method::Rhchme => {
            let model = Rhchme::new(params.rhchme_config());
            // Assemble the multi-type data once and share it between the
            // fit and the export (export_model would rebuild it).
            let data = MultiTypeData::from_corpus(corpus, params.feature_cluster_divisor)?;
            let res = model.fit_data(&data)?;
            let exported = if params.export_model {
                Some(model.export_model_from_data(&res, &data)?)
            } else {
                None
            };
            let mut out = to_output(method, res, start);
            out.model = exported;
            out
        }
    };
    Ok(out)
}

/// SRC, SNMTF or RMC on assembled data: the method's graph regulariser,
/// a k-means start and its engine row.
fn fit_baseline(
    data: &MultiTypeData,
    method: Method,
    params: &PipelineParams,
) -> Result<EngineResult> {
    let features = data.all_features();
    let reg = method.baseline_regularizer(&features, params, None)?;
    let engine_cfg = method.engine_config(&params.rhchme_config())?;
    let g0 = init_membership(data, &features, params.seed);
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
        model: None,
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
    /// diagonal), at the parameters' graph backend and precision.
    pub l_pnn: SparseBlockDiag,
    /// RHCHME's engine precision, which [`Self::run_rhchme_engine`] runs
    /// at like [`Self::l_pnn`] was built at.
    precision: Precision,
}

impl Artifacts {
    /// Build the sweep-invariant artifacts once.
    ///
    /// # Errors
    /// Propagates data-assembly errors.
    pub fn new(corpus: &MultiTypeCorpus, params: &PipelineParams) -> Result<Self> {
        let cfg = params.rhchme_config();
        let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)?;
        let features = data.all_features();
        let g0 = init_membership(&data, &features, cfg.seed);
        let r = data.assemble_r_csr();
        let l_pnn = pnn_laplacians_backend_prec(
            &features,
            cfg.p,
            cfg.weight_scheme,
            cfg.laplacian_kind,
            &cfg.graph_backend,
            cfg.precision,
        )?;
        Ok(Artifacts {
            data,
            r,
            features,
            g0,
            l_pnn,
            precision: cfg.precision,
        })
    }

    /// Subspace Laplacians for a given γ (the only γ-dependent stage).
    ///
    /// # Errors
    /// Propagates SPG failures.
    pub fn subspace_laplacian(
        &self,
        gamma: f64,
        spg_max_iter: usize,
        seed: u64,
    ) -> Result<SparseBlockDiag> {
        subspace_laplacians(
            &self.features,
            &SpgConfig {
                gamma,
                max_iter: spg_max_iter,
                seed,
                ..SpgConfig::default()
            },
            LaplacianKind::SymNormalized,
        )
    }

    /// Run the RHCHME engine stage on cached artifacts with an explicit
    /// heterogeneous ensemble (`l_sub` from [`Self::subspace_laplacian`]).
    ///
    /// The argument list mirrors the four swept hyper-parameters plus the
    /// iteration budget — a struct would only restate `PipelineParams`.
    ///
    /// # Errors
    /// Propagates engine failures.
    #[allow(clippy::too_many_arguments)]
    pub fn run_rhchme_engine(
        &self,
        l_sub: &SparseBlockDiag,
        alpha: f64,
        lambda: f64,
        beta: f64,
        max_iter: usize,
        tol: f64,
        record_doc_labels: bool,
    ) -> Result<crate::rhchme::RhchmeResult> {
        let l = hetero_laplacian(l_sub, &self.l_pnn, alpha)?;
        let cfg = RhchmeConfig {
            lambda,
            beta,
            max_iter,
            tol,
            record_doc_labels,
            precision: self.precision,
            ..RhchmeConfig::default()
        };
        let out = run_engine(
            &self.r,
            &self.data,
            &GraphRegularizer::Fixed(l),
            self.g0.clone(),
            &Method::Rhchme.engine_config(&cfg)?,
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

    fn fast_params() -> PipelineParams {
        PipelineParams {
            lambda: 0.5,
            max_iter: 20,
            spg_max_iter: 20,
            feature_cluster_divisor: 10,
            ..PipelineParams::default()
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
            let q = out.quality(&c.labels);
            assert!(q.fscore > 0.5, "{method:?} fscore {}", q.fscore);
            assert!(q.nmi >= 0.0 && q.ari.is_finite(), "{method:?}");
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
        assert_eq!(out.method.as_base(), Some(Method::Src));

        let err = run_spec(&c, &MethodSpec::ensemble(), &params).unwrap_err();
        assert!(
            err.to_string().contains("mtrl_ensemble"),
            "error should point at the ensemble dispatcher: {err}"
        );
    }

    #[test]
    fn spec_keys_and_builder() {
        assert_eq!(MethodSpec::from(Method::Rhchme).key(), "rhchme");
        assert_eq!(MethodSpec::ensemble().key(), "ensemble");
        assert_eq!(MethodSpec::ensemble().label(), "ENSEMBLE");
        assert!(MethodSpec::ensemble().is_hocc());
        assert!(MethodSpec::ensemble().as_base().is_none());

        let spec = EnsembleSpec::default()
            .with_members(5)
            .with_pool(vec![Method::Snmtf, Method::Src])
            .with_random_k(false)
            .with_coassoc_p(7)
            .with_walk(4, 0.5)
            .with_merge(MergeStrategy::HyperedgeMedoid);
        assert_eq!(spec.members, 5);
        assert_eq!(spec.pool, vec![Method::Snmtf, Method::Src]);
        assert!(!spec.random_k);
        assert_eq!(spec.coassoc_p, 7);
        assert_eq!((spec.walk_steps, spec.walk_decay), (4, 0.5));
        assert_eq!(spec.merge, MergeStrategy::HyperedgeMedoid);
    }

    #[test]
    fn engine_rows_follow_the_method_table() {
        let cfg = RhchmeConfig {
            lambda: 0.3,
            beta: 7.0,
            max_iter: 11,
            tol: 1e-4,
            record_doc_labels: true,
            precision: Precision::F32,
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
            let precision = if robust {
                Precision::F32
            } else {
                Precision::F64
            };
            assert_eq!(row.precision, precision);
            assert_eq!((row.max_iter, row.tol), (11, 1e-4));
            assert_eq!(row.record_labels_for_type, Some(0));
        }
        for drcc in [Method::DrT, Method::DrC, Method::DrTC] {
            assert!(drcc.engine_config(&cfg).is_err(), "{drcc:?}");
        }
        let params = PipelineParams::default();
        for other in [Method::Rhchme, Method::DrT] {
            assert!(other.baseline_regularizer(&[], &params, None).is_err());
        }
    }

    /// `method`'s table-row fit of a clean two-class corpus: the
    /// document FScore and the engine result.
    fn fit_clean(method: Method, seed: u64, params: &PipelineParams) -> (f64, EngineResult) {
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
        let params = PipelineParams {
            max_iter: 40,
            ..PipelineParams::default()
        };
        let (f, out) = fit_clean(Method::Src, 41, &params);
        assert!(f > 0.7, "fscore {f}");
        assert!(out.error_row_norms.is_empty());
    }

    #[test]
    fn snmtf_clusters_clean_data() {
        let params = PipelineParams {
            lambda: 0.5,
            max_iter: 40,
            ..PipelineParams::default()
        };
        let (f, _) = fit_clean(Method::Snmtf, 42, &params);
        assert!(f > 0.7, "fscore {f}");
    }

    #[test]
    fn rmc_clusters_and_weights_on_simplex() {
        let params = PipelineParams {
            lambda: 0.5,
            max_iter: 25,
            ..PipelineParams::default()
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
        let l_sub = arts
            .subspace_laplacian(params.gamma, params.spg_max_iter, params.seed)
            .unwrap();
        let res = arts
            .run_rhchme_engine(&l_sub, 1.0, params.lambda, params.beta, 20, 1e-6, false)
            .unwrap();
        assert_eq!(res.doc_labels.len(), 16);
        let f = mtrl_metrics::fscore(&c.labels, &res.doc_labels);
        assert!(f > 0.5, "fscore {f}");
    }
}
