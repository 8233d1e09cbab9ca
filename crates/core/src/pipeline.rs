//! One-call experiment runners behind the open method-dispatch API.
//!
//! [`run_spec`] executes a [`MethodSpec`] — the open, non-`Copy` method
//! specification — on a corpus with a single parameter bundle and returns
//! labels, traces and wall time; [`FitRequest`] is its fluent builder
//! front end. The heavyweight intermediates (assembled `R`, feature
//! views, pNN Laplacians, subspace Laplacians) are also exposed through
//! [`Artifacts`] so parameter sweeps recompute only what a swept
//! parameter actually touches (Fig. 2).
//!
//! # Method-dispatch API contract (the `Method` → `MethodSpec` migration)
//!
//! Through PR 9 the dispatch type was the closed `Copy` enum [`Method`]
//! and the entry point was `run_method(corpus, method, params)`. A method
//! that carries its *own* configuration — the consensus-ensemble layer's
//! generator pool, ensemble size and merge strategy — cannot be a unit
//! variant of a `Copy` enum, so the dispatch surface was redesigned:
//!
//! * [`MethodSpec`] is the specification type: `MethodSpec::Base(Method)`
//!   wraps the seven paper methods unchanged; [`MethodSpec::Ensemble`]
//!   carries an [`EnsembleSpec`] (the consensus-ensemble configuration).
//!   New method families add variants here, keeping one spec type across
//!   the pipeline, the evaluation matrix and serving provenance.
//! * [`run_spec`] is the dispatcher for everything *this* crate
//!   implements (the seven base methods). Method families that live in
//!   their own crates layer on top: `mtrl_ensemble::run_spec` executes
//!   [`MethodSpec::Ensemble`] and delegates every base spec back here.
//!   Callers that may receive an ensemble spec (the eval runner, demos)
//!   dispatch through `mtrl_ensemble::run_spec`; callers that only ever
//!   run base methods may use this function directly.
//! * [`run_method`] is **kept, not deprecated**: it is a thin shim over
//!   `run_spec(corpus, &MethodSpec::from(method), params)` via the
//!   [`From<Method>`] impl, so the `Method::all()` table-order benches
//!   and every existing call site compile unchanged.
//! * [`MethodOutput::method`] is now a [`MethodSpec`] (it was a
//!   [`Method`]); use [`MethodSpec::key`] for stable report keys and
//!   [`MethodSpec::as_base`] to recover the old enum where one applies.

use crate::baselines::{
    run_drcc, run_rmc, run_snmtf, run_src, DrccConfig, DrccVariant, RmcConfig, SnmtfConfig,
    SrcConfig,
};
use crate::engine::{run_engine, EngineConfig, GraphRegularizer};
use crate::intra::{hetero_laplacian, pnn_laplacians_backend_prec, subspace_laplacians};
use crate::multitype::MultiTypeData;
use crate::rhchme::{init_membership, package_result, Rhchme, RhchmeConfig};
use crate::Result;
use mtrl_datagen::MultiTypeCorpus;
use mtrl_graph::{LaplacianKind, WeightScheme};
use mtrl_linalg::Mat;
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
    /// Neighbour-search backend for RHCHME's pNN graphs (exact blocked
    /// kernel or the rp-forest index of `mtrl_graph::ann`; other methods
    /// keep the exact kernel — their corpora are baseline-sized by
    /// construction).
    pub graph_backend: mtrl_graph::GraphBackend,
    /// Kernel storage precision for RHCHME's hot loops (pNN Gram chain,
    /// engine SpMM / low-rank / residual kernels); see
    /// [`RhchmeConfig::precision`]. Baseline methods always run `f64`.
    pub precision: mtrl_linalg::Precision,
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
            graph_backend: mtrl_graph::GraphBackend::Exact,
            precision: mtrl_linalg::Precision::F64,
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

/// Run one method end to end on a corpus — the compatibility shim over
/// [`run_spec`] kept for the `Method::all()` table-order benches (see the
/// module-level API contract).
///
/// # Errors
/// Propagates data-assembly and optimisation errors.
pub fn run_method(
    corpus: &MultiTypeCorpus,
    method: Method,
    params: &PipelineParams,
) -> Result<MethodOutput> {
    run_spec(corpus, &MethodSpec::from(method), params)
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
            return Err(crate::RhchmeError::InvalidConfig(
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
        Method::Src => {
            let data = MultiTypeData::from_corpus(corpus, params.feature_cluster_divisor)?;
            let res = run_src(
                &data,
                &SrcConfig {
                    max_iter: params.max_iter,
                    tol: params.tol,
                    seed: params.seed,
                    record_doc_labels: params.record_doc_labels,
                },
            )?;
            to_output(method, res, start)
        }
        Method::Snmtf => {
            let data = MultiTypeData::from_corpus(corpus, params.feature_cluster_divisor)?;
            let res = run_snmtf(
                &data,
                &SnmtfConfig {
                    lambda: params.lambda,
                    p: params.p,
                    max_iter: params.max_iter,
                    tol: params.tol,
                    seed: params.seed,
                    record_doc_labels: params.record_doc_labels,
                    ..SnmtfConfig::default()
                },
            )?;
            to_output(method, res, start)
        }
        Method::Rmc => {
            let data = MultiTypeData::from_corpus(corpus, params.feature_cluster_divisor)?;
            let res = run_rmc(
                &data,
                &RmcConfig {
                    lambda: params.lambda,
                    mu: params.rmc_mu,
                    max_iter: params.max_iter,
                    tol: params.tol,
                    seed: params.seed,
                    record_doc_labels: params.record_doc_labels,
                    ..RmcConfig::default()
                },
            )?;
            to_output(method, res.clustering, start)
        }
        Method::Rhchme => {
            let model = Rhchme::new(RhchmeConfig {
                lambda: params.lambda,
                gamma: params.gamma,
                alpha: params.alpha,
                beta: params.beta,
                p: params.p,
                graph_backend: params.graph_backend,
                precision: params.precision,
                spg_max_iter: params.spg_max_iter,
                max_iter: params.max_iter,
                tol: params.tol,
                seed: params.seed,
                feature_cluster_divisor: params.feature_cluster_divisor,
                record_doc_labels: params.record_doc_labels,
                ..RhchmeConfig::default()
            });
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

/// Fluent builder front end for [`run_spec`], mirroring the serve layer's
/// `AssignRequest` builder: start from a corpus, layer on a spec and
/// parameter overrides, then [`FitRequest::run`].
///
/// ```no_run
/// # use rhchme::pipeline::{FitRequest, Method};
/// # fn demo(corpus: &mtrl_datagen::MultiTypeCorpus) -> rhchme::Result<()> {
/// let out = FitRequest::new(corpus)
///     .spec(Method::Snmtf)
///     .seed(7)
///     .export_model(true)
///     .run()?;
/// # let _ = out; Ok(()) }
/// ```
///
/// Like [`run_spec`], `run` executes base methods only; build ensemble
/// requests here too, but execute them with `mtrl_ensemble::run_spec`
/// via [`FitRequest::into_parts`].
pub struct FitRequest<'c> {
    corpus: &'c MultiTypeCorpus,
    spec: MethodSpec,
    params: PipelineParams,
}

impl<'c> FitRequest<'c> {
    /// Start a request with the paper's method and default parameters.
    pub fn new(corpus: &'c MultiTypeCorpus) -> Self {
        FitRequest {
            corpus,
            spec: MethodSpec::Base(Method::Rhchme),
            params: PipelineParams::default(),
        }
    }

    /// Set the method spec (accepts `Method`, `EnsembleSpec` or
    /// `MethodSpec` via `Into`).
    #[must_use]
    pub fn spec(mut self, spec: impl Into<MethodSpec>) -> Self {
        self.spec = spec.into();
        self
    }

    /// Replace the whole parameter bundle.
    #[must_use]
    pub fn params(mut self, params: PipelineParams) -> Self {
        self.params = params;
        self
    }

    /// Set the initialisation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Request a serving-ready [`crate::FittedModel`] with the result.
    #[must_use]
    pub fn export_model(mut self, export: bool) -> Self {
        self.params.export_model = export;
        self
    }

    /// Execute the request (base methods; see [`run_spec`]).
    ///
    /// # Errors
    /// Propagates [`run_spec`] errors.
    pub fn run(self) -> Result<MethodOutput> {
        run_spec(self.corpus, &self.spec, &self.params)
    }

    /// Decompose into `(corpus, spec, params)` for an external dispatcher
    /// such as `mtrl_ensemble::run_spec`.
    pub fn into_parts(self) -> (&'c MultiTypeCorpus, MethodSpec, PipelineParams) {
        (self.corpus, self.spec, self.params)
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
    /// pNN Laplacian ensemble member `L_E` (sparse block diagonal).
    pub l_pnn: SparseBlockDiag,
}

impl Artifacts {
    /// Build the sweep-invariant artifacts once.
    ///
    /// # Errors
    /// Propagates data-assembly errors.
    pub fn new(corpus: &MultiTypeCorpus, params: &PipelineParams) -> Result<Self> {
        let data = MultiTypeData::from_corpus(corpus, params.feature_cluster_divisor)?;
        let features = data.all_features();
        let g0 = init_membership(&data, &features, params.seed);
        let r = data.assemble_r_csr();
        let l_pnn = pnn_laplacians_backend_prec(
            &features,
            params.p,
            WeightScheme::Cosine,
            LaplacianKind::SymNormalized,
            &params.graph_backend,
            mtrl_linalg::Precision::F64,
        )?;
        Ok(Artifacts {
            data,
            r,
            features,
            g0,
            l_pnn,
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
        let cfg = EngineConfig {
            lambda,
            beta,
            use_error_matrix: true,
            l1_row_normalize: true,
            max_iter,
            tol,
            record_labels_for_type: record_doc_labels.then_some(0),
            ..EngineConfig::default()
        };
        let out = run_engine(
            &self.r,
            &self.data,
            &GraphRegularizer::Fixed(l),
            self.g0.clone(),
            &cfg,
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
            let out = run_method(&c, method, &params).unwrap();
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
    fn spec_shim_matches_run_method_and_rejects_ensemble() {
        let c = corpus();
        let params = fast_params();
        let via_method = run_method(&c, Method::Src, &params).unwrap();
        let via_spec = run_spec(&c, &MethodSpec::from(Method::Src), &params).unwrap();
        assert_eq!(via_method.doc_labels, via_spec.doc_labels);
        assert_eq!(via_spec.method, MethodSpec::Base(Method::Src));
        assert_eq!(via_spec.method.as_base(), Some(Method::Src));

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
    fn fit_request_builder_runs() {
        let c = corpus();
        let out = FitRequest::new(&c)
            .spec(Method::Snmtf)
            .params(fast_params())
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(out.doc_labels.len(), 16);
        assert_eq!(out.method.key(), "snmtf");

        let (corpus_ref, spec, params) = FitRequest::new(&c)
            .spec(EnsembleSpec::default())
            .export_model(true)
            .into_parts();
        assert_eq!(corpus_ref.labels.len(), 16);
        assert_eq!(spec.key(), "ensemble");
        assert!(params.export_model);
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
