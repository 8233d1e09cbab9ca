//! Base-partition generator: diverse fits over the shared artifacts.
//!
//! All four HOCC methods in this workspace are the same sparse-first
//! NMTF engine under different graph regularisers (see the baseline
//! modules in `rhchme::baselines`), so the generator computes the
//! heavyweight inputs once — assembled `R`, feature views, pNN and
//! subspace Laplacians, RMC candidate pool, all via
//! [`rhchme::pipeline::Artifacts`] — and then runs one cheap engine fit
//! per member, perturbing three diversity axes:
//!
//! * **seed** — each member draws its k-means initialisation seed from a
//!   splitmix64 stream keyed on the canonical seed;
//! * **random-k** — odd-indexed members may re-spec the document cluster
//!   count to k ∈ [c, 2c] (cheap: [`MultiTypeData::with_cluster_counts`]
//!   changes only the cluster block layout); even-indexed members keep
//!   the canonical count so the merge always has same-k anchor
//!   candidates;
//! * **method** — the member's regulariser flavour cycles round-robin
//!   through the spec's pool (SRC / SNMTF / RMC / RHCHME).
//!
//! Member 0 is pinned to `pool[0]`, the canonical seed and the canonical
//! cluster counts, so the merge always has at least one same-k anchor
//! candidate; the merge then selects the best-scoring anchor among all
//! same-k members (see `merge::consensus_over_references`).

use rhchme::engine::{run_engine, EngineConfig, GraphRegularizer};
use rhchme::intra::{hetero_laplacian, rmc_candidates};
use rhchme::multitype::MultiTypeData;
use rhchme::pipeline::{Artifacts, EnsembleSpec, Method, PipelineParams};
use rhchme::rhchme::init_membership;
use rhchme::{Result, RhchmeError};

/// One fitted base partition.
#[derive(Debug, Clone)]
pub struct BasePartition {
    /// Regulariser flavour this member ran with.
    pub method: Method,
    /// Initialisation seed.
    pub seed: u64,
    /// Document cluster count used (canonical `c` or a random-k draw).
    pub doc_clusters: usize,
    /// Per-type hard labels of the fitted membership.
    pub labels_per_type: Vec<Vec<usize>>,
    /// Final engine objective (diagnostics; surfaced as the ensemble's
    /// objective trace).
    pub final_objective: f64,
}

/// Shared per-corpus inputs for all members, layered over
/// [`Artifacts`]: the regularisers each method flavour needs, built once.
pub struct SharedRegularizers {
    none: GraphRegularizer,
    pnn: GraphRegularizer,
    rmc: GraphRegularizer,
    hetero: GraphRegularizer,
}

impl SharedRegularizers {
    /// Build every flavour's regulariser from the cached artifacts.
    ///
    /// # Errors
    /// Propagates SPG / graph-construction failures.
    pub fn new(arts: &Artifacts, params: &PipelineParams) -> Result<Self> {
        let l_sub = arts.subspace_laplacian(params.gamma, params.spg_max_iter, params.seed)?;
        let l_hetero = hetero_laplacian(&l_sub, &arts.l_pnn, params.alpha)?;
        // `arts.l_pnn` is the exact p = 5 cosine candidate whenever the
        // fit's own graph is.
        let pnn5_cosine = (params.p == 5 && params.graph_backend.is_exact()).then_some(&arts.l_pnn);
        let candidates = rmc_candidates(
            &arts.features,
            mtrl_graph::LaplacianKind::SymNormalized,
            pnn5_cosine,
        )?;
        Ok(SharedRegularizers {
            none: GraphRegularizer::None,
            pnn: GraphRegularizer::Fixed(arts.l_pnn.clone()),
            rmc: GraphRegularizer::Ensemble {
                candidates,
                mu: params.rmc_mu,
            },
            hetero: GraphRegularizer::Fixed(l_hetero),
        })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The member plan for one slot: flavour, seed and document k.
fn member_plan(
    i: usize,
    spec: &EnsembleSpec,
    params: &PipelineParams,
    data: &MultiTypeData,
    state: &mut u64,
) -> (Method, u64, usize) {
    let method = spec.pool[i % spec.pool.len()];
    let c0 = data.cluster_counts()[0];
    if i == 0 {
        return (method, params.seed, c0);
    }
    let seed = splitmix64(state);
    // Only odd slots draw a random k: the even half of the pool stays at
    // the canonical cluster count so the merge always has several
    // same-k partitions to evaluate as candidate walk anchors
    // (over-clustered members still contribute co-association mass).
    let doc_k = if spec.random_k && i % 2 == 1 {
        let draw = (splitmix64(state) % (c0 as u64 + 1)) as usize;
        (c0 + draw).clamp(2, (2 * c0).min(data.sizes()[0]))
    } else {
        c0
    };
    (method, seed, doc_k)
}

/// Generate `spec.members` base partitions over the shared artifacts.
///
/// # Errors
/// Returns [`RhchmeError::InvalidConfig`] for an empty pool or zero
/// members, and propagates engine failures.
pub fn generate_members(
    arts: &Artifacts,
    regs: &SharedRegularizers,
    spec: &EnsembleSpec,
    params: &PipelineParams,
) -> Result<Vec<BasePartition>> {
    if spec.members == 0 {
        return Err(RhchmeError::InvalidConfig(
            "ensemble needs at least one member".into(),
        ));
    }
    if spec.pool.is_empty() {
        return Err(RhchmeError::InvalidConfig(
            "ensemble method pool is empty".into(),
        ));
    }
    if let Some(m) = spec.pool.iter().find(|m| !m.is_hocc()) {
        return Err(RhchmeError::InvalidConfig(format!(
            "ensemble pool member {m:?} is not a multi-type method"
        )));
    }
    let mut state = params.seed ^ 0xE15E_B1E5_EED5_EED5;
    let mut members = Vec::with_capacity(spec.members);
    for i in 0..spec.members {
        let (method, seed, doc_k) = member_plan(i, spec, params, &arts.data, &mut state);
        let _span = mtrl_obs::span!("ensemble.member");
        members.push(fit_member(arts, regs, params, method, seed, doc_k)?);
    }
    Ok(members)
}

/// Run one member: re-spec cluster counts if needed, initialise, run the
/// engine with the flavour's regulariser, and extract per-type labels.
fn fit_member(
    arts: &Artifacts,
    regs: &SharedRegularizers,
    params: &PipelineParams,
    method: Method,
    seed: u64,
    doc_k: usize,
) -> Result<BasePartition> {
    let respecced;
    let data = if doc_k == arts.data.cluster_counts()[0] {
        &arts.data
    } else {
        let mut counts = arts.data.cluster_counts().to_vec();
        counts[0] = doc_k;
        respecced = arts.data.with_cluster_counts(counts)?;
        &respecced
    };
    let g0 = init_membership(data, &arts.features, seed);
    let (reg, cfg) = match method {
        Method::Src => (
            &regs.none,
            EngineConfig {
                lambda: 0.0,
                use_error_matrix: false,
                l1_row_normalize: false,
                max_iter: params.max_iter,
                tol: params.tol,
                ..EngineConfig::default()
            },
        ),
        Method::Snmtf => (
            &regs.pnn,
            EngineConfig {
                lambda: params.lambda,
                use_error_matrix: false,
                l1_row_normalize: false,
                max_iter: params.max_iter,
                tol: params.tol,
                ..EngineConfig::default()
            },
        ),
        Method::Rmc => (
            &regs.rmc,
            EngineConfig {
                lambda: params.lambda,
                use_error_matrix: false,
                l1_row_normalize: false,
                max_iter: params.max_iter,
                tol: params.tol,
                ..EngineConfig::default()
            },
        ),
        Method::Rhchme => (
            &regs.hetero,
            EngineConfig {
                lambda: params.lambda,
                beta: params.beta,
                use_error_matrix: true,
                l1_row_normalize: true,
                max_iter: params.max_iter,
                tol: params.tol,
                precision: params.precision,
                ..EngineConfig::default()
            },
        ),
        other => {
            return Err(RhchmeError::InvalidConfig(format!(
                "ensemble pool member {other:?} is not a multi-type method"
            )))
        }
    };
    let out = run_engine(&arts.r, data, reg, g0, &cfg)?;
    let labels_per_type = (0..data.num_types())
        .map(|k| data.labels_from_membership(&out.g, k))
        .collect();
    Ok(BasePartition {
        method,
        seed,
        doc_clusters: doc_k,
        labels_per_type,
        final_objective: out.objective_trace.last().copied().unwrap_or(f64::NAN),
    })
}
