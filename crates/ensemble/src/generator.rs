//! Base-partition generator: diverse fits over the shared artifacts.
//!
//! All four HOCC methods in this workspace are the same sparse-first
//! NMTF engine under different graph regularisers (the method table of
//! `rhchme::pipeline`), so the generator computes the heavyweight inputs
//! once — assembled `R`, feature views, pNN and subspace Laplacians, RMC
//! candidate pool, all via [`rhchme::pipeline::Artifacts`] — and then
//! fits every member on its method's [`Method::engine_config`] row, all
//! members in lockstep over the one `R`
//! ([`rhchme::engine::run_engine_lockstep`]). A member at the canonical
//! seed and cluster counts therefore equals the solo fit of its method.
//! Diversity comes from perturbing three axes:
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

use rhchme::engine::{run_engine_lockstep, GraphRegularizer, LockstepFit};
use rhchme::intra::hetero_laplacian;
use rhchme::multitype::MultiTypeData;
use rhchme::pipeline::{Artifacts, EnsembleSpec, Method};
use rhchme::rhchme::{init_membership, RhchmeConfig};
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
    pub fn new(arts: &Artifacts, cfg: &RhchmeConfig) -> Result<Self> {
        let l_sub = arts.subspace_laplacian(cfg)?;
        let l_hetero = hetero_laplacian(&l_sub, &arts.l_pnn, cfg.alpha)?;
        let baseline = |m: Method| m.baseline_regularizer(&arts.features, cfg, Some(arts));
        Ok(SharedRegularizers {
            none: baseline(Method::Src)?,
            pnn: baseline(Method::Snmtf)?,
            rmc: baseline(Method::Rmc)?,
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
    cfg: &RhchmeConfig,
    data: &MultiTypeData,
    state: &mut u64,
) -> (Method, u64, usize) {
    let method = spec.pool[i % spec.pool.len()];
    let c0 = data.cluster_counts()[0];
    if i == 0 {
        return (method, cfg.seed, c0);
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
/// The members fit in lockstep ([`run_engine_lockstep`]): every member
/// is set up first (cluster layout, initial membership, engine row and
/// regulariser), then all of them iterate together, so each iteration
/// reads `R` once for every member. Each member equals the fit it would
/// be on its own, bit for bit; a member at the canonical seed and
/// cluster counts starts from [`Artifacts::g0`].
///
/// # Errors
/// Returns [`RhchmeError::InvalidConfig`] for an empty pool or zero
/// members, and otherwise the error of the lowest-indexed member whose
/// fit fails — what fitting the members one after another would
/// return.
pub fn generate_members(
    arts: &Artifacts,
    regs: &SharedRegularizers,
    spec: &EnsembleSpec,
    cfg: &RhchmeConfig,
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
    let mut state = cfg.seed ^ 0xE15E_B1E5_EED5_EED5;
    let plans: Vec<(Method, u64, usize)> = (0..spec.members)
        .map(|i| member_plan(i, spec, cfg, &arts.data, &mut state))
        .collect();
    // Each member's cluster layout (a re-spec shares the relations).
    let datas = plans
        .iter()
        .map(|&(_, _, doc_k)| {
            let mut counts = arts.data.cluster_counts().to_vec();
            counts[0] = doc_k;
            arts.data.with_cluster_counts(counts)
        })
        .collect::<Result<Vec<_>>>()?;
    let mut fits = Vec::with_capacity(plans.len());
    for (data, &(method, seed, doc_k)) in datas.iter().zip(&plans) {
        let row = method.engine_config(cfg);
        let reg = match method {
            Method::Src => &regs.none,
            Method::Snmtf => &regs.pnn,
            Method::Rmc => &regs.rmc,
            _ => &regs.hetero,
        };
        let g0 = if seed == cfg.seed && doc_k == arts.data.cluster_counts()[0] {
            arts.g0.clone()
        } else {
            init_membership(data, &arts.features, seed)
        };
        fits.push(LockstepFit {
            data,
            reg,
            g0,
            cfg: row,
        });
    }
    let outs = run_engine_lockstep(&arts.r, fits)?;
    Ok(outs
        .into_iter()
        .zip(&datas)
        .zip(plans)
        .map(
            |((out, data), (method, seed, doc_clusters))| BasePartition {
                method,
                seed,
                doc_clusters,
                labels_per_type: (0..data.num_types())
                    .map(|k| data.labels_from_membership(&out.g, k))
                    .collect(),
                final_objective: out.objective_trace.last().copied().unwrap_or(f64::NAN),
            },
        )
        .collect())
}
