//! # mtrl-ensemble
//!
//! The consensus-ensemble method layer behind the redesigned
//! method-dispatch API (see `rhchme::pipeline`'s module docs for the
//! `Method` → `MethodSpec` contract). Three stages:
//!
//! 1. [`generator`] — diverse base partitions by perturbing seeds,
//!    random-k and method flavour over the shared
//!    [`rhchme::pipeline::Artifacts`];
//! 2. [`CoAssocBuilder`] — a sparse per-type co-association structure
//!    keyed on each object's p-nearest co-cluster neighbours (never n×n);
//! 3. [`consensus_over_references`] — probability-trajectory random-walk
//!    consensus seeded from every same-k member, with the
//!    k-hyperedge-medoid labels scored as one more anchor and used alone
//!    only when every walk degenerates. The merge has no strategy
//!    switch; the association `S` is re-estimated with the engine's
//!    [`rhchme::engine::GRAM_RIDGE`].
//!
//! The merged per-type memberships export through the existing
//! [`rhchme::FittedModel`] path ([`export_model`]; association `S`
//! re-estimated in closed form), tagged with `method = "ensemble"`
//! provenance, so serve, gateway and stream consume ensemble models
//! unchanged.
//!
//! [`run_spec`] is the *universal* dispatcher: it executes
//! [`MethodSpec::Ensemble`] here and delegates every base spec to
//! `rhchme::pipeline::run_spec` — callers that may receive either kind
//! (the eval runner, demos) route through this function.

mod coassoc;
pub mod generator;
mod merge;

use generator::{BasePartition, SharedRegularizers};
use mtrl_linalg::block::stack_membership;
use mtrl_linalg::kmeans::labels_to_membership;
use mtrl_linalg::{ops, solve, Mat};
use rhchme::multitype::MultiTypeData;
use rhchme::pipeline::{Artifacts, EnsembleSpec, MethodOutput, MethodSpec};
use rhchme::rhchme::{RhchmeConfig, RhchmeResult};
use rhchme::{FittedModel, Result, RhchmeError};
use std::time::Instant;

pub use coassoc::CoAssocBuilder;
pub use merge::{consensus_over_references, MergeOutcome};

/// One member's plan and outcome, for diagnostics and reports.
#[derive(Debug, Clone)]
pub struct MemberSummary {
    /// Method key of the flavour (`"src"`, `"snmtf"`, …).
    pub method: &'static str,
    /// Initialisation seed.
    pub seed: u64,
    /// Document cluster count used.
    pub doc_clusters: usize,
    /// Final engine objective.
    pub final_objective: f64,
}

/// A finished consensus-ensemble fit.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    /// Consensus document labels.
    pub doc_labels: Vec<usize>,
    /// Consensus labels for every type, in type order.
    pub labels_per_type: Vec<Vec<usize>>,
    /// Consensus stacked membership `G` (smoothed one-hot blocks).
    pub g: Mat,
    /// Re-estimated association matrix `S` (closed form over `G`).
    pub s: Mat,
    /// Per-member plan and final objective.
    pub members: Vec<MemberSummary>,
    /// How many types were merged by the hyperedge-medoid fallback.
    pub fallback_types: usize,
}

/// Run the full consensus-ensemble fit on a corpus under `cfg`, the
/// configuration every member's method reads (export the result with
/// [`export_model`]).
///
/// # Errors
/// Returns [`RhchmeError::InvalidConfig`] for a degenerate spec and
/// propagates artifact/engine failures.
pub fn fit_corpus(
    corpus: &mtrl_datagen::MultiTypeCorpus,
    spec: &EnsembleSpec,
    cfg: &RhchmeConfig,
) -> Result<EnsembleResult> {
    validate_spec(spec)?;
    let arts = Artifacts::new(corpus, cfg)?;
    let regs = {
        let _span = mtrl_obs::span!("ensemble.regularizers");
        SharedRegularizers::new(&arts, cfg)?
    };
    let members = {
        let _span = mtrl_obs::span!("ensemble.members");
        generator::generate_members(&arts, &regs, spec, cfg)?
    };
    merge_members(&arts.data, &arts.r, &members, spec)
}

fn validate_spec(spec: &EnsembleSpec) -> Result<()> {
    if spec.coassoc_p == 0 {
        return Err(RhchmeError::InvalidConfig(
            "coassoc_p must be at least 1".into(),
        ));
    }
    if !(spec.walk_decay > 0.0 && spec.walk_decay <= 1.0) {
        return Err(RhchmeError::InvalidConfig(format!(
            "walk_decay {} outside (0, 1]",
            spec.walk_decay
        )));
    }
    if !(spec.smoothing >= 0.0 && spec.smoothing.is_finite()) {
        return Err(RhchmeError::InvalidConfig(format!(
            "smoothing {} must be finite and nonnegative",
            spec.smoothing
        )));
    }
    Ok(())
}

/// Merge fitted base partitions into a consensus result: per-type sparse
/// co-association, anchor-selected trajectory/hyperedge merge,
/// closed-form `S`. Public so callers with pre-fitted members (tests,
/// diagnostics) can drive the merge stage directly.
///
/// # Errors
/// Propagates the closed-form `S` solve's failures.
pub fn merge_members(
    data: &MultiTypeData,
    r: &mtrl_sparse::Csr,
    members: &[BasePartition],
    spec: &EnsembleSpec,
) -> Result<EnsembleResult> {
    let _span = mtrl_obs::span!("ensemble.merge");
    let k_types = data.num_types();
    let mut labels_per_type = Vec::with_capacity(k_types);
    let mut blocks = Vec::with_capacity(k_types);
    let mut fallback_types = 0;
    for t in 0..k_types {
        let n_t = data.sizes()[t];
        let k_t = data.cluster_counts()[t];
        let mut hyperedges: Vec<Vec<usize>> = Vec::new();
        for member in members {
            let labels = &member.labels_per_type[t];
            let clusters = labels.iter().copied().max().unwrap_or(0) + 1;
            let mut buckets = vec![Vec::new(); clusters];
            for (i, &c) in labels.iter().enumerate() {
                buckets[c].push(i);
            }
            hyperedges.extend(buckets.into_iter().filter(|b| !b.is_empty()));
        }
        let coassoc = {
            let _span = mtrl_obs::span!("ensemble.coassoc");
            let mut builder = CoAssocBuilder::new(n_t);
            for member in members {
                builder.add_partition(&member.labels_per_type[t]);
            }
            builder.build(spec.coassoc_p)
        };
        // Every member whose partition fits in k_t clusters is a candidate
        // walk anchor; the merge picks the best consensus by
        // ratio-association score, so one weak member cannot pin the
        // result (see `merge::consensus_over_references`).
        let candidates: Vec<&[usize]> = members
            .iter()
            .map(|m| m.labels_per_type[t].as_slice())
            .filter(|labels| labels.iter().all(|&c| c < k_t))
            .collect();
        let out = consensus_over_references(
            &coassoc,
            &candidates,
            k_t,
            spec.walk_steps,
            spec.walk_decay,
            &hyperedges,
        );
        fallback_types += usize::from(out.used_fallback);
        blocks.push(labels_to_membership(&out.labels, k_t, spec.smoothing));
        labels_per_type.push(out.labels);
    }
    let g = stack_membership(&blocks);
    let s = closed_form_s(r, &g)?;
    Ok(EnsembleResult {
        doc_labels: labels_per_type[0].clone(),
        labels_per_type,
        g,
        s,
        members: members
            .iter()
            .map(|m| MemberSummary {
                method: m.method.key(),
                seed: m.seed,
                doc_clusters: m.doc_clusters,
                final_objective: m.final_objective,
            })
            .collect(),
        fallback_types,
    })
}

/// The engine's closed-form association update evaluated once at the
/// consensus membership: `S = (GᵀG + εI)⁻¹ GᵀRG (GᵀG + εI)⁻¹`, with the
/// engine's ε ([`rhchme::engine::GRAM_RIDGE`]).
fn closed_form_s(r: &mtrl_sparse::Csr, g: &Mat) -> Result<Mat> {
    let gtg = ops::matmul_tn(g, g)?;
    let inv = solve::ridge_inverse(&gtg, rhchme::engine::GRAM_RIDGE)?;
    let rg = r.spmm_dense(g);
    let gtrg = ops::matmul_tn(g, &rg)?;
    Ok(ops::matmul(&ops::matmul(&inv, &gtrg)?, &inv)?)
}

/// Universal method dispatcher: executes [`MethodSpec::Ensemble`] here,
/// delegates every base spec to `rhchme::pipeline::run_spec`.
///
/// # Errors
/// Propagates fit errors from either path.
pub fn run_spec(
    corpus: &mtrl_datagen::MultiTypeCorpus,
    spec: &MethodSpec,
    cfg: &RhchmeConfig,
) -> Result<MethodOutput> {
    let ensemble_spec = match spec {
        MethodSpec::Base(_) => return rhchme::pipeline::run_spec(corpus, spec, cfg),
        MethodSpec::Ensemble(e) => e,
    };
    let start = Instant::now();
    let result = fit_corpus(corpus, ensemble_spec, cfg)?;
    Ok(MethodOutput {
        method: spec.clone(),
        objective_trace: result.members.iter().map(|m| m.final_objective).collect(),
        doc_labels: result.doc_labels,
        label_trace: Vec::new(),
        elapsed: start.elapsed(),
        iterations: result.members.len(),
        converged: true,
    })
}

/// Export a consensus fit of `corpus` under `cfg` (the [`fit_corpus`]
/// call's arguments) as a serving-ready [`FittedModel`] with
/// `method = "ensemble"` provenance.
///
/// # Errors
/// Propagates data-assembly and export validation failures.
pub fn export_model(
    corpus: &mtrl_datagen::MultiTypeCorpus,
    result: &EnsembleResult,
    cfg: &RhchmeConfig,
) -> Result<FittedModel> {
    let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)?;
    let packaged = RhchmeResult {
        doc_labels: result.doc_labels.clone(),
        labels_per_type: result.labels_per_type.clone(),
        g: result.g.clone(),
        s: result.s.clone(),
        objective_trace: result.members.iter().map(|m| m.final_objective).collect(),
        label_trace: Vec::new(),
        error_row_norms: Vec::new(),
        error_rows: mtrl_sparse::RowSparse::new(data.total_objects(), data.total_objects()),
        iterations: result.members.len(),
        converged: true,
    };
    Ok(rhchme::export::build_model(cfg.clone(), &packaged, &data)?.with_method("ensemble"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};
    use rhchme::pipeline::Method;

    fn corpus() -> mtrl_datagen::MultiTypeCorpus {
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
            max_iter: 15,
            spg_max_iter: 15,
            feature_cluster_divisor: 10,
            ..RhchmeConfig::default()
        }
    }

    fn fast_spec() -> EnsembleSpec {
        EnsembleSpec {
            members: 4,
            ..EnsembleSpec::default()
        }
    }

    #[test]
    fn ensemble_fits_and_scores() {
        let c = corpus();
        let result = fit_corpus(&c, &fast_spec(), &fast_params()).unwrap();
        assert_eq!(result.doc_labels.len(), 16);
        assert_eq!(result.labels_per_type.len(), 3);
        assert_eq!(result.members.len(), 4);
        // Member 0 anchors: canonical method, seed, cluster count.
        assert_eq!(result.members[0].method, "rhchme");
        assert_eq!(result.members[0].seed, fast_params().seed);
        assert_eq!(result.members[0].doc_clusters, 2);
        let f = mtrl_metrics::fscore(&c.labels, &result.doc_labels);
        assert!(f > 0.7, "fscore {f}");
        assert!(result.s.shape().0 == result.g.shape().1);
    }

    #[test]
    fn dispatcher_handles_both_kinds() {
        let c = corpus();
        let params = fast_params();
        let base = run_spec(&c, &MethodSpec::from(Method::Snmtf), &params).unwrap();
        assert_eq!(base.method.key(), "snmtf");
        let spec = MethodSpec::Ensemble(fast_spec());
        let ens = run_spec(&c, &spec, &params).unwrap();
        assert_eq!(ens.method.key(), "ensemble");
        assert_eq!(ens.iterations, 4);
        assert_eq!(ens.objective_trace.len(), 4);
    }

    #[test]
    fn exported_model_is_valid_and_tagged() {
        let c = corpus();
        let params = fast_params();
        let result = fit_corpus(&c, &fast_spec(), &params).unwrap();
        let model = export_model(&c, &result, &params).unwrap();
        model.validate().unwrap();
        assert_eq!(model.method.as_deref(), Some("ensemble"));
        assert_eq!(model.sizes[0], 16);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let c = corpus();
        let params = fast_params();
        for bad in [
            EnsembleSpec {
                members: 0,
                ..EnsembleSpec::default()
            },
            EnsembleSpec {
                pool: vec![],
                ..EnsembleSpec::default()
            },
            EnsembleSpec {
                pool: vec![Method::DrT],
                ..EnsembleSpec::default()
            },
            EnsembleSpec {
                coassoc_p: 0,
                ..EnsembleSpec::default()
            },
            EnsembleSpec {
                walk_steps: 3,
                walk_decay: 0.0,
                ..EnsembleSpec::default()
            },
        ] {
            assert!(fit_corpus(&c, &bad, &params).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn random_k_perturbs_member_plans() {
        let c = corpus();
        let spec = EnsembleSpec {
            members: 6,
            ..EnsembleSpec::default()
        };
        let result = fit_corpus(&c, &spec, &fast_params()).unwrap();
        // With random-k on, members 1.. draw k ∈ [c, 2c]; at least the
        // plan fields are recorded and within range.
        for m in &result.members[1..] {
            assert!((2..=4).contains(&m.doc_clusters), "{m:?}");
        }
        assert!(result.members[1..].iter().any(|m| m.seed != 2015));
    }
}
