//! Integration tests of the pipeline plumbing: artifact caching,
//! label-trace recording, error-matrix diagnostics.

use rhchme_repro::core::pipeline::Artifacts;
use rhchme_repro::prelude::*;

fn corpus(seed: u64) -> MultiTypeCorpus {
    // `MTRL_SEED` (CI seed matrix) shifts every corpus realisation.
    let seed = seed + mtrl_datagen::seed_from_env(0);
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![10, 10, 10],
        vocab_size: 80,
        concept_count: 20,
        doc_len_range: (35, 60),
        background_frac: 0.3,
        topic_noise: 0.25,
        concept_map_noise: 0.1,
        corrupt_frac: 0.1,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed,
    })
}

#[test]
fn artifacts_cache_equals_full_run() {
    // Running RHCHME through Artifacts (the sweep path) must give the
    // same labels as the one-shot estimator with identical parameters.
    let c = corpus(401);
    let params = RhchmeConfig {
        lambda: 1.0,
        beta: 10.0,
        max_iter: 30,
        spg_max_iter: 30,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let direct = run_spec(&c, &Method::Rhchme.into(), &params).unwrap();

    let arts = Artifacts::new(&c, &params).unwrap();
    let l_sub = arts.subspace_laplacian(&params).unwrap();
    let cached = arts.run_rhchme_engine(&l_sub, &params).unwrap();
    assert_eq!(direct.doc_labels, cached.doc_labels);
}

#[test]
fn sweep_reuses_artifacts_consistently() {
    // Two engine runs from the same artifacts with different lambda must
    // share initialisation (deterministic caching), and an identical
    // lambda must reproduce identical results.
    let c = corpus(402);
    let params = RhchmeConfig {
        lambda: 1.0,
        gamma: 25.0,
        beta: 10.0,
        max_iter: 20,
        spg_max_iter: 25,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let arts = Artifacts::new(&c, &params).unwrap();
    let l_sub = arts.subspace_laplacian(&params).unwrap();
    let a = arts.run_rhchme_engine(&l_sub, &params).unwrap();
    let b = arts.run_rhchme_engine(&l_sub, &params).unwrap();
    assert_eq!(a.doc_labels, b.doc_labels);
    assert_eq!(a.objective_trace, b.objective_trace);
}

#[test]
fn label_trace_has_iteration_granularity() {
    let c = corpus(403);
    let params = RhchmeConfig {
        lambda: 1.0,
        max_iter: 12,
        tol: 0.0, // force all iterations
        spg_max_iter: 20,
        feature_cluster_divisor: 10,
        record_doc_labels: true,
        ..RhchmeConfig::default()
    };
    let out = run_spec(&c, &Method::Rhchme.into(), &params).unwrap();
    assert_eq!(out.label_trace.len(), out.iterations);
    for labels in &out.label_trace {
        assert_eq!(labels.len(), c.num_docs());
    }
    // Fig. 3 shape: quality at the final iteration should be at least
    // that of the first iteration.
    let first = fscore(&c.labels, &out.label_trace[0]);
    let last = fscore(&c.labels, out.label_trace.last().unwrap());
    assert!(
        last >= first - 0.05,
        "quality degraded along iterations: {first} -> {last}"
    );
}

#[test]
fn error_matrix_flags_corrupted_documents() {
    let c = corpus(404);
    assert!(!c.corrupted_docs.is_empty());
    let params = RhchmeConfig {
        lambda: 1.0,
        gamma: 25.0,
        beta: 5.0,
        max_iter: 40,
        spg_max_iter: 25,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let arts = Artifacts::new(&c, &params).unwrap();
    let l_sub = arts.subspace_laplacian(&params).unwrap();
    let res = arts.run_rhchme_engine(&l_sub, &params).unwrap();
    let doc_norms = &res.error_row_norms[..c.num_docs()];
    let corrupted_mean = mtrl_linalg::vecops::mean(
        &c.corrupted_docs
            .iter()
            .map(|&d| doc_norms[d])
            .collect::<Vec<_>>(),
    );
    let clean_mean = mtrl_linalg::vecops::mean(
        &(0..c.num_docs())
            .filter(|d| !c.corrupted_docs.contains(d))
            .map(|d| doc_norms[d])
            .collect::<Vec<_>>(),
    );
    assert!(
        corrupted_mean > clean_mean,
        "E_R row norms do not separate corrupted ({corrupted_mean:.4}) from clean ({clean_mean:.4})"
    );
}

#[test]
fn dataset_presets_integrate_with_pipeline() {
    // Tiny presets of all four datasets must run end to end.
    let params = RhchmeConfig {
        lambda: 1.0,
        max_iter: 15,
        spg_max_iter: 15,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    for id in DatasetId::all() {
        let c = load(id, Scale::Tiny);
        let out = run_spec(&c, &Method::Rhchme.into(), &params).unwrap();
        let f = fscore(&c.labels, &out.doc_labels);
        assert!(f > 0.2, "{id:?} fscore {f}");
    }
}
