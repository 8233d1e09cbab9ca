//! Sparse-first engine ≡ dense reference.
//!
//! The default fit path runs `rhchme::engine::run_engine` on a CSR `R`
//! with an implicit `E_R` and trace-identity objective; the original
//! dense loop survives as `run_engine_dense_reference`. These tests pin
//! the two implementations to each other over random corpora, all four
//! method configurations (SRC / SNMTF / RMC / RHCHME) and thread counts
//! 1–4: objective traces within 1e-9 relative, argmax labels identical
//! for every object type.

use mtrl_graph::{laplacian_csr, pnn_graph, GraphBackend, LaplacianKind, WeightScheme};
use proptest::prelude::*;
use rhchme::engine::{
    run_engine, run_engine_dense_reference, EngineConfig, EngineResult, GraphRegularizer,
};
use rhchme::kmeans::{kmeans, labels_to_membership};
use rhchme::MultiTypeData;

fn random_corpus(classes: usize, per: usize, seed: u64) -> mtrl_datagen::MultiTypeCorpus {
    mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![per; classes],
        vocab_size: 24 * classes,
        concept_count: 6 * classes,
        doc_len_range: (20, 35),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.15,
        corrupt_frac: 0.1,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: seed ^ mtrl_datagen::seed_from_env(0),
    })
}

fn init_g(data: &MultiTypeData, seed: u64) -> mtrl_linalg::Mat {
    let blocks: Vec<mtrl_linalg::Mat> = data
        .all_features()
        .iter()
        .zip(data.cluster_counts())
        .enumerate()
        .map(|(k, (f, &ck))| {
            let km = kmeans(f, ck, seed.wrapping_add(k as u64), 30);
            labels_to_membership(&km.labels, ck, 0.2)
        })
        .collect();
    mtrl_linalg::block::stack_membership(&blocks)
}

/// The four method configurations the one engine drives (engine.rs's
/// configuration table).
fn method_setup(data: &MultiTypeData, method: usize) -> (GraphRegularizer, EngineConfig) {
    let pnn = |p: usize, scheme| {
        let blocks = data
            .all_features()
            .iter()
            .map(|f| {
                laplacian_csr(
                    &pnn_graph(f, p, scheme, &GraphBackend::Exact),
                    LaplacianKind::SymNormalized,
                )
            })
            .collect();
        mtrl_sparse::SparseBlockDiag::new(blocks).unwrap()
    };
    let base = EngineConfig {
        max_iter: 12,
        tol: 0.0, // run the full budget: equivalence over every iterate
        ..EngineConfig::default()
    };
    match method {
        // SRC: inter-type only.
        0 => (
            GraphRegularizer::None,
            EngineConfig {
                lambda: 0.0,
                use_error_matrix: false,
                l1_row_normalize: false,
                ..base
            },
        ),
        // SNMTF: single fixed pNN Laplacian.
        1 => (
            GraphRegularizer::Fixed(pnn(5, WeightScheme::Cosine)),
            EngineConfig {
                lambda: 0.5,
                use_error_matrix: false,
                l1_row_normalize: false,
                ..base
            },
        ),
        // RMC: optimised candidate ensemble.
        2 => (
            GraphRegularizer::Ensemble {
                candidates: vec![
                    pnn(3, WeightScheme::Binary),
                    pnn(3, WeightScheme::Cosine),
                    pnn(5, WeightScheme::Cosine),
                ],
                mu: 1.0,
            },
            EngineConfig {
                lambda: 0.5,
                use_error_matrix: false,
                l1_row_normalize: false,
                ..base
            },
        ),
        // RHCHME: fixed ensemble + E_R + row-ℓ1.
        _ => (
            GraphRegularizer::Fixed(pnn(5, WeightScheme::Cosine)),
            EngineConfig {
                lambda: 0.8,
                beta: 10.0,
                use_error_matrix: true,
                l1_row_normalize: true,
                ..base
            },
        ),
    }
}

fn assert_equivalent(data: &MultiTypeData, sparse: &EngineResult, dense: &EngineResult) {
    assert_eq!(sparse.iterations, dense.iterations, "iteration counts");
    assert_eq!(
        sparse.objective_trace.len(),
        dense.objective_trace.len(),
        "trace lengths"
    );
    for (t, (a, b)) in sparse
        .objective_trace
        .iter()
        .zip(&dense.objective_trace)
        .enumerate()
    {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "objective diverged at iteration {t}: sparse {a} vs dense {b}"
        );
    }
    for ty in 0..data.num_types() {
        assert_eq!(
            data.labels_from_membership(&sparse.g, ty),
            data.labels_from_membership(&dense.g, ty),
            "labels diverged for type {ty}"
        );
    }
    if let (Some(a), Some(b)) = (&sparse.ensemble_weights, &dense.ensemble_weights) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "ensemble weights diverged");
        }
    }
}

fn check_equivalence(classes: usize, per: usize, seed: u64, method: usize, threads: usize) {
    let corpus = random_corpus(classes, per, seed);
    let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
    let (reg, cfg) = method_setup(&data, method);
    let g0 = init_g(&data, seed);
    let r_sparse = data.assemble_r_csr();
    let r_dense = data.assemble_r();
    let before = mtrl_linalg::par::num_threads();
    mtrl_linalg::par::set_num_threads(threads);
    let sparse = run_engine(&r_sparse, &data, &reg, g0.clone(), &cfg).unwrap();
    let dense = run_engine_dense_reference(&r_dense, &data, &reg, g0, &cfg).unwrap();
    mtrl_linalg::par::set_num_threads(before);
    assert_equivalent(&data, &sparse, &dense);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sparse_engine_equals_dense_reference(
        classes in 2usize..4,
        per in 4usize..9,
        seed in any::<u64>(),
        method in 0usize..4,
        threads in 1usize..5,
    ) {
        check_equivalence(classes, per, seed, method, threads);
    }
}

/// The deterministic corner of the fuzz: every method configuration at
/// every thread count on one fixed corpus (runs under the CI
/// `MTRL_SEED` matrix via `seed_from_env`).
#[test]
fn all_methods_all_thread_counts_fixed_corpus() {
    for method in 0..4 {
        for threads in 1..=4 {
            check_equivalence(2, 8, 1234, method, threads);
        }
    }
}
