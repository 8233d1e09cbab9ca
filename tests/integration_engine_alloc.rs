//! Allocation-shape assertion: the sparse-first engine never allocates
//! an `n x n` dense matrix on the default fit path.
//!
//! `mtrl_linalg::mat::alloc_peak` records the largest single dense
//! allocation process-wide, which is why this test lives alone in its
//! own binary: any concurrently running test that touches an `n x n`
//! `Mat` (the dense reference path does, deliberately) would pollute
//! the high-water mark.

use rhchme::engine::{run_engine, run_engine_dense_reference, EngineConfig, GraphRegularizer};
use rhchme::kmeans::{kmeans, labels_to_membership};
use rhchme::MultiTypeData;

#[test]
fn sparse_engine_allocates_no_nxn_dense() {
    let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![70, 70],
        vocab_size: 120,
        concept_count: 30,
        doc_len_range: (25, 40),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.15,
        corrupt_frac: 0.1,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 71 ^ mtrl_datagen::seed_from_env(0),
    });
    // Divisor 20 keeps c small so `n·c ≪ n²` and the bound is sharp.
    let data = MultiTypeData::from_corpus(&corpus, 20).unwrap();
    let n = data.total_objects();
    let c = data.total_clusters();
    assert!(
        n * c * 8 < n * n,
        "test geometry: need n ≫ c (n={n}, c={c})"
    );

    // Artifact stage (feature views, graphs, k-means) may allocate
    // dense `n_k x D` views — the contract under test is the engine
    // loop itself: R, Q, E_R and GSGᵀ all sparse or implicit.
    let lap = mtrl_sparse::SparseBlockDiag::new(
        data.all_features()
            .iter()
            .map(|f| {
                mtrl_graph::laplacian_csr(
                    &mtrl_graph::pnn_graph(
                        f,
                        5,
                        mtrl_graph::WeightScheme::Cosine,
                        &mtrl_graph::GraphBackend::Exact,
                    ),
                    mtrl_graph::LaplacianKind::SymNormalized,
                )
            })
            .collect(),
    )
    .unwrap();
    let g0 = {
        let blocks: Vec<mtrl_linalg::Mat> = data
            .all_features()
            .iter()
            .zip(data.cluster_counts())
            .enumerate()
            .map(|(k, (f, &ck))| {
                let km = kmeans(f, ck, 7 + k as u64, 30);
                labels_to_membership(&km.labels, ck, 0.2)
            })
            .collect();
        mtrl_linalg::block::stack_membership(&blocks)
    };
    let r = data.assemble_r_csr();
    let cfg = EngineConfig {
        lambda: 0.8,
        beta: 10.0,
        max_iter: 15,
        tol: 0.0,
        ..EngineConfig::default()
    };
    let reg = GraphRegularizer::Fixed(lap);

    // --- The default (sparse) path: peak single allocation is O(n·c).
    mtrl_linalg::mat::alloc_peak::reset();
    let res = run_engine(&r, &data, &reg, g0.clone(), &cfg).unwrap();
    let peak = mtrl_linalg::mat::alloc_peak::peak_elems();
    assert_eq!(res.iterations, 15);
    assert!(
        peak <= 2 * n * c,
        "sparse engine allocated a {peak}-element dense matrix; \
         the largest engine temporary must be O(n·c) = {}",
        n * c
    );
    assert!(
        peak * 8 < n * n,
        "sparse engine peak {peak} is within 8x of n² = {} — an n x n \
         buffer leaked back into the fit path",
        n * n
    );

    // --- The dense reference, by contrast, holds full n x n buffers
    // (this is exactly what the oracle must be able to see).
    let r_dense = data.assemble_r();
    mtrl_linalg::mat::alloc_peak::reset();
    run_engine_dense_reference(&r_dense, &data, &reg, g0, &cfg).unwrap();
    assert!(
        mtrl_linalg::mat::alloc_peak::peak_elems() >= n * n,
        "oracle failed to observe the dense reference's n x n buffers"
    );
}
