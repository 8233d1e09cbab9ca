//! Criterion microbenches of the streaming subsystem: batch-insert
//! throughput of the incremental pNN maintenance against the full
//! rebuild it replaces, the Laplacian refresh path, warm vs cold
//! refit wall-clock, and a whole session refit at the end-to-end
//! benchmark's stream shape.
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary the CI
//! `bench-smoke` job gates against the committed `BENCH_stream.json`.
//! The committed baseline also documents the acceptance ratio of the
//! streaming PR: inserting a 5% batch into an `n = 2000` graph must be
//! ≥ 5× faster than the `pnn_graph` rebuild (quick-mode numbers on the
//! CI container comfortably exceed it).

use criterion::{criterion_group, criterion_main, Criterion};
use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_datagen::stream::{generate_stream, StreamConfig};
use mtrl_eval::{quick_params, rhchme_config, CorpusShape};
use mtrl_graph::{laplacian_csr, pnn_graph, GraphBackend, LaplacianKind, WeightScheme};
use mtrl_linalg::random::rand_uniform;
use mtrl_stream::{
    warm_membership, DynamicGraph, DynamicGraphConfig, RefreshPolicy, StreamSession,
};
use rhchme::rhchme::WarmStart;
use rhchme::{MultiTypeData, Rhchme, RhchmeConfig};
use std::hint::black_box;

/// The acceptance benchmark: a 5% batch (100 rows) into an existing
/// `n = 1900` graph versus rebuilding the full `n = 2000` graph from
/// scratch. Outputs are asserted identical before anything is timed.
/// The incremental timing includes cloning the base graph (the bench
/// must restore pre-insert state every iteration); the clone is a
/// ~2 MB memcpy, well under the distance work being measured.
fn bench_insert(c: &mut Criterion) {
    let n = 2000;
    let batch = 100;
    let data = rand_uniform(n, 64, 0.0, 1.0, 21);
    let base_rows = data.submatrix(0, 0, n - batch, 64);
    let new_rows = data.submatrix(n - batch, 0, batch, 64);
    let cfg = DynamicGraphConfig {
        p: 5,
        scheme: WeightScheme::Cosine,
        rebuild_threshold: 1.0,
    };
    let base = DynamicGraph::new(&base_rows, cfg.clone());
    {
        let mut grown = base.clone();
        let report = grown.insert_batch(&new_rows);
        assert!(!report.rebuilt, "batch insert must stay incremental");
        assert_eq!(
            grown.graph(),
            pnn_graph(&data, 5, WeightScheme::Cosine, &GraphBackend::Exact),
            "incremental graph diverged from the batch build"
        );
    }

    let mut group = c.benchmark_group("stream_insert_n2000_d64_p5");
    group.sample_size(10);
    group.bench_function("incremental_batch100", |bencher| {
        bencher.iter(|| {
            let mut g = base.clone();
            g.insert_batch(black_box(&new_rows));
            g
        });
    });
    group.bench_function("full_rebuild", |bencher| {
        bencher.iter(|| {
            pnn_graph(
                black_box(&data),
                5,
                WeightScheme::Cosine,
                &GraphBackend::Exact,
            )
        });
    });
    group.finish();
}

/// Refreshing the Laplacian from the maintained adjacency (`O(nnz·d)`)
/// versus the cold path (rebuild the graph, then the Laplacian).
fn bench_laplacian_refresh(c: &mut Criterion) {
    let data = rand_uniform(2000, 64, 0.0, 1.0, 22);
    let g = DynamicGraph::new(&data, DynamicGraphConfig::default());
    let mut group = c.benchmark_group("stream_laplacian_n2000");
    group.sample_size(10);
    group.bench_function("incremental_refresh", |bencher| {
        bencher.iter(|| black_box(&g).laplacian(LaplacianKind::SymNormalized));
    });
    group.bench_function("cold_rebuild", |bencher| {
        bencher.iter(|| {
            let w = pnn_graph(
                black_box(&data),
                5,
                WeightScheme::Cosine,
                &GraphBackend::Exact,
            );
            laplacian_csr(&w, LaplacianKind::SymNormalized)
        });
    });
    group.finish();
}

/// Warm vs cold refit wall-clock on a small three-type corpus: the warm
/// path reuses a prebuilt Laplacian and a previous-solution `G₀` with a
/// capped iteration budget; the cold path runs the full two-stage fit.
fn bench_refit(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig {
        docs_per_class: vec![8, 8, 8],
        vocab_size: 60,
        concept_count: 15,
        doc_len_range: (30, 45),
        background_frac: 0.25,
        topic_noise: 0.25,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 23,
    });
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(&corpus).expect("initial fit");
    let model = rhchme.export_model(&result, &corpus).expect("export");
    let assigner = mtrl_serve::Assigner::new(model).expect("assigner");
    let data = MultiTypeData::from_corpus(&corpus, 20).expect("data");
    let features = data.all_features();
    let laplacian = rhchme::intra::pnn_laplacians_backend_prec(
        &features,
        5,
        WeightScheme::Cosine,
        LaplacianKind::SymNormalized,
        &GraphBackend::Exact,
        Default::default(),
    )
    .expect("laplacian");
    let survivors: Vec<Vec<Option<usize>>> = data
        .sizes()
        .iter()
        .map(|&n| (0..n).map(Some).collect())
        .collect();
    let g0 = warm_membership(&data, &assigner, &survivors, 0.1).expect("warm G0");

    let mut group = c.benchmark_group("stream_refit_tiny3x8");
    group.sample_size(10);
    group.bench_function("warm_15iter", |bencher| {
        bencher.iter(|| {
            rhchme
                .fit_warm(
                    black_box(&data),
                    WarmStart {
                        g0: g0.clone(),
                        laplacian: Some(laplacian.clone()),
                        max_iter: 15,
                    },
                )
                .expect("warm refit")
        });
    });
    group.bench_function("cold_full", |bencher| {
        bencher.iter(|| rhchme.fit_data(black_box(&data)).expect("cold refit"));
    });
    group.finish();
}

/// `StreamSession::refit_now` at 630 documents: a Large3 stream of 330
/// initial documents (110 per class, seed 1, `quick_params`) after 10
/// drifting batches of 30 under a 4-batch cadence — the shape of
/// perfbench's `stream_refresh` workload, one kernel thread. Every timed
/// call refits the same corpus, so after the first it finds no new
/// document to fold into the vocabulary searches: the row times the
/// rest of a refit (data assembly, the finished term/concept searches
/// and graphs, the warm `G₀`, the capped engine run, export and swap).
fn bench_session_refit(c: &mut Criterion) {
    let threads = mtrl_linalg::par::num_threads();
    mtrl_linalg::par::set_num_threads(1);
    let params = quick_params(1);
    let (initial, batches) = generate_stream(&StreamConfig {
        base: CorpusConfig {
            docs_per_class: vec![110; 3],
            seed: 1,
            ..CorpusShape::Large3.config()
        },
        batches: 10,
        docs_per_batch: 30,
        drift_after: Some(8),
        drift_shift: 0.4,
    });
    let mut session = StreamSession::new(
        initial,
        Rhchme::new(rhchme_config(&params)),
        RefreshPolicy {
            every_batches: Some(4),
            min_confidence: None,
            ..RefreshPolicy::default()
        },
    )
    .expect("session");
    for batch in &batches {
        session.push_batch(batch).expect("push");
    }
    assert_eq!(session.corpus().num_docs(), 630);

    let mut group = c.benchmark_group("stream_refit_large3");
    group.sample_size(10);
    group.bench_function("refit_now_630docs", |bencher| {
        bencher.iter(|| session.refit_now().expect("refit"));
    });
    group.finish();
    mtrl_linalg::par::set_num_threads(threads);
}

criterion_group!(
    benches,
    bench_insert,
    bench_laplacian_refresh,
    bench_refit,
    bench_session_refit
);
criterion_main!(benches);
