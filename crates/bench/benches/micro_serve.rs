//! Microbenches of the serving hot path: single-document fold-in,
//! batched assignment throughput, and the persistence round-trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_serve::{persist, AssignRequest, Assigner, FittedModel, ServeEngine, SparseVec};
use rhchme::rhchme::{Rhchme, RhchmeConfig};
use std::hint::black_box;

fn fitted_model() -> FittedModel {
    let corpus = generate(&CorpusConfig {
        docs_per_class: vec![16, 16, 16],
        vocab_size: 200,
        concept_count: 60,
        doc_len_range: (40, 70),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 9,
    });
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(&corpus).expect("fit");
    rhchme.export_model(&result).expect("export")
}

fn synthetic_docs(n: usize, dim: usize, nnz: usize) -> Vec<SparseVec> {
    (0..n)
        .map(|i| {
            let indices: Vec<usize> = (0..nnz).map(|j| (i * 31 + j * 7) % dim).collect();
            let values: Vec<f64> = (0..nnz)
                .map(|j| 0.1 + ((i + j) % 10) as f64 * 0.1)
                .collect();
            SparseVec::new(indices, values).expect("bench doc")
        })
        .collect()
}

fn bench_single_foldin(c: &mut Criterion) {
    let model = fitted_model();
    let dim = model.feature_dims[0];
    let assigner = Assigner::new(model).expect("assigner");
    let doc = &synthetic_docs(1, dim, 24)[0];
    c.bench_function("foldin_single_doc_nnz24", |bencher| {
        bencher.iter(|| assigner.assign(0, black_box(doc)).unwrap());
    });
}

fn bench_batch_throughput(c: &mut Criterion) {
    let model = fitted_model();
    let dim = model.feature_dims[0];
    let assigner = Assigner::new(model).expect("assigner");
    let mut group = c.benchmark_group("foldin_batch");
    group.sample_size(20);
    for &batch in &[64usize, 512] {
        let docs = synthetic_docs(batch, dim, 24);
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |bencher, _| {
            bencher.iter(|| assigner.assign_batch(0, black_box(&docs)).unwrap());
        });
    }
    group.finish();
}

fn bench_engine_round_trip(c: &mut Criterion) {
    let model = fitted_model();
    let dim = model.feature_dims[0];
    let engine = ServeEngine::new(4);
    engine.register("bench", model).expect("register");
    let docs = synthetic_docs(64, dim, 24);
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    group.bench_function("submit_wait_batch64", |bencher| {
        bencher.iter(|| {
            engine
                .submit(AssignRequest::new("bench").docs(docs.clone()))
                .wait()
                .unwrap()
        });
    });
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let model = fitted_model();
    let bytes = persist::to_bytes(&model).expect("serialize");
    assert_eq!(
        persist::from_bytes(&bytes).unwrap().content_digest(),
        model.content_digest()
    );
    let mut group = c.benchmark_group("persist");
    group.sample_size(10);
    group.bench_function("to_binary", |bencher| {
        bencher.iter(|| persist::to_bytes(black_box(&model)).unwrap());
    });
    group.bench_function("from_binary_verified", |bencher| {
        bencher.iter(|| persist::from_bytes(black_box(&bytes)).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_foldin,
    bench_batch_throughput,
    bench_engine_round_trip,
    bench_persistence
);
criterion_main!(benches);
