//! Criterion microbenches of corpus generation: the Large3 corpus every
//! end-to-end fit starts from, at the 330 documents of a `cold_fit`
//! corpus and the 2,640 of the large quality tier, plus the stratified
//! train/held-out split the serving scenarios make of it.
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary the CI
//! `bench-smoke` job gates against the committed `BENCH_datagen.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_datagen::corpus::generate;
use mtrl_datagen::{split_corpus, CorpusConfig};
use std::hint::black_box;

/// A Large3 corpus of `docs` documents (three equal classes).
fn large3(docs: usize) -> CorpusConfig {
    CorpusConfig {
        docs_per_class: vec![docs / 3; 3],
        seed: 1,
        ..mtrl_eval::CorpusShape::Large3.config()
    }
}

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_large3");
    for docs in [330, 2640] {
        let cfg = large3(docs);
        group.bench_with_input(BenchmarkId::from_parameter(docs), &cfg, |bencher, cfg| {
            bencher.iter(|| generate(black_box(cfg)));
        });
    }
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let corpus = generate(&large3(330));
    let mut group = c.benchmark_group("split_corpus");
    group.bench_function("large3_330docs", |bencher| {
        bencher.iter(|| split_corpus(black_box(&corpus), 0.35, 7));
    });
    group.finish();
}

criterion_group!(benches, bench_generate, bench_split);
criterion_main!(benches);
