//! Criterion microbenches of the consensus-ensemble layer: the sparse
//! co-association build (the stage that must never densify to n×n), the
//! anchor-selected trajectory merge, and the full ensemble fit against
//! the single RHCHME fit it wraps, plus the default 8-member fit on the
//! end-to-end workload's 240-document shape.
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary the CI
//! `bench-smoke` job gates against the committed `BENCH_ensemble.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_ensemble::{consensus_over_references, CoAssocBuilder};
use rhchme::pipeline::EnsembleSpec;
use rhchme::RhchmeConfig;
use std::hint::black_box;

/// Deterministic synthetic partitions: a planted k-way split with a
/// per-partition fraction of labels rotated (a cheap stand-in for member
/// disagreement).
fn synthetic_partitions(n: usize, m: usize, k: usize) -> Vec<Vec<usize>> {
    (0..m)
        .map(|p| {
            (0..n)
                .map(|i| {
                    let planted = i * k / n;
                    if (i * 31 + p * 17) % 10 < 2 {
                        (planted + 1 + p) % k
                    } else {
                        planted
                    }
                })
                .collect()
        })
        .collect()
}

fn bench_coassoc_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("coassoc_build");
    group.sample_size(20);
    for &n in &[500usize, 2000] {
        let partitions = synthetic_partitions(n, 8, 5);
        let mut builder = CoAssocBuilder::new(n);
        for labels in &partitions {
            builder.add_partition(labels);
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| black_box(&builder).build(16));
        });
    }
    group.finish();
}

fn bench_trajectory_merge(c: &mut Criterion) {
    let n = 2000;
    let partitions = synthetic_partitions(n, 8, 5);
    let mut builder = CoAssocBuilder::new(n);
    for labels in &partitions {
        builder.add_partition(labels);
    }
    let coassoc = builder.build(16);
    let candidates: Vec<&[usize]> = partitions.iter().map(Vec::as_slice).collect();
    c.bench_function("trajectory_merge_2000", |bencher| {
        bencher
            .iter(|| consensus_over_references(black_box(&coassoc), &candidates, 5, 3, 0.8, &[]));
    });
}

fn bench_full_fit(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig {
        docs_per_class: vec![20, 20, 20],
        vocab_size: 150,
        concept_count: 40,
        doc_len_range: (30, 50),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 12,
    });
    let params = RhchmeConfig {
        max_iter: 20,
        spg_max_iter: 20,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let mut group = c.benchmark_group("ensemble_fit");
    group.sample_size(10);
    group.bench_function("members4_60docs", |bencher| {
        bencher.iter(|| {
            mtrl_ensemble::fit_corpus(
                black_box(&corpus),
                &EnsembleSpec {
                    members: 4,
                    ..EnsembleSpec::default()
                },
                &params,
            )
            .unwrap()
        });
    });
    // The single-method fit the ensemble amortises its artifacts over —
    // the committed ratio documents the layer's overhead (4 members
    // well under 4x one fit, because artifacts are shared).
    group.bench_function("single_rhchme_60docs", |bencher| {
        bencher.iter(|| {
            rhchme::pipeline::run_spec(
                black_box(&corpus),
                &rhchme::pipeline::Method::Rhchme.into(),
                &params,
            )
            .unwrap()
        });
    });
    // The default 8-member spec on the end-to-end `ensemble_fit`
    // workload's input shape (240 Large3 documents, quick parameters):
    // artifacts, regularisers, the members in lockstep and the merge.
    let seed = 64;
    let corpus = generate(&CorpusConfig {
        docs_per_class: vec![80, 80, 80],
        seed,
        ..mtrl_eval::CorpusShape::Large3.config()
    });
    let quick = mtrl_eval::runner::quick_params(seed);
    group.bench_function("members8_240docs", |bencher| {
        bencher.iter(|| {
            mtrl_ensemble::fit_corpus(black_box(&corpus), &EnsembleSpec::default(), &quick).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_coassoc_build,
    bench_trajectory_merge,
    bench_full_fit
);
criterion_main!(benches);
