//! Criterion microbenches of the subspace learners: SPG (Algorithm 1,
//! the `‖WWᵀ‖₁`/SSQP regulariser) vs the ISTA l1 (SSC-style) ablation.
//!
//! The paper cites ref [10] for the claim that the `‖WWᵀ‖₁` regulariser
//! reaches sparser solutions "with less time consumption" than l1 — this
//! bench is the ablation backing that statement in the reproduction.
//!
//! `spg_affinity/large3_330docs` times the SPG call a cold fit makes on
//! the document type of a Large3-shaped corpus (330 documents, 190
//! features, `quick_params`' 30 iterations). With `MTRL_BENCH_JSON` set,
//! the run emits the summary the CI `bench-smoke` job gates against the
//! committed `BENCH_subspace.json`. The kernel pool is pinned to one
//! thread, as in the end-to-end benchmark, so the gated means time the
//! solvers rather than thread start-up (thread-count invariance is
//! tested, not benched).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_datagen::manifold::union_of_subspaces;
use mtrl_subspace::{ista_affinity, spg_affinity, IstaConfig, SpgConfig};
use std::hint::black_box;

fn bench_spg(c: &mut Criterion) {
    mtrl_linalg::par::set_num_threads(1);
    let mut group = c.benchmark_group("spg_affinity");
    group.sample_size(10);
    let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![110; 3],
        seed: 1,
        ..mtrl_eval::CorpusShape::Large3.config()
    });
    let params = mtrl_eval::runner::quick_params(1);
    let docs = rhchme::MultiTypeData::from_corpus(&corpus, params.feature_cluster_divisor)
        .expect("Large3 corpus assembles")
        .features(0);
    let cfg = SpgConfig {
        gamma: params.gamma,
        max_iter: params.spg_max_iter,
        ..SpgConfig::default()
    };
    group.bench_function("large3_330docs", |bencher| {
        bencher.iter(|| spg_affinity(black_box(&docs), &cfg).unwrap());
    });
    for &n_per in &[30usize, 60] {
        let (data, _) = union_of_subspaces(3, 2, 12, n_per, 0.02, 21);
        group.bench_with_input(
            BenchmarkId::from_parameter(3 * n_per),
            &n_per,
            |bencher, _| {
                bencher.iter(|| {
                    spg_affinity(
                        black_box(&data),
                        &SpgConfig {
                            max_iter: 60,
                            ..SpgConfig::default()
                        },
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_ista(c: &mut Criterion) {
    let mut group = c.benchmark_group("ista_affinity");
    group.sample_size(10);
    for &n_per in &[30usize, 60] {
        let (data, _) = union_of_subspaces(3, 2, 12, n_per, 0.02, 22);
        group.bench_with_input(
            BenchmarkId::from_parameter(3 * n_per),
            &n_per,
            |bencher, _| {
                bencher.iter(|| {
                    ista_affinity(
                        black_box(&data),
                        &IstaConfig {
                            max_iter: 60,
                            ..IstaConfig::default()
                        },
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_spg, bench_ista);
criterion_main!(benches);
