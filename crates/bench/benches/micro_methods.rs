//! Criterion microbenches of the end-to-end methods at tiny scale —
//! the per-method costs behind Table V's ordering.

use criterion::{criterion_group, criterion_main, Criterion};
use mtrl_datagen::datasets::{load, DatasetId, Scale};
use rhchme::pipeline::{run_spec, Method};
use rhchme::RhchmeConfig;
use std::hint::black_box;

fn bench_methods(c: &mut Criterion) {
    let corpus = load(DatasetId::D1, Scale::Tiny);
    let params = RhchmeConfig {
        max_iter: 30,
        spg_max_iter: 30,
        ..RhchmeConfig::default()
    };
    let mut group = c.benchmark_group("methods_d1_tiny");
    group.sample_size(10);
    for method in Method::all() {
        group.bench_function(method.paper_name(), |bencher| {
            bencher.iter(|| run_spec(black_box(&corpus), &method.into(), &params).unwrap());
        });
    }
    group.finish();
}

fn bench_engine_iteration_cost(c: &mut Criterion) {
    // One multiplicative-update iteration versus a full k-means init:
    // the two cost centres of every NMTF method.
    let corpus = load(DatasetId::D1, Scale::Tiny);
    let params = RhchmeConfig::default();
    let arts = rhchme::pipeline::Artifacts::new(&corpus, &params).unwrap();
    let l_sub = arts
        .subspace_laplacian(&RhchmeConfig {
            spg_max_iter: 20,
            ..params.clone()
        })
        .unwrap();
    let engine_cfg = RhchmeConfig {
        max_iter: 5,
        tol: 0.0,
        ..params
    };
    let mut group = c.benchmark_group("engine_d1_tiny");
    group.sample_size(10);
    group.bench_function("rhchme_engine_5_iters", |bencher| {
        bencher.iter(|| {
            arts.run_rhchme_engine(black_box(&l_sub), &engine_cfg)
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_methods, bench_engine_iteration_cost);
criterion_main!(benches);
