//! Criterion microbenches of the subspace learner: SPG (Algorithm 1,
//! the `‖WWᵀ‖₁`/SSQP regulariser).
//!
//! `spg_affinity/large3_330docs` times the SPG call a cold fit makes on
//! the document type of a Large3-shaped corpus (330 documents, 190
//! features, `quick_params`' 30 iterations). With `MTRL_BENCH_JSON` set,
//! the run emits the summary the CI `bench-smoke` job gates against the
//! committed `BENCH_subspace.json`. The kernel pool is pinned to one
//! thread, as in the end-to-end benchmark, so the gated means time the
//! solvers rather than thread start-up (thread-count invariance is
//! tested, not benched).
//!
//! `spg_support_product/large3_330docs` times one call of the solver's
//! `O(n·K′²)` kernel, the support product `(D·K)[i, S_i]`, on the same
//! documents' Gram and candidate support, with `D` about 62 % nonzero
//! as a cold fit's search directions are.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_datagen::manifold::union_of_subspaces;
use mtrl_linalg::Mat;
use mtrl_subspace::{spg_affinity, SpgConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

// The solver's private support and product, compiled here so the kernel
// is timed on its own without widening `mtrl-subspace`'s public API.
#[path = "../../subspace/src/support.rs"]
#[allow(dead_code)]
mod support;

/// The document features of the Large3-shaped corpus a cold fit runs
/// SPG on (330 documents, 190 features).
fn large3_docs() -> Mat {
    let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![110; 3],
        seed: 1,
        ..mtrl_eval::CorpusShape::Large3.config()
    });
    let params = mtrl_eval::runner::quick_params(1);
    rhchme::MultiTypeData::from_corpus(&corpus, params.feature_cluster_divisor)
        .expect("Large3 corpus assembles")
        .features(0)
}

fn bench_support_product(c: &mut Criterion) {
    mtrl_linalg::par::set_num_threads(1);
    let k = mtrl_linalg::ops::row_gram(&large3_docs());
    let support = support::Support::top_inner_products(&k, support::CANDIDATES);
    let (n, width) = (k.rows(), support.width);
    let mut rng = StdRng::seed_from_u64(5);
    let mut x = Mat::zeros(n, width);
    for v in x.as_mut_slice() {
        if rng.gen_range(0.0..1.0) < 0.62 {
            *v = rng.gen_range(-1e-3..1e-3);
        }
    }
    let mut out = Mat::zeros(n, width);
    let mut group = c.benchmark_group("spg_support_product");
    group.bench_function("large3_330docs", |bencher| {
        bencher.iter(|| support::support_product(&k, &support, black_box(&x), &mut out));
    });
    group.finish();
}

fn bench_spg(c: &mut Criterion) {
    mtrl_linalg::par::set_num_threads(1);
    let mut group = c.benchmark_group("spg_affinity");
    group.sample_size(10);
    let docs = large3_docs();
    let params = mtrl_eval::runner::quick_params(1);
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

criterion_group!(benches, bench_support_product, bench_spg);
criterion_main!(benches);
