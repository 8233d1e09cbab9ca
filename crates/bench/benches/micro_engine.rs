//! Criterion microbenches of the sparse-first NMTF engine: the
//! per-iteration multiplicative-update step on an `n = 2000` three-type
//! dataset across relation sparsity levels, sparse path
//! (`run_engine`) versus the retired dense loop
//! (`run_engine_dense_reference`).
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary the CI
//! `bench-smoke` job gates against the committed `BENCH_engine.json`.
//! The committed baseline also documents the acceptance ratio of the
//! sparse-engine PR: at realistic corpus sparsity the sparse
//! per-iteration step must be ≥ 3× faster than the dense loop
//! (quick-mode numbers on the CI container comfortably exceed it).
//! Outputs are asserted equivalent (objective within 1e-9 relative,
//! identical labels) before anything is timed.
//!
//! The `engine_narrow_large3_240` group times the shapes an ensemble
//! member runs on: the 240-document Large3 corpus of the end-to-end
//! `ensemble_fit` workload (`n = 430` objects, `c = 22` clusters of
//! 3 + 15 + 4, `nnz(R) ≈ 40k`) — the type-blocked kernels the engine
//! loop calls: `R·G` as each column type's block of `R` times `G`'s
//! packed own block (`Csr::spmm_into`), eight ensemble members' `R·G`
//! as one stacked product (`CsrBlock::spmm_stacked` over a `LaneStack`
//! of their packed blocks, as the lockstep engine refreshes them), and a
//! `G·B` product on each type's own rows and cluster columns
//! (`matmul_block`) — and one whole RMC engine fit (six-candidate
//! ensemble regulariser).

use criterion::{criterion_group, criterion_main, Criterion};
use mtrl_linalg::block::stack_membership;
use mtrl_linalg::Mat;
use mtrl_sparse::{CsrBuilder, LaneStack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhchme::engine::{run_engine, run_engine_dense_reference, EngineConfig, GraphRegularizer};
use rhchme::intra::rmc_candidates;
use rhchme::kmeans::labels_to_membership;
use rhchme::pipeline::Artifacts;
use rhchme::MultiTypeData;
use std::hint::black_box;

const SIZES: [usize; 3] = [1200, 600, 200];
const CLUSTERS: [usize; 3] = [8, 6, 4];

/// A three-type dataset (`n = 2000`, `c = 18`) whose pairwise relations
/// have the given nonzero density.
fn synthetic_data(density: f64, seed: u64) -> MultiTypeData {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relations = Vec::new();
    for (k, l) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let (rows, cols) = (SIZES[k], SIZES[l]);
        let mut csr = CsrBuilder::new(rows, cols);
        for _ in 0..rows {
            for j in 0..cols {
                if rng.gen_range(0.0..1.0) < density {
                    csr.push(j, rng.gen_range(0.1..1.0));
                }
            }
            csr.finish_row();
        }
        relations.push((k, l, csr.build()));
    }
    MultiTypeData::new(SIZES.to_vec(), CLUSTERS.to_vec(), relations).expect("valid layout")
}

/// Random block-structured membership init (k-means would dominate the
/// setup without changing what is measured).
fn random_g0(data: &MultiTypeData, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks: Vec<Mat> = data
        .cluster_counts()
        .iter()
        .zip(data.sizes())
        .map(|(&ck, &nk)| {
            let labels: Vec<usize> = (0..nk).map(|_| rng.gen_range(0..ck)).collect();
            labels_to_membership(&labels, ck, 0.2)
        })
        .collect();
    stack_membership(&blocks)
}

/// Two multiplicative-update iterations (the second exercises the
/// implicit-`E_R` low-rank correction, which is inactive on the first).
fn engine_cfg() -> EngineConfig {
    EngineConfig {
        lambda: 0.0,
        beta: 10.0,
        use_error_matrix: true,
        l1_row_normalize: true,
        max_iter: 2,
        tol: 0.0,
        ..EngineConfig::default()
    }
}

fn bench_engine_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step_n2000_c18");
    group.sample_size(10);
    // 0.5% ≈ tf-idf doc-term sparsity; 2% / 8% stress denser corpora.
    for (tag, density) in [("d0005", 0.005), ("d002", 0.02), ("d008", 0.08)] {
        let data = synthetic_data(density, 42);
        let r_sparse = data.assemble_r_csr();
        let r_dense = data.assemble_r();
        let g0 = random_g0(&data, 43);
        let cfg = engine_cfg();

        // Equivalence gate before timing anything.
        let sparse = run_engine(&r_sparse, &data, &GraphRegularizer::None, g0.clone(), &cfg)
            .expect("sparse engine");
        let dense =
            run_engine_dense_reference(&r_dense, &data, &GraphRegularizer::None, g0.clone(), &cfg)
                .expect("dense engine");
        for (a, b) in sparse.objective_trace.iter().zip(&dense.objective_trace) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "engines diverged at density {density}: {a} vs {b}"
            );
        }
        for ty in 0..3 {
            assert_eq!(
                data.labels_from_membership(&sparse.g, ty),
                data.labels_from_membership(&dense.g, ty),
                "labels diverged at density {density}"
            );
        }
        group.bench_function(format!("sparse_{tag}"), |bencher| {
            bencher.iter(|| {
                run_engine(
                    black_box(&r_sparse),
                    &data,
                    &GraphRegularizer::None,
                    g0.clone(),
                    &cfg,
                )
                .expect("sparse engine")
            });
        });
        group.bench_function(format!("dense_{tag}"), |bencher| {
            bencher.iter(|| {
                run_engine_dense_reference(
                    black_box(&r_dense),
                    &data,
                    &GraphRegularizer::None,
                    g0.clone(),
                    &cfg,
                )
                .expect("dense engine")
            });
        });
    }
    group.finish();
}

fn bench_narrow_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_narrow_large3_240");
    group.sample_size(20);
    let seed = 64;
    let params = mtrl_eval::runner::quick_params(seed);
    let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![80, 80, 80],
        seed,
        ..mtrl_eval::CorpusShape::Large3.config()
    });
    let arts = Artifacts::new(&corpus, &params).expect("artifacts");
    let (n, k) = arts.g0.shape();
    assert_eq!((n, k), (430, 22), "the ensemble_fit member shape");
    let (types, clusters) = (arts.data.spec(), arts.data.cluster_spec());
    let r_blocks = arts.r.split_blocks(types, types);
    let packed: Vec<Mat> = (0..types.num_blocks())
        .map(|t| {
            let data = types
                .range(t)
                .flat_map(|i| arts.g0.row(i)[clusters.range(t)].to_vec())
                .collect();
            Mat::from_vec(types.size(t), clusters.size(t), data).expect("block")
        })
        .collect();
    // Block (t, u) of R times G's packed block u, into type t's rows
    // and type u's cluster columns; R has no type-self blocks.
    let typed_rg = |r_blocks: &[Vec<mtrl_sparse::Csr>], packed: &[Mat], out: &mut Mat| {
        for (t, row_blocks) in r_blocks.iter().enumerate() {
            for (u, r_tu) in row_blocks.iter().enumerate() {
                if r_tu.nnz() > 0 {
                    r_tu.spmm_into(&packed[u], out, types.offset(t), clusters.offset(u));
                }
            }
        }
    };
    let mut out = Mat::zeros(n, k);
    assert_eq!(
        {
            typed_rg(&r_blocks, &packed, &mut out);
            out.as_slice().to_vec()
        },
        arts.r.spmm_dense(&arts.g0).as_slice(),
        "typed R·G equals the full-width SpMM"
    );
    group.bench_function("typed_spmm_rg", |bencher| {
        bencher.iter(|| typed_rg(black_box(&r_blocks), &packed, &mut out));
    });
    // Eight ensemble members' R·G as one product: members of the default
    // plan's kind (odd members re-specced to more document clusters),
    // each type's G blocks stacked side by side and every nonempty block
    // of R read in place once per 32-lane panel for all eight, packing
    // included (the engine packs on every refresh).
    let members: Vec<(MultiTypeData, Mat)> = [3usize, 4, 3, 6, 3, 5, 3, 4]
        .iter()
        .enumerate()
        .map(|(m, &doc_k)| {
            let mut counts = arts.data.cluster_counts().to_vec();
            counts[0] = doc_k;
            let data = arts.data.with_cluster_counts(counts).expect("layout");
            let g = rhchme::rhchme::init_membership(&data, &arts.features, 100 + m as u64);
            (data, g)
        })
        .collect();
    let mut stacks: Vec<LaneStack> = (0..types.num_blocks())
        .map(|t| {
            let widths: Vec<usize> = members.iter().map(|(d, _)| d.cluster_counts()[t]).collect();
            LaneStack::new(types.size(t), &widths)
        })
        .collect();
    let mut outs: Vec<Mat> = members
        .iter()
        .map(|(d, _)| Mat::zeros(n, d.total_clusters()))
        .collect();
    let r_views: Vec<Vec<mtrl_sparse::CsrBlock>> = (0..types.num_blocks())
        .map(|t| {
            (0..types.num_blocks())
                .map(|u| arts.r.block(types.range(t), types.range(u)))
                .collect()
        })
        .collect();
    let stacked_rg = |stacks: &mut [LaneStack], outs: &mut [Mat]| {
        for (u, stack) in stacks.iter_mut().enumerate() {
            for (m, (data, g)) in members.iter().enumerate() {
                stack.set(m, g, types.range(u), data.cluster_spec().range(u));
            }
        }
        for (t, row_blocks) in r_blocks.iter().enumerate() {
            for (u, stack) in stacks.iter().enumerate() {
                if row_blocks[u].nnz() > 0 {
                    let mut windows: Vec<(&mut Mat, usize)> = outs
                        .iter_mut()
                        .zip(&members)
                        .map(|(out, (data, _))| (out, data.cluster_spec().offset(u)))
                        .collect();
                    r_views[t][u].spmm_stacked(stack, &mut windows);
                }
            }
        }
    };
    stacked_rg(&mut stacks, &mut outs);
    for ((_, g), out) in members.iter().zip(&outs) {
        assert_eq!(
            out.as_slice(),
            arts.r.spmm_dense(g).as_slice(),
            "stacked R·G equals each member's full-width SpMM"
        );
    }
    group.bench_function("typed_spmm_rg_x8", |bencher| {
        bencher.iter(|| stacked_rg(black_box(&mut stacks), &mut outs));
    });
    let s = mtrl_linalg::random::rand_uniform(k, k, -1.0, 1.0, 65);
    group.bench_function("matmul_block_own_430x22", |bencher| {
        bencher.iter(|| {
            for t in 0..types.num_blocks() {
                let own = clusters.range(t);
                mtrl_linalg::ops::matmul_block(
                    black_box(&arts.g0),
                    &s,
                    types.range(t),
                    own.clone(),
                    own,
                    &mut out,
                );
            }
        });
    });
    let reg = GraphRegularizer::Ensemble {
        candidates: rmc_candidates(
            &arts.features,
            mtrl_graph::LaplacianKind::SymNormalized,
            None,
        )
        .expect("candidates"),
        mu: rhchme::pipeline::RMC_MU,
    };
    let cfg = EngineConfig {
        lambda: params.lambda,
        use_error_matrix: false,
        l1_row_normalize: false,
        max_iter: params.max_iter,
        tol: params.tol,
        ..EngineConfig::default()
    };
    group.bench_function("rmc_fit", |bencher| {
        bencher.iter(|| {
            run_engine(black_box(&arts.r), &arts.data, &reg, arts.g0.clone(), &cfg)
                .expect("rmc engine")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine_step, bench_narrow_shapes);
criterion_main!(benches);
