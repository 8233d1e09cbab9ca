//! Property-based tests on cross-crate invariants.
//!
//! These complement the per-crate unit tests by fuzzing over generator
//! configurations and random matrices, checking the structural invariants
//! the algorithms rely on.

use mtrl_graph::{knn_indices, pnn_graph, GraphBackend, WeightScheme};
use mtrl_linalg::ops::{matmul, matmul_nt, matmul_tn};
use mtrl_linalg::random::rand_uniform;
use mtrl_linalg::Mat;
use proptest::prelude::*;

/// `f` with the kernel pool at `threads` workers, restoring the previous
/// count. Other tests in this binary may move the count concurrently;
/// every kernel promises thread-count-invariant bytes, so they cannot
/// observe it.
fn on_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let before = mtrl_linalg::par::num_threads();
    mtrl_linalg::par::set_num_threads(threads);
    let out = f();
    mtrl_linalg::par::set_num_threads(before);
    out
}

/// The exact search through the public entry.
fn exact_knn(data: &Mat, p: usize) -> Vec<Vec<usize>> {
    knn_indices(data, p, &GraphBackend::Exact)
}

fn arb_mat(max_dim: usize) -> impl Strategy<Value = Mat> {
    (1..max_dim, 1..max_dim, any::<u64>())
        .prop_map(|(r, c, seed)| rand_uniform(r, c, -2.0, 2.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associates_with_transpose(seed in any::<u64>(), m in 1usize..12, k in 1usize..12, n in 1usize..12) {
        let a = rand_uniform(m, k, -1.0, 1.0, seed);
        let b = rand_uniform(k, n, -1.0, 1.0, seed ^ 1);
        let ab = matmul(&a, &b).unwrap();
        // (AB)ᵀ == Bᵀ Aᵀ
        let bt_at = matmul(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(ab.transpose().approx_eq(&bt_at, 1e-10));
    }

    #[test]
    fn tn_nt_consistent_with_plain(seed in any::<u64>(), m in 1usize..10, k in 1usize..10, n in 1usize..10) {
        let a = rand_uniform(k, m, -1.0, 1.0, seed);
        let b = rand_uniform(k, n, -1.0, 1.0, seed ^ 2);
        let tn = matmul_tn(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        prop_assert!(tn.approx_eq(&explicit, 1e-10));

        let c = rand_uniform(m, k, -1.0, 1.0, seed ^ 3);
        let d = rand_uniform(n, k, -1.0, 1.0, seed ^ 4);
        let nt = matmul_nt(&c, &d).unwrap();
        let explicit2 = matmul(&c, &d.transpose()).unwrap();
        prop_assert!(nt.approx_eq(&explicit2, 1e-10));
    }

    #[test]
    fn l21_norm_triangle_inequality(a in arb_mat(10), seed in any::<u64>()) {
        let b = rand_uniform(a.rows(), a.cols(), -2.0, 2.0, seed);
        let sum = a.add(&b).unwrap();
        let lhs = mtrl_linalg::norms::l21(&sum);
        let rhs = mtrl_linalg::norms::l21(&a) + mtrl_linalg::norms::l21(&b);
        prop_assert!(lhs <= rhs + 1e-9);
    }

    #[test]
    fn simplex_projection_is_feasible_and_idempotent(v in proptest::collection::vec(-10.0f64..10.0, 1..20)) {
        let p = mtrl_linalg::simplex::project_simplex(&v, 1.0);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-8);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        let pp = mtrl_linalg::simplex::project_simplex(&p, 1.0);
        for (x, y) in p.iter().zip(&pp) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn csr_roundtrip_preserves_matrix(r in 1usize..15, c in 1usize..15, seed in any::<u64>()) {
        let dense = rand_uniform(r, c, -1.0, 1.0, seed);
        let sparse = mtrl_sparse::Csr::from_dense(&dense, 0.0);
        prop_assert!(sparse.to_dense().approx_eq(&dense, 0.0));
        prop_assert!(sparse.transpose().to_dense().approx_eq(&dense.transpose(), 0.0));
    }

    #[test]
    fn pnn_graph_always_symmetric(n in 4usize..25, p in 1usize..6, seed in any::<u64>()) {
        let data = rand_uniform(n, 3, -1.0, 1.0, seed);
        let w = pnn_graph(&data, p, WeightScheme::Binary, &GraphBackend::Exact);
        prop_assert!(w.is_symmetric(1e-12));
        // Degree bound: each vertex has between p and 2p..n-1 neighbours.
        for i in 0..n {
            let deg = w.row(i).0.len();
            prop_assert!(deg >= p.min(n - 1));
        }
    }

    // The cross-thread properties through the public entries: inputs
    // sit above the search's work threshold (n² d ≥ 2²⁰), so the pool's
    // thread count is the search's. The same properties on small inputs
    // and forced thread counts run in `mtrl-graph` against the private
    // bodies that take a worker count.
    #[test]
    fn parallel_knn_bit_identical_to_serial(
        n in 256usize..300,
        d in 16usize..20,
        p in 0usize..8,
        threads in 2usize..9,
        seed in any::<u64>()
    ) {
        let data = rand_uniform(n, d, -2.0, 2.0, seed);
        let serial = on_pool(1, || exact_knn(&data, p));
        let par = on_pool(threads, || exact_knn(&data, p));
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn parallel_pnn_graph_bit_identical_to_serial(
        n in 256usize..300,
        d in 16usize..20,
        p in 1usize..7,
        threads in 2usize..9,
        seed in any::<u64>()
    ) {
        let data = rand_uniform(n, d, 0.0, 1.0, seed);
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            let graph = || pnn_graph(&data, p, scheme, &GraphBackend::Exact);
            let serial = on_pool(1, graph);
            let par = on_pool(threads, graph);
            prop_assert_eq!(par, serial);
        }
    }

    #[test]
    fn knn_duplicate_rows_stay_bit_identical(
        unique in 128usize..160,
        copies in 2usize..5,
        d in 16usize..20,
        threads in 2usize..9,
        seed in any::<u64>()
    ) {
        // Duplicated points produce exact distance ties — the adversarial
        // case for selection order. Every path must agree bit for bit.
        let base = rand_uniform(unique, d, -1.0, 1.0, seed);
        let rows: Vec<Vec<f64>> = (0..unique * copies)
            .map(|i| base.row(i % unique).to_vec())
            .collect();
        let data = Mat::from_rows(&rows).unwrap();
        let p = 4;
        let serial = on_pool(1, || exact_knn(&data, p));
        let par = on_pool(threads, || exact_knn(&data, p));
        prop_assert_eq!(&par, &serial);
        // Sanity: a duplicate's nearest neighbours are its own copies.
        for (i, neigh) in serial.iter().enumerate() {
            let twin = neigh.iter().any(|&j| data.row(j) == data.row(i));
            prop_assert!(twin, "row {i} missed its duplicates: {neigh:?}");
        }
    }

    #[test]
    fn laplacian_csr_matches_dense_reference(
        n in 2usize..25,
        p in 1usize..5,
        seed in any::<u64>()
    ) {
        use mtrl_graph::LaplacianKind;
        let data = rand_uniform(n, 4, 0.0, 1.0, seed);
        let w = pnn_graph(&data, p, WeightScheme::Cosine, &GraphBackend::Exact);
        let degrees = w.row_sums();
        for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
            // Independent dense construction (the seed repository's).
            let mut reference = Mat::zeros(n, n);
            match kind {
                LaplacianKind::Unnormalized => {
                    for (i, j, v) in w.iter() {
                        reference[(i, j)] -= v;
                    }
                    for i in 0..n {
                        reference[(i, i)] += degrees[i];
                    }
                }
                LaplacianKind::SymNormalized => {
                    let inv: Vec<f64> = degrees
                        .iter()
                        .map(|&x| if x > 1e-300 { 1.0 / x.sqrt() } else { 0.0 })
                        .collect();
                    for (i, j, v) in w.iter() {
                        reference[(i, j)] -= v * inv[i] * inv[j];
                    }
                    for i in 0..n {
                        if degrees[i] > 1e-300 {
                            reference[(i, i)] += 1.0;
                        }
                    }
                }
            }
            let sparse = mtrl_graph::laplacian_csr(&w, kind);
            prop_assert_eq!(
                sparse.to_dense().as_slice(),
                reference.as_slice(),
                "{:?}",
                kind
            );
        }
    }

    #[test]
    fn metrics_bounded_on_random_labelings(
        n in 2usize..40,
        k1 in 1usize..6,
        k2 in 1usize..6,
        seed in any::<u64>()
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let truth: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k1)).collect();
        let pred: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k2)).collect();
        let f = mtrl_metrics::fscore(&truth, &pred);
        let m = mtrl_metrics::nmi(&truth, &pred);
        let p = mtrl_metrics::purity(&truth, &pred);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!((0.0..=1.0).contains(&m));
        prop_assert!((0.0..=1.0).contains(&p));
        // Self-agreement is perfect.
        prop_assert!((mtrl_metrics::fscore(&truth, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn corpus_generator_invariants(
        classes in 2usize..5,
        per in 3usize..8,
        seed in any::<u64>()
    ) {
        let cfg = mtrl_datagen::CorpusConfig {
            docs_per_class: vec![per; classes],
            vocab_size: 30 * classes,
            concept_count: 5 * classes,
            doc_len_range: (15, 30),
            background_frac: 0.3,
            topic_noise: 0.3,
            concept_map_noise: 0.2,
            corrupt_frac: 0.1,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed,
        };
        let c = mtrl_datagen::corpus::generate(&cfg);
        prop_assert_eq!(c.num_docs(), classes * per);
        prop_assert_eq!(c.labels.len(), c.num_docs());
        prop_assert!(c.labels.iter().all(|&l| l < classes));
        // All matrices nonnegative.
        for m in [&c.doc_term, &c.doc_concept, &c.term_concept] {
            for (_, _, v) in m.iter() {
                prop_assert!(v >= 0.0);
            }
        }
        // Corrupted docs are a subset of documents.
        prop_assert!(c.corrupted_docs.iter().all(|&d| d < c.num_docs()));
    }
}

// ---------------------------------------------------------------------
// Consensus-ensemble invariants: the sparse co-association structure is
// a pure function of the partition *multiset* — bit-identical across
// worker-thread counts (rows are built with the order-splicing
// `par_chunks_map`) and across the order partitions were batched into
// the builder.

fn random_partitions(n: usize, m: usize, seed: u64) -> Vec<Vec<usize>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let k = rng.gen_range(1..5usize);
            (0..n).map(|_| rng.gen_range(0..k)).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coassoc_bit_identical_across_thread_counts(
        n in 2usize..48,
        m in 1usize..6,
        p in 1usize..8,
        seed in any::<u64>()
    ) {
        let partitions = random_partitions(n, m, seed);
        let mut builder = mtrl_ensemble::CoAssocBuilder::new(n);
        for labels in &partitions {
            builder.add_partition(labels);
        }
        // The global thread count is mutated here, but every kernel in
        // the workspace promises thread-count-invariant bytes, so tests
        // running concurrently in this binary cannot observe it.
        let orig = mtrl_linalg::par::num_threads();
        mtrl_linalg::par::set_num_threads(1);
        let serial = builder.build(p);
        for threads in 2..=4usize {
            mtrl_linalg::par::set_num_threads(threads);
            let par = builder.build(p);
            mtrl_linalg::par::set_num_threads(orig);
            prop_assert_eq!(&par, &serial, "thread count {}", threads);
        }
        mtrl_linalg::par::set_num_threads(orig);
    }

    #[test]
    fn coassoc_invariant_to_partition_batching(
        n in 2usize..48,
        m in 2usize..6,
        p in 1usize..8,
        seed in any::<u64>()
    ) {
        use rand::{Rng, SeedableRng};
        let partitions = random_partitions(n, m, seed);
        let mut forward = mtrl_ensemble::CoAssocBuilder::new(n);
        for labels in &partitions {
            forward.add_partition(labels);
        }
        // Fisher–Yates over the batching order.
        let mut order: Vec<usize> = (0..m).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBA7C);
        for i in (1..m).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut shuffled = mtrl_ensemble::CoAssocBuilder::new(n);
        for &i in &order {
            shuffled.add_partition(&partitions[i]);
        }
        prop_assert_eq!(forward.build(p), shuffled.build(p));
    }
}
