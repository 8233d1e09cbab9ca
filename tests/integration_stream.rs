//! Cross-crate invariants of the streaming subsystem.
//!
//! The load-bearing property: a [`DynamicGraph`] grown by inserting a
//! corpus in arbitrary batch sizes must carry the same edges as the
//! batch [`pnn_graph`] on the final corpus (and be *identical* to it
//! after a forced rebuild, which re-centres on the full corpus exactly
//! like the batch kernel does) — for every thread count.

use mtrl_linalg::random::rand_uniform;
use mtrl_stream::{DynamicGraph, DynamicGraphConfig, RefreshPolicy, StreamSession};
use proptest::prelude::*;
use rhchme_repro::graph::{pnn_graph, GraphBackend, WeightScheme};
use rhchme_repro::prelude::*;

fn dyn_cfg(p: usize) -> DynamicGraphConfig {
    DynamicGraphConfig {
        p,
        scheme: WeightScheme::Cosine,
        rebuild_threshold: 1.0, // exercise the incremental path, not the fallback
    }
}

/// Deterministic batch split of `n` rows driven by `seed`: first batch
/// at least 2 rows, then batches of 1..=max_step.
fn random_split(n: usize, seed: u64) -> Vec<usize> {
    let mut splits = Vec::new();
    let mut state = seed | 1;
    let mut next = |hi: usize| {
        // xorshift64* — only used to vary split shapes.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize % hi) + 1
    };
    let first = 2 + next(n.saturating_sub(2).max(1)).min(n - 2);
    splits.push(first.min(n));
    let mut at = splits[0];
    while at < n {
        let step = next(7).min(n - at);
        splits.push(step);
        at += step;
    }
    splits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn dynamic_graph_any_batching_matches_batch_pnn(
        n in 12usize..70,
        d in 2usize..8,
        p in 2usize..6,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let data = rand_uniform(n, d, -1.0, 1.0, seed);
        let splits = random_split(n, seed ^ 0xABCD);
        let before = mtrl_linalg::par::num_threads();
        mtrl_linalg::par::set_num_threads(threads);
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, splits[0], d), dyn_cfg(p));
        let mut at = splits[0];
        for &s in &splits[1..] {
            g.insert_batch(&data.submatrix(at, 0, s, d));
            at += s;
        }
        prop_assert_eq!(at, n);
        let reference = pnn_graph(&data, p, WeightScheme::Cosine, &GraphBackend::Exact);
        // Incremental path: same edges and weights as the batch build.
        let incremental = g.graph();
        // After a forced rebuild the centring equals the batch kernel's
        // (full-corpus column means), so the graph must stay the same.
        g.rebuild();
        let rebuilt = g.graph();
        mtrl_linalg::par::set_num_threads(before);
        prop_assert_eq!(&incremental, &reference);
        prop_assert_eq!(&rebuilt, &reference);
    }

    #[test]
    fn dynamic_graph_batching_is_irrelevant(
        n in 10usize..50,
        d in 2usize..6,
        p in 2usize..5,
        seed in any::<u64>(),
    ) {
        // Two different batchings with the same first batch produce
        // bit-identical graphs (every pair distance is a pure function
        // of the rows once the centring is fixed).
        let data = rand_uniform(n, d, -1.0, 1.0, seed);
        let first = 2 + (n / 3);
        let build = |step: usize| {
            let mut g = DynamicGraph::new(&data.submatrix(0, 0, first, d), dyn_cfg(p));
            let mut at = first;
            while at < n {
                let s = step.min(n - at);
                g.insert_batch(&data.submatrix(at, 0, s, d));
                at += s;
            }
            g.graph()
        };
        prop_assert_eq!(build(1), build(5));
    }
}

/// Above the parallel work threshold, the incremental path must stay
/// bit-identical across thread counts (the small proptest cases run
/// serially under the auto-threshold).
#[test]
fn dynamic_graph_parallel_kernel_bit_identical() {
    let n = 360;
    let d = 12;
    let data = rand_uniform(n, d, -1.0, 1.0, 1234);
    let before = mtrl_linalg::par::num_threads();
    let build = |threads: usize| {
        mtrl_linalg::par::set_num_threads(threads);
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, 300, d), dyn_cfg(5));
        g.insert_batch(&data.submatrix(300, 0, 60, d));
        g.graph()
    };
    let serial = build(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(build(threads), serial, "threads={threads}");
    }
    mtrl_linalg::par::set_num_threads(before);
    assert_eq!(
        serial,
        pnn_graph(&data, 5, WeightScheme::Cosine, &GraphBackend::Exact)
    );
}

/// End-to-end: a session that streams batches, warm-refits on cadence
/// and serves through an engine produces a model covering the grown
/// corpus, and fold-in quality on stationary data stays reasonable.
#[test]
fn stream_session_end_to_end_with_engine() {
    let seed = mtrl_datagen::seed_from_env(2015);
    let (initial, batches) = generate_stream(&StreamConfig {
        base: CorpusConfig {
            docs_per_class: vec![12, 12, 12],
            vocab_size: 90,
            concept_count: 30,
            doc_len_range: (30, 50),
            background_frac: 0.3,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed,
        },
        batches: 4,
        docs_per_batch: 9,
        drift_after: None,
        drift_shift: 0.0,
    });
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let mut session = StreamSession::new(
        initial,
        rhchme,
        RefreshPolicy {
            every_batches: Some(2),
            min_confidence: None,
            drift_cooldown: 0,
            warm_iters: 10,
            refresh_subspace: false,
            reseed_confidence: None,
        },
    )
    .unwrap();
    let engine = std::sync::Arc::new(ServeEngine::new(2));
    session
        .attach_engine(std::sync::Arc::clone(&engine), "live")
        .unwrap();

    let mut refits = 0;
    let mut f_sum = 0.0;
    for batch in &batches {
        let report = session.push_batch(batch).unwrap();
        f_sum += fscore(&batch.labels, &report.labels);
        if report.refit.is_some() {
            refits += 1;
        }
    }
    assert_eq!(refits, 2, "cadence 2 over 4 batches");
    assert_eq!(session.corpus().num_docs(), 36 + 36);
    assert_eq!(session.model().sizes[0], 72);
    // Stationary stream: fold-in stays well above chance (3 classes).
    assert!(f_sum / 4.0 > 0.55, "mean fold-in F {}", f_sum / 4.0);
    // The hot-swapped model answers through the engine.
    let response = engine
        .assign("live", 0, vec![SparseVec::from_dense(&[0.1; 120])])
        .unwrap();
    assert_eq!(response.posteriors.len(), 1);
}
