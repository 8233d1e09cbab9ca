//! One span tree for every graph build: with obs on, every backend
//! records `graph.pnn_build` over `graph.knn_search` and
//! `graph.weights`, plus `graph.index_build` when an index is built.
//!
//! A test binary of its own: it flips the process-global obs state and
//! reads the global registry, which no concurrently running test may
//! touch.

use mtrl_graph::{pnn_graph, GraphBackend, RpForestParams, WeightScheme};
use mtrl_linalg::random::rand_uniform;

/// The span paths one `pnn_graph` call records.
fn span_paths(backend: &GraphBackend) -> Vec<String> {
    let data = rand_uniform(120, 6, -1.0, 1.0, 7);
    let reg = mtrl_obs::global();
    reg.reset();
    pnn_graph(&data, 5, WeightScheme::Cosine, backend);
    reg.spans_snapshot()
        .into_iter()
        .map(|(path, _)| path)
        .collect()
}

#[test]
fn every_mode_records_the_same_stage_names() {
    mtrl_obs::force_enable();
    let exact = span_paths(&GraphBackend::Exact);
    let forest = span_paths(&GraphBackend::RpForest(RpForestParams::default()));
    mtrl_obs::force_disable();

    let mut expected = vec![
        "graph.pnn_build".to_string(),
        "graph.pnn_build/graph.knn_search".to_string(),
        "graph.pnn_build/graph.weights".to_string(),
    ];
    expected.sort();
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    assert_eq!(sorted(exact), expected);
    expected.push("graph.pnn_build/graph.index_build".to_string());
    expected.sort();
    assert_eq!(sorted(forest), expected);
}
