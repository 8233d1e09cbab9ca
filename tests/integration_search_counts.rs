//! Every fit searches each object type's neighbours at most once.
//!
//! A fit's exact neighbour search is the `graph.knn_search` span, one
//! per type searched. SRC builds no graph; RHCHME, SNMTF, RMC and DRCC
//! search each of their types once, whatever graphs they build from the
//! lists; a consensus ensemble searches each type once for all its
//! members. (The rp-forest backend's search of RHCHME's `L_E` counts
//! too.) Obs state is process-global, so this binary holds one test.

use rhchme::pipeline::EnsembleSpec;
use rhchme_repro::graph::{GraphBackend, RpForestParams};
use rhchme_repro::prelude::*;

fn corpus() -> MultiTypeCorpus {
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![10, 10, 10],
        vocab_size: 60,
        concept_count: 15,
        doc_len_range: (25, 40),
        background_frac: 0.25,
        topic_noise: 0.2,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 77 + mtrl_datagen::seed_from_env(0),
    })
}

/// The exact searches `fit` runs: closed `graph.knn_search` spans.
fn searches(fit: impl FnOnce()) -> u64 {
    let reg = mtrl_obs::global();
    reg.reset();
    fit();
    reg.spans_snapshot()
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("graph.knn_search"))
        .map(|(_, stats)| stats.count)
        .sum()
}

#[test]
fn each_fit_searches_each_type_once() {
    let corpus = corpus();
    let cfg = RhchmeConfig {
        max_iter: 5,
        spg_max_iter: 5,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    mtrl_obs::force_enable();
    for method in Method::all() {
        let types = if method.is_hocc() { 3 } else { 2 };
        let want = if method == Method::Src { 0 } else { types };
        let got = searches(|| {
            run_spec(&corpus, &method.into(), &cfg).unwrap();
        });
        assert_eq!(got, want, "{method:?}");
    }
    let got = searches(|| {
        mtrl_ensemble::fit_corpus(&corpus, &EnsembleSpec::default(), &cfg).unwrap();
    });
    assert_eq!(got, 3, "the default ensemble");

    // On the rp-forest backend RHCHME's `L_E` comes from the forest's
    // search alone, and an ensemble adds one exact search per type for
    // its baselines' graphs.
    let forest = RhchmeConfig {
        graph_backend: GraphBackend::RpForest(RpForestParams::default()),
        ..cfg
    };
    let got = searches(|| {
        run_spec(&corpus, &Method::Rhchme.into(), &forest).unwrap();
    });
    assert_eq!(got, 3, "RHCHME on the rp-forest backend");
    let got = searches(|| {
        mtrl_ensemble::fit_corpus(&corpus, &EnsembleSpec::default(), &forest).unwrap();
    });
    assert_eq!(got, 6, "the default ensemble on the rp-forest backend");
    mtrl_obs::force_disable();
}
