//! ANN-vs-exact quality: the approximate graph layer must not move the
//! clustering quality the matrix gates.
//!
//! The recall gate (`recall_gate`) pins the *graph* level; these tests
//! pin the *quality* level — a cold RHCHME fit whose pNN graphs come
//! from the RP-forest index must land within 2 F/NMI points of the
//! exact-kernel reference on the same corpus, the acceptance bound the
//! large-shape scenarios extrapolate from.

use mtrl_datagen::{CorpusConfig, CorruptionSpec};
use mtrl_eval::{quick_params, CorpusShape};
use mtrl_graph::{GraphBackend, RpForestParams};
use mtrl_metrics::quality_scores;
use rhchme::pipeline::{run_spec, Method};

fn quality_delta(config: &CorpusConfig, seed: u64) -> (f64, f64) {
    let corpus = CorruptionSpec::clean().corpus(config, seed);
    let exact = run_spec(&corpus, &Method::Rhchme.into(), &quick_params(seed)).unwrap();
    let mut ann_params = quick_params(seed);
    ann_params.graph_backend = GraphBackend::RpForest(RpForestParams::default());
    let ann = run_spec(&corpus, &Method::Rhchme.into(), &ann_params).unwrap();
    let qe = quality_scores(&corpus.labels, &exact.doc_labels);
    let qa = quality_scores(&corpus.labels, &ann.doc_labels);
    ((qe.fscore - qa.fscore).abs(), (qe.nmi - qa.nmi).abs())
}

#[test]
fn ann_fit_matches_exact_fit_on_quick_shape() {
    let (df, dn) = quality_delta(&CorpusShape::Balanced3.config(), 11);
    assert!(df <= 0.02, "fscore delta {df}");
    assert!(dn <= 0.02, "nmi delta {dn}");
}

/// The extrapolation shape of the acceptance bound: ~n=5k objects
/// (1500 docs + vocab + concepts). Minutes of wall clock — run with
/// `cargo test -p mtrl-eval --release -- --ignored extrapolation`.
#[test]
#[ignore = "minutes-long extrapolation shape; run explicitly"]
fn ann_fit_matches_exact_fit_on_extrapolation_shape() {
    let config = CorpusConfig {
        docs_per_class: vec![500, 500, 500],
        vocab_size: 300,
        concept_count: 60,
        doc_len_range: (40, 70),
        background_frac: 0.25,
        topic_noise: 0.25,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 2,
        view_confusion: 0.25,
        seed: 0,
    };
    let (df, dn) = quality_delta(&config, 11);
    assert!(df <= 0.02, "fscore delta {df}");
    assert!(dn <= 0.02, "nmi delta {dn}");
}
