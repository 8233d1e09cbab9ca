//! Consensus-ensemble demo: robustness where single methods wobble.
//!
//! ```sh
//! cargo run --release --example ensemble_demo
//! ```
//!
//! Runs every single-method flavour and the consensus ensemble on a
//! noisy [`CorpusShape::Skewed5`] corpus (the `feature_noise` corruption
//! the gated `QUALITY_quick.json` matrix uses) through the redesigned
//! [`MethodSpec`] dispatch — every fit below goes through the same
//! [`mtrl_ensemble::run_spec`] entry point, base and ensemble alike.
//! The ensemble generates diverse base partitions (seed / random-k /
//! method perturbation over shared artifacts), accumulates them into a
//! sparse co-association structure, and merges with the anchor-selected
//! probability-trajectory walk; the demo asserts what the quality gate
//! pins — the consensus F never falls below the best single method.

use rhchme_repro::core::pipeline::MethodSpec;
use rhchme_repro::metrics::quality_scores;
use rhchme_repro::prelude::*;

fn main() {
    let params = quick_params(77);
    let corpus = CorruptionSpec::feature_noise(0.2).corpus(&CorpusShape::Skewed5.config(), 77);
    println!(
        "noisy Skewed5: {} docs, 20% feature noise\n",
        corpus.num_docs()
    );
    println!(
        "{:<10} {:>8} {:>8} {:>10}  notes",
        "method", "F", "NMI", "members"
    );

    let mut best_single = (0.0f64, "");
    for method in [Method::Src, Method::Snmtf, Method::Rmc, Method::Rhchme] {
        let spec = MethodSpec::from(method);
        let out = mtrl_ensemble::run_spec(&corpus, &spec, &params).expect("base fit");
        let q = quality_scores(&corpus.labels, &out.doc_labels);
        if q.fscore > best_single.0 {
            best_single = (q.fscore, method.key());
        }
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>10}",
            method.key(),
            q.fscore,
            q.nmi,
            "-"
        );
    }

    let spec = MethodSpec::ensemble();
    let out = mtrl_ensemble::run_spec(&corpus, &spec, &params).expect("ensemble fit");
    let q = quality_scores(&corpus.labels, &out.doc_labels);
    println!(
        "{:<10} {:>8.3} {:>8.3} {:>10}  consensus of seed/random-k/method perturbations",
        spec.key(),
        q.fscore,
        q.nmi,
        out.iterations
    );
    println!(
        "\nbest single method: {} (F = {:.3}); ensemble lift: {:+.3}",
        best_single.1,
        best_single.0,
        q.fscore - best_single.0
    );
    assert!(
        q.fscore >= best_single.0,
        "ensemble F {:.3} fell below the best single method {} ({:.3})",
        q.fscore,
        best_single.1,
        best_single.0
    );
}
