//! Robustness study: what the sparse error matrix `E_R` buys.
//!
//! ```sh
//! cargo run --release --example corrupted_data
//! ```
//!
//! A thin wrapper over the evaluation layer: the corpora come from a
//! shared shape preset ([`CorpusShape::Skewed5`], the shape the
//! parameter study sweeps) and the typed corruption knob
//! ([`CorruptionSpec::relation_corruption`]) the gated
//! `QUALITY_quick.json` matrix uses, and the parameters are
//! [`quick_params`] — so the numbers printed here live on the same
//! scale as the committed baseline. The example sweeps the corruption
//! level past the gated point (up to 30% of documents destroyed) and
//! compares RHCHME (with `E_R`) against the same pipeline with the
//! error matrix disabled (SNMTF-style squared loss). The paper's claim
//! (Sec. III-C): the squared loss "might fail to control the
//! decomposition quality" under corruption, while the L2,1 error matrix
//! absorbs it sample-wise. The example also shows that the rows of
//! `E_R` with the largest norms are overwhelmingly the truly corrupted
//! documents — the error matrix acts as a built-in corruption detector.

use rhchme_repro::core::engine::{run_engine, EngineConfig, GraphRegularizer};
use rhchme_repro::core::pipeline::Artifacts;
use rhchme_repro::prelude::*;

fn main() {
    let params = quick_params(77);
    println!(
        "{:<10} {:>12} {:>12} {:>20}",
        "corrupt%", "F (with E_R)", "F (no E_R)", "detect precision@k"
    );
    for level in [0.0, 0.05, 0.10, 0.20, 0.30] {
        let spec = if level == 0.0 {
            CorruptionSpec::clean()
        } else {
            CorruptionSpec::relation_corruption(level)
        };
        let corpus = spec.corpus(&CorpusShape::Skewed5.config(), params.seed);
        let arts = Artifacts::new(&corpus, &params).expect("artifacts");
        let l_sub = arts.subspace_laplacian(&params).expect("subspace");

        // With the error matrix (RHCHME proper).
        let with_er = arts.run_rhchme_engine(&l_sub, &params).expect("rhchme");
        let f_with = fscore(&corpus.labels, &with_er.doc_labels);

        // Same ensemble, error matrix off (squared-loss ablation).
        let l_e = arts.l_pnn.as_ref().expect("Artifacts::new builds L_E");
        let l = rhchme_repro::core::intra::hetero_laplacian(&l_sub, l_e, params.alpha)
            .expect("ensemble");
        let cfg = EngineConfig {
            lambda: params.lambda,
            use_error_matrix: false,
            l1_row_normalize: true,
            max_iter: params.max_iter,
            ..EngineConfig::default()
        };
        let no_er = run_engine(
            &arts.r,
            &arts.data,
            &GraphRegularizer::Fixed(l),
            arts.g0.clone(),
            &cfg,
        )
        .expect("ablation");
        let labels_no_er = arts.data.labels_from_membership(&no_er.g, 0);
        let f_without = fscore(&corpus.labels, &labels_no_er);

        // Corruption detection: take the k documents with the largest
        // E_R row norms; how many are truly corrupted?
        let k = corpus.corrupted_docs.len();
        let precision = if k == 0 {
            f64::NAN
        } else {
            let doc_norms = &with_er.error_row_norms[..corpus.num_docs()];
            let mut order: Vec<usize> = (0..doc_norms.len()).collect();
            order.sort_by(|&a, &b| doc_norms[b].partial_cmp(&doc_norms[a]).unwrap());
            let hits = order[..k]
                .iter()
                .filter(|d| corpus.corrupted_docs.contains(d))
                .count();
            hits as f64 / k as f64
        };

        println!(
            "{:<10.2} {:>12.3} {:>12.3} {:>20.3}",
            level * 100.0,
            f_with,
            f_without,
            precision
        );
    }
    println!("\n(with corruption, the E_R column should stay flat longer, and");
    println!(" detection precision should be well above the base corruption rate)");
}
