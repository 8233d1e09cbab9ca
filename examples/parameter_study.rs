//! Mini Fig. 2: parameter sensitivity with artifact caching.
//!
//! ```sh
//! cargo run --release --example parameter_study
//! ```
//!
//! Sweeps the ensemble trade-off α and the error-matrix weight β on a
//! small skewed corpus, reusing every sweep-invariant artifact (features,
//! pNN Laplacian, subspace Laplacian, k-means init, assembled R). This is
//! the same machinery the `fig2_parameters` bench uses at full scale.
//! The corpus comes from the evaluation layer's skewed shape preset
//! ([`CorpusShape::Skewed5`]) under a typed corruption knob
//! ([`CorruptionSpec::relation_corruption`]), and the sweep centre is
//! [`quick_params`] — the exact configuration the gated quality matrix
//! runs.

use rhchme_repro::core::pipeline::Artifacts;
use rhchme_repro::prelude::*;

fn main() {
    // An R-Min20Max200-like corpus (skewed classes), 8% of documents
    // destroyed.
    let corpus =
        CorruptionSpec::relation_corruption(0.08).corpus(&CorpusShape::Skewed5.config(), 99);
    let params = quick_params(99);

    let t0 = std::time::Instant::now();
    let arts = Artifacts::new(&corpus, &params).expect("artifacts");
    let l_sub = arts
        .subspace_laplacian(&params)
        .expect("subspace laplacian");
    println!("shared artifacts built in {:.2?}\n", t0.elapsed());

    println!("alpha sweep (Eq. 12 trade-off; paper: best near 1):");
    println!("{:>8} {:>8} {:>8}", "alpha", "FScore", "NMI");
    for alpha in [1.0 / 16.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0] {
        let res = arts
            .run_rhchme_engine(
                &l_sub,
                &RhchmeConfig {
                    alpha,
                    ..params.clone()
                },
            )
            .expect("engine");
        println!(
            "{:>8.3} {:>8.3} {:>8.3}",
            alpha,
            fscore(&corpus.labels, &res.doc_labels),
            nmi(&corpus.labels, &res.doc_labels)
        );
    }

    println!("\nbeta sweep (E_R weight; paper: stable plateau at moderate beta):");
    println!("{:>8} {:>8} {:>8}", "beta", "FScore", "NMI");
    for beta in [1.0, 10.0, 20.0, 50.0, 100.0, 1000.0] {
        let res = arts
            .run_rhchme_engine(
                &l_sub,
                &RhchmeConfig {
                    beta,
                    ..params.clone()
                },
            )
            .expect("engine");
        println!(
            "{:>8.1} {:>8.3} {:>8.3}",
            beta,
            fscore(&corpus.labels, &res.doc_labels),
            nmi(&corpus.labels, &res.doc_labels)
        );
    }
}
