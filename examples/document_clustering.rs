//! The paper's motivating scenario: cluster documents enriched with
//! semantic concepts, comparing all seven methods of Sec. IV-B.
//!
//! ```sh
//! cargo run --release --example document_clustering
//! ```
//!
//! Expected shape (paper Tables III/IV): the two-way DRCC variants trail
//! the HOCC methods; among HOCC, SRC (no intra-type information) is
//! weakest and RHCHME strongest.

use rhchme_repro::prelude::*;

fn main() {
    let corpus = load(DatasetId::D2, Scale::Tiny);
    println!(
        "Multi10-like corpus: {} docs / {} terms / {} concepts, {} classes\n",
        corpus.num_docs(),
        corpus.num_terms(),
        corpus.num_concepts(),
        corpus.num_classes
    );

    let params = RhchmeConfig {
        lambda: 1.0,
        max_iter: 60,
        spg_max_iter: 40,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };

    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>10}",
        "method", "FScore", "NMI", "purity", "time"
    );
    let mut rows = Vec::new();
    for method in Method::all() {
        let out = run_spec(&corpus, &method.into(), &params).expect("method run");
        let f = fscore(&corpus.labels, &out.doc_labels);
        let n = nmi(&corpus.labels, &out.doc_labels);
        let p = purity(&corpus.labels, &out.doc_labels);
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>8.3} {:>9.2?}",
            method.paper_name(),
            f,
            n,
            p,
            out.elapsed
        );
        rows.push((method, f));
    }

    // The headline comparison of the paper.
    let get = |m: Method| rows.iter().find(|(mm, _)| *mm == m).unwrap().1;
    println!(
        "\nRHCHME vs SRC FScore gap: {:+.3} (paper reports RHCHME ahead on every dataset)",
        get(Method::Rhchme) - get(Method::Src)
    );
}
