//! End-to-end serving demo: fit once, persist, serve held-out documents.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```
//!
//! 1. generate a Multi5-like (D1) corpus and split it: a Tiny-sized
//!    training side (8 docs/class, exactly the `Scale::Tiny` D1 profile)
//!    and 110 held-out documents the model never sees;
//! 2. fit RHCHME on the training side and export the `FittedModel`;
//! 3. save the bundle to a file, then load it into a *fresh* `ServeEngine`
//!    (4 workers) — nothing of the fit survives but the file;
//! 4. fold the held-out documents in concurrently, in batches;
//! 5. compare fold-in quality against the gold standard: a full refit on
//!    the complete corpus, scored on the same held-out documents. The
//!    demo asserts the fold-in F-score lands within 10 points of the
//!    refit F-score — the serving path must not give away the model's
//!    accuracy.

use rhchme_repro::prelude::*;
use rhchme_repro::serve::persist;

fn main() {
    // The D1 Tiny preset, widened to 30 docs/class so that holding out
    // 110 documents still leaves the Tiny-sized 8 docs/class for training.
    let mut config = mtrl_datagen::datasets::config(DatasetId::D1, Scale::Tiny);
    config.docs_per_class = vec![30; 5];
    let full = mtrl_datagen::corpus::generate(&config);
    let heldout_frac = 22.0 / 30.0; // keep 8/class for training
    let (train, heldout) = split_corpus(&full, heldout_frac, 2015);
    println!(
        "corpus: {} docs -> train {} / held-out {}",
        full.num_docs(),
        train.num_docs(),
        heldout.len()
    );
    assert!(heldout.len() >= 100, "demo needs >= 100 held-out docs");

    // Fit on the training side only.
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(&train).expect("training fit");
    let train_f = fscore(&train.labels, &result.doc_labels);
    println!(
        "train fit: {} iterations, FScore {:.3}",
        result.iterations, train_f
    );

    // Persist, then reload into a fresh engine.
    let model = rhchme.export_model(&result, &train).expect("export");
    let path = std::env::temp_dir().join("serve_demo_model.mtrl");
    persist::save(&model, &path).expect("save bundle");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved bundle: {} ({bytes} bytes, schema v{})",
        path.display(),
        model.schema_version
    );
    let loaded = persist::load(&path).expect("load bundle");
    std::fs::remove_file(&path).ok();

    let engine = ServeEngine::new(4);
    engine.register("d1", loaded).expect("register model");

    // Serve the held-out documents concurrently, in batches of 16.
    let docs: Vec<SparseVec> = heldout
        .iter()
        .map(|d| SparseVec::new(d.indices.clone(), d.values.clone()).expect("held-out doc"))
        .collect();
    let pending: Vec<_> = docs
        .chunks(16)
        .map(|chunk| engine.submit(AssignRequest::new("d1").docs(chunk.to_vec())))
        .collect();
    let mut foldin_labels = Vec::with_capacity(docs.len());
    for p in pending {
        let response = p.wait().expect("assignment");
        foldin_labels.extend(response.labels);
    }
    let stats = engine.stats();
    println!(
        "served {} docs in {} requests: latency p50 {:?} / p99 {:?} / max {:?}, \
         {:.0} docs/s of worker time",
        stats.documents,
        stats.requests,
        stats.quantile(0.5),
        stats.quantile(0.99),
        stats.max_latency(),
        stats.throughput()
    );

    // Gold standard: refit on the *complete* corpus and score the same
    // held-out documents.
    let refit = rhchme.fit_corpus(&full).expect("full refit");
    let truth: Vec<usize> = heldout.iter().map(|d| d.label).collect();
    let refit_labels: Vec<usize> = heldout
        .iter()
        .map(|d| refit.doc_labels[d.original_index])
        .collect();
    let f_foldin = fscore(&truth, &foldin_labels);
    let f_refit = fscore(&truth, &refit_labels);
    println!(
        "held-out FScore: fold-in {f_foldin:.3} vs full refit {f_refit:.3} \
         (NMI {:.3} vs {:.3})",
        nmi(&truth, &foldin_labels),
        nmi(&truth, &refit_labels)
    );
    assert!(
        f_foldin >= f_refit - 0.10,
        "fold-in ({f_foldin:.3}) trails the full refit ({f_refit:.3}) by more \
         than 10 F-score points"
    );
    println!("fold-in is within 10 F-score points of the full refit — OK");
}
