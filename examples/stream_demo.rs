//! End-to-end streaming demo: concept drift, detection, warm recovery.
//!
//! ```sh
//! cargo run --release --example stream_demo
//! ```
//!
//! 1. generate a streaming corpus: an initial training side plus 6
//!    timestamped batches from the same latent topic model, whose class
//!    anchor windows **shift mid-stream** (batch 3 onwards) — every
//!    class mean moves halfway towards its neighbour's old position;
//! 2. stand up a [`StreamSession`] (cold fit on the initial corpus) and
//!    hot-serve every batch through a [`ServeEngine`];
//! 3. pre-drift batches fold in accurately and confidently; the first
//!    drifted batch craters fold-in confidence, tripping the session's
//!    **drift-triggered warm refit** (capped iterations, `G₀` seeded
//!    from the previous model, document Laplacian from the
//!    incrementally-maintained [`DynamicGraph`]);
//! 4. the refreshed model is hot-swapped into the engine and post-drift
//!    batches recover their fold-in F-measure;
//! 5. gold standard: a **cold refit** (fresh k-means init, full
//!    iteration budget) on the same accumulated corpus, scored on the
//!    same post-drift documents. The demo asserts the warm refresh
//!    lands within 2 F-measure points of the cold refit while running
//!    at most half its iterations.

use rhchme_repro::prelude::*;
use std::sync::Arc;

/// Fold a batch in against a model and return `(labels, mean max-posterior)`.
fn foldin(assigner: &Assigner, batch: &StreamBatch, num_terms: usize) -> (Vec<usize>, f64) {
    let docs: Vec<SparseVec> = (0..batch.len())
        .map(|i| {
            let (idx, vals) = batch.feature_row(i, num_terms);
            SparseVec::new(idx, vals).expect("batch doc")
        })
        .collect();
    let posteriors = assigner.assign_batch(0, &docs).expect("fold-in");
    let conf = posteriors
        .iter()
        .map(|p| p.iter().cloned().fold(0.0, f64::max))
        .sum::<f64>()
        / posteriors.len().max(1) as f64;
    (Assigner::labels(&posteriors), conf)
}

fn main() {
    // A 5-class corpus; batches 3+ are drawn with the anchor windows
    // rotated by 40% of a class block.
    let stream_cfg = StreamConfig {
        base: CorpusConfig {
            docs_per_class: vec![12; 5],
            vocab_size: 200,
            concept_count: 60,
            doc_len_range: (40, 70),
            background_frac: 0.25,
            topic_noise: 0.25,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 99,
        },
        batches: 6,
        docs_per_batch: 20,
        drift_after: Some(3),
        drift_shift: 0.4,
    };
    let (initial, batches) = generate_stream(&stream_cfg);
    // The reseed comparison at the end replays the same stream from the
    // same starting corpus.
    let initial_reseed = initial.clone();
    let num_terms = initial.num_terms();
    println!(
        "stream: {} training docs, {} batches x {} docs, drift from batch 3",
        initial.num_docs(),
        batches.len(),
        batches[0].len()
    );

    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let cold_budget = rhchme.config().max_iter;
    let mut session = StreamSession::new(
        initial,
        rhchme.clone(),
        RefreshPolicy {
            every_batches: None,
            // Stationary batches fold in with mean max-posterior ~0.41-0.42
            // on this corpus; the drifted distribution sags to ~0.27-0.32.
            // The floor sits between the two regimes.
            min_confidence: Some(0.38),
            drift_cooldown: 0,
            warm_iters: cold_budget / 2,
            refresh_subspace: true,
            reseed_confidence: None,
        },
    )
    .expect("initial fit");
    let engine = Arc::new(ServeEngine::new(4));
    session
        .attach_engine(Arc::clone(&engine), "live")
        .expect("register");
    println!(
        "initial fit: F {:.3} on the training corpus\n",
        fscore(&session.corpus().labels, &session.last_result().doc_labels)
    );

    // Stream. Each report's labels are the live serving answer computed
    // *before* any refit the batch triggers.
    let mut pre_drift_f = Vec::new();
    let mut first_drift: Option<(usize, f64, f64)> = None; // (batch, F before refit, confidence)
    let mut warm_iters_used = 0usize;
    for (b, batch) in batches.iter().enumerate() {
        let report = session.push_batch(batch).expect("push");
        let f = fscore(&batch.labels, &report.labels);
        let tag = match (&report.refit, batch.drifted) {
            (Some(r), _) => {
                warm_iters_used = r.iterations;
                format!(
                    "-> {:?} refit ({} warm iterations, corpus {} docs)",
                    r.trigger, r.iterations, r.corpus_docs
                )
            }
            (None, true) => "(drifted)".to_string(),
            (None, false) => String::new(),
        };
        println!(
            "batch {b}: fold-in F {f:.3}, confidence {:.3} {tag}",
            report.mean_confidence
        );
        if !batch.drifted {
            pre_drift_f.push(f);
        } else if first_drift.is_none() {
            assert!(
                report.refit.is_some(),
                "first drifted batch must trip the confidence trigger \
                 (confidence {:.3})",
                report.mean_confidence
            );
            first_drift = Some((b, f, report.mean_confidence));
        }
    }
    let (drift_batch, f_during_drift, drift_conf) =
        first_drift.expect("stream contains drifted batches");
    let mean_pre = pre_drift_f.iter().sum::<f64>() / pre_drift_f.len() as f64;
    println!(
        "\npre-drift mean fold-in F {mean_pre:.3}; batch {drift_batch} dropped to \
         F {f_during_drift:.3} (confidence {drift_conf:.3}) and triggered the warm refit"
    );

    // The session's own accounting of the same story.
    let telemetry = session.telemetry();
    println!(
        "session telemetry: {} batches, {} drift / {} cadence / {} manual refits \
         ({} suppressed by cooldown), {} reseed vs {} plain-warm, \
         {} warm iterations total, {} hot swaps",
        telemetry.batches.len(),
        telemetry.drift_refits,
        telemetry.cadence_refits,
        telemetry.manual_refits,
        telemetry.cooldown_suppressed(),
        telemetry.reseed_refits,
        telemetry.plain_warm_refits,
        telemetry.total_warm_iterations,
        telemetry.hot_swaps
    );
    for b in &telemetry.batches {
        if let RefreshDecision::Refit(trigger) = b.decision {
            println!(
                "  batch {}: confidence {:.3} -> {:?} refit",
                b.batch, b.mean_confidence, trigger
            );
        }
    }
    assert!(
        telemetry.drift_refits >= 1,
        "the drop must be recorded as a drift refit"
    );

    // Serve the final batch through the live engine — the model answering
    // is the hot-swapped warm refit, and the engine's histogram gives the
    // true latency quantiles of the request stream.
    let last = batches.last().expect("stream has batches");
    let docs: Vec<SparseVec> = (0..last.len())
        .map(|i| {
            let (idx, vals) = last.feature_row(i, num_terms);
            SparseVec::new(idx, vals).expect("batch doc")
        })
        .collect();
    engine
        .assign("live", 0, docs)
        .expect("serve through live engine");
    let serve_stats = engine.stats();
    println!(
        "live engine: {} docs in {} requests, latency p50 {:?} / p99 {:?}\n",
        serve_stats.documents,
        serve_stats.requests,
        serve_stats.quantile(0.5),
        serve_stats.quantile(0.99)
    );

    // Post-drift recovery, scored on the drifted batches against the
    // warm-refreshed model (the one now live in the engine).
    let warm_assigner = Assigner::new(session.model().clone()).expect("warm model");
    let drifted: Vec<&StreamBatch> = batches.iter().filter(|b| b.drifted).collect();
    let score = |assigner: &Assigner| {
        let mut f_sum = 0.0;
        for batch in &drifted {
            let (labels, _) = foldin(assigner, batch, num_terms);
            f_sum += fscore(&batch.labels, &labels);
        }
        f_sum / drifted.len() as f64
    };
    let f_warm = score(&warm_assigner);

    println!(
        "post-refit fold-in F on the drifted stream: {f_warm:.3} \
         (was {f_during_drift:.3} during the drop)"
    );
    assert!(
        f_warm > f_during_drift + 0.05,
        "warm refit did not recover the drifted stream: {f_warm:.3} vs {f_during_drift:.3}"
    );

    // Gold standard: cold refit on the same accumulated corpus — fresh
    // k-means initialisation, full iteration budget, full two-stage
    // Laplacian — scored on the same drifted documents.
    let cold = rhchme.fit_corpus(session.corpus()).expect("cold refit");
    let cold_model = rhchme.export_model(&cold).expect("cold export");
    let f_cold = score(&Assigner::new(cold_model).expect("cold model"));
    println!(
        "cold refit: {} iterations, post-drift fold-in F {f_cold:.3}; \
         warm refit used {warm_iters_used} iterations",
        cold.iterations
    );
    assert!(
        2 * warm_iters_used <= cold.iterations,
        "warm refresh must run at most half the cold refit's iterations \
         ({warm_iters_used} vs {})",
        cold.iterations
    );
    assert!(
        f_warm >= f_cold - 0.02,
        "warm refit ({f_warm:.3}) trails the cold refit ({f_cold:.3}) by more \
         than 2 F-measure points"
    );
    println!(
        "warm refresh is within 2 F-points of the cold refit at <= half the \
         iterations — OK"
    );

    // Partial reseed (RefreshPolicy::reseed_confidence): replay the same
    // stream with low-confidence rows reseeded from drift-tracking
    // k-means (Lloyd from the previous model's centroids) instead of
    // inheriting the stale basin, and check the policy is no worse than
    // the plain warm path on this drift scenario.
    let mut reseed_session = StreamSession::new(
        initial_reseed,
        rhchme.clone(),
        RefreshPolicy {
            every_batches: None,
            min_confidence: Some(0.38),
            drift_cooldown: 0,
            warm_iters: cold_budget / 2,
            refresh_subspace: true,
            reseed_confidence: Some(0.38),
        },
    )
    .expect("reseed session fit");
    for batch in &batches {
        reseed_session.push_batch(batch).expect("reseed push");
    }
    let f_reseed = score(&Assigner::new(reseed_session.model().clone()).expect("reseed model"));
    println!(
        "partial-reseed warm refresh: post-drift fold-in F {f_reseed:.3} \
         (plain warm path {f_warm:.3})"
    );
    assert!(
        f_reseed >= f_warm - 0.02,
        "partial reseed ({f_reseed:.3}) must be no worse than the plain warm \
         path ({f_warm:.3}) on the drift scenario"
    );
    println!("partial reseed is no worse than the plain warm path — OK");
}
