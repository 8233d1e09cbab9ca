//! Observability must not perturb the numbers.
//!
//! The obs layer's hard contract: with `MTRL_OBS` on, every fit
//! produces bit-identical `G`, `S`, labels, and objective trace to the
//! same fit with obs off — instrumentation only *reads* values and
//! wall clocks, it never participates in arithmetic. These tests pin
//! that contract (the CI determinism job re-checks it across thread
//! counts), and check the run manifest actually carries the telemetry
//! the instrumented fit emitted.
//!
//! Obs enablement is process-global, so the off-fit runs first, then
//! `force_enable` — tests in this binary that depend on obs state run
//! under one `#[test]` to keep the ordering deterministic.

use rhchme_repro::prelude::*;

fn corpus() -> MultiTypeCorpus {
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![9, 9, 9],
        vocab_size: 66,
        concept_count: 18,
        doc_len_range: (25, 40),
        background_frac: 0.25,
        topic_noise: 0.2,
        concept_map_noise: 0.1,
        corrupt_frac: 0.05,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 2026,
    })
}

fn config() -> RhchmeConfig {
    RhchmeConfig {
        lambda: 1.0,
        max_iter: 12,
        tol: 0.0,
        seed: 2026,
        ..RhchmeConfig::fast()
    }
}

fn fit(corpus: &MultiTypeCorpus) -> RhchmeResult {
    Rhchme::new(config()).fit_corpus(corpus).expect("fit")
}

/// `(types, converged types, iterations)` of the fit's SPG solves, one
/// per object type, rerun directly with the seeds the fit gives them.
fn spg_health(corpus: &MultiTypeCorpus) -> (u64, u64, u64) {
    let cfg = config();
    let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor).expect("data");
    let mut health = (0, 0, 0);
    for (k, f) in data.all_features().iter().enumerate() {
        let spg_cfg = rhchme_repro::subspace::SpgConfig {
            gamma: cfg.gamma,
            max_iter: cfg.spg_max_iter,
            seed: cfg.seed + k as u64,
            ..Default::default()
        };
        let res = rhchme_repro::subspace::spg_affinity(f, &spg_cfg).expect("spg");
        health.0 += 1;
        health.1 += u64::from(res.converged);
        health.2 += res.iterations as u64;
    }
    health
}

fn bits(m: &mtrl_linalg::Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn obs_on_is_bit_identical_and_manifest_carries_the_fit() {
    let corpus = corpus();

    // Fit with obs off (the default in the test process — MTRL_OBS is
    // not set by the harness).
    mtrl_obs::force_disable();
    let off = fit(&corpus);
    let (spg_types, spg_converged, spg_iterations) = spg_health(&corpus);

    // Same fit with obs on.
    mtrl_obs::force_enable();
    mtrl_obs::global().reset();
    let on = fit(&corpus);

    // Byte-identical outputs.
    assert_eq!(bits(&off.g), bits(&on.g), "G must be bit-identical");
    assert_eq!(bits(&off.s), bits(&on.s), "S must be bit-identical");
    assert_eq!(off.doc_labels, on.doc_labels);
    assert_eq!(off.labels_per_type, on.labels_per_type);
    let off_trace: Vec<u64> = off.objective_trace.iter().map(|v| v.to_bits()).collect();
    let on_trace: Vec<u64> = on.objective_trace.iter().map(|v| v.to_bits()).collect();
    assert_eq!(off_trace, on_trace, "objective trace must be bit-identical");
    assert_eq!(off.iterations, on.iterations);

    // The instrumented fit left its telemetry behind...
    let reg = mtrl_obs::global();
    let fits = reg.fits_snapshot();
    let fit_t = fits
        .iter()
        .find(|f| f.n == corpus.num_docs() + corpus.num_terms() + corpus.num_concepts())
        .expect("engine fit telemetry recorded");
    assert_eq!(fit_t.iterations, on.iterations);
    assert_eq!(fit_t.iters.len(), on.objective_trace.len());
    for (it, obj) in fit_t.iters.iter().zip(&on.objective_trace) {
        assert_eq!(it.objective.to_bits(), obj.to_bits());
    }
    // ...each type's SPG solve reported its health, capped or not...
    let counters = reg.counters_snapshot();
    let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map(|c| c.1);
    assert_eq!(spg_types, 3);
    assert_eq!(counter("subspace.spg.types"), Some(spg_types));
    assert_eq!(counter("subspace.spg.converged_types"), Some(spg_converged));
    assert_eq!(counter("subspace.spg.iterations"), Some(spg_iterations));
    let spans = reg.spans_snapshot();
    for path in [
        "rhchme.fit",
        "rhchme.fit/rhchme.laplacian",
        "rhchme.fit/rhchme.kmeans_init",
        "engine.fit.spmm",
        "engine.fit.lowrank",
        "engine.fit.update",
        "engine.fit.residual",
    ] {
        assert!(
            spans.iter().any(|(p, s)| p == path && s.count > 0),
            "span {path} missing from {spans:?}"
        );
    }

    // ...and the manifest serialises it: valid JSON with the schema
    // marker, the meta header, and the per-iteration objectives.
    let manifest = mtrl_obs::export::manifest_json(reg);
    let parsed: serde_json::Value = serde_json::from_str(&manifest).expect("manifest parses");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(mtrl_obs::export::MANIFEST_SCHEMA)
    );
    let meta = parsed.get("meta").expect("meta header");
    assert!(meta.get("git_sha").and_then(|v| v.as_str()).is_some());
    let fits_json = parsed
        .get("fits")
        .and_then(|v| v.as_array())
        .expect("fits array");
    assert!(!fits_json.is_empty());
    let fit_json = fits_json
        .iter()
        .find(|f| f.get("iterations").and_then(|v| v.as_f64()) == Some(on.iterations as f64))
        .expect("fit entry in manifest");
    let iters = fit_json
        .get("iters")
        .and_then(|v| v.as_array())
        .expect("iters array");
    assert_eq!(iters.len(), on.objective_trace.len());
    assert!(iters[0].get("objective").and_then(|v| v.as_f64()).is_some());
    let update_count = parsed
        .get("spans")
        .and_then(|v| v.get("engine.fit.update"))
        .and_then(|v| v.get("count"))
        .and_then(|v| v.as_f64())
        .expect("engine.fit.update span in manifest");
    assert!(update_count > 0.0);

    // Prometheus dump names are sanitised and typed.
    let prom = mtrl_obs::export::prometheus_text(reg);
    assert!(prom.contains("# TYPE mtrl_engine_fits counter"));
    assert!(prom.contains("mtrl_span_count{span=\"engine.fit.update\"}"));

    mtrl_obs::force_disable();
}
