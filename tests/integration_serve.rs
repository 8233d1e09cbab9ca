//! Cross-crate integration tests of the serving subsystem:
//! fit → export → save → load → serve, plus property tests on the
//! fold-in posterior invariants.

use proptest::prelude::*;
use rhchme_repro::prelude::*;
use rhchme_repro::serve::persist;

fn corpus(seed: u64) -> MultiTypeCorpus {
    // `MTRL_SEED` (CI seed matrix) shifts every corpus realisation.
    let seed = seed + mtrl_datagen::seed_from_env(0);
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![12, 12, 12],
        vocab_size: 90,
        concept_count: 24,
        doc_len_range: (30, 50),
        background_frac: 0.25,
        topic_noise: 0.25,
        concept_map_noise: 0.1,
        corrupt_frac: 0.05,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed,
    })
}

fn fit_and_export(train: &MultiTypeCorpus) -> FittedModel {
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(train).unwrap();
    rhchme.export_model(&result).unwrap()
}

fn to_sparse(doc: &HeldOutDoc) -> SparseVec {
    SparseVec::new(doc.indices.clone(), doc.values.clone()).unwrap()
}

#[test]
fn save_load_assign_equals_in_memory_assignment() {
    let full = corpus(71);
    let (train, heldout) = split_corpus(&full, 0.25, 71);
    let model = fit_and_export(&train);

    // In-memory assignment.
    let direct = Assigner::new(model.clone()).unwrap();
    let docs: Vec<SparseVec> = heldout.iter().map(to_sparse).collect();
    let direct_posteriors = direct.assign_batch(0, &docs).unwrap();

    // Through the persistence layer and a fresh engine.
    let dir = std::env::temp_dir().join("mtrl_serve_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.mtrl");
    persist::save(&model, &path).unwrap();
    let loaded = persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let engine = ServeEngine::new(2);
    engine.register("rt", loaded).unwrap();
    let served = engine.assign("rt", 0, docs).unwrap();

    assert_eq!(served.posteriors.len(), direct_posteriors.len());
    for (a, b) in direct_posteriors.iter().zip(&served.posteriors) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            // The bundle stores f64 bit-exactly, so the posteriors are
            // *identical*, not merely close.
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn v1_json_file_is_a_typed_corrupt_error() {
    let full = corpus(75);
    let (train, _) = split_corpus(&full, 0.25, 75);
    let model = fit_and_export(&train);

    let dir = std::env::temp_dir().join("mtrl_serve_one_format");
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = dir.join("model.mtrl");
    let json = dir.join("model_v1.json");

    // A JSON envelope of the retired v1 format beside a current bundle:
    // the JSON file fails the magic check, typed, and the bundle loads.
    persist::save(&model, &bundle).unwrap();
    std::fs::write(
        &json,
        format!(
            "{{\"format\": \"mtrl-serve/fitted-model\", \"schema_version\": 1, \
             \"content_digest\": \"{:#018x}\", \"model\": {{}}}}",
            model.content_digest()
        ),
    )
    .unwrap();
    let from_json = persist::load(&json);
    let from_bundle = persist::load(&bundle).unwrap();
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&bundle).ok();

    match from_json {
        Err(ServeError::Corrupt(msg)) => assert!(msg.contains("bad magic"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(model.content_digest(), from_bundle.content_digest());
}

#[test]
fn pipeline_export_round_trips_through_engine() {
    let full = corpus(72);
    let params = RhchmeConfig {
        lambda: 1.0,
        max_iter: 30,
        spg_max_iter: 30,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let out = run_spec(&full, &Method::Rhchme.into(), &params).unwrap();
    // The estimator under the same configuration fits the same model,
    // and exports it.
    let rhchme = Rhchme::new(params);
    let result = rhchme.fit_corpus(&full).unwrap();
    assert_eq!(result.doc_labels, out.doc_labels);
    let model = rhchme.export_model(&result).unwrap();

    let engine = ServeEngine::new(1);
    engine.register("from-pipeline", model).unwrap();
    let x = SparseVec::new(vec![0, 1], vec![0.5, 0.5]).unwrap();
    let r = engine.assign("from-pipeline", 0, vec![x]).unwrap();
    assert_eq!(r.posteriors.len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn foldin_posteriors_are_distributions(
        seed in 0u64..1000,
        nnz in 0usize..40,
        scale in 0.01f64..10.0
    ) {
        // One shared model (fitting per case would dominate the runtime);
        // the sampled inputs vary sparsity pattern, values and scale.
        use std::sync::OnceLock;
        static MODEL: OnceLock<FittedModel> = OnceLock::new();
        let model = MODEL.get_or_init(|| {
            let (train, _) = split_corpus(&corpus(73), 0.2, 73);
            fit_and_export(&train)
        });
        let assigner = Assigner::new(model.clone()).unwrap();
        let num_types = model.num_types();

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for type_index in 0..num_types {
            let dim = model.feature_dims[type_index];
            let mut dense = vec![0.0; dim];
            for _ in 0..nnz {
                dense[rng.gen_range(0..dim)] = scale * rng.gen_range(0.0..1.0);
            }
            let posterior = assigner
                .assign(type_index, &SparseVec::from_dense(&dense))
                .unwrap();
            prop_assert_eq!(posterior.len(), model.cluster_counts[type_index]);
            prop_assert!(posterior.iter().all(|p| p.is_finite()));
            prop_assert!(posterior.iter().all(|&p| p >= 0.0));
            let sum: f64 = posterior.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "sum {} (type {})", sum, type_index);
        }
    }

    #[test]
    fn binary_round_trip_is_bit_identical(seed in 0u64..1000, scale in 0.5f64..2.0) {
        // One base fit (fitting per case would dominate the runtime);
        // each case derives a distinct model by scaling the shared
        // cluster indicator, so the bytes under test vary per case.
        use std::sync::OnceLock;
        static MODEL: OnceLock<FittedModel> = OnceLock::new();
        let base = MODEL.get_or_init(|| {
            let (train, _) = split_corpus(&corpus(76), 0.2, 76);
            fit_and_export(&train)
        });
        let mut model = base.clone();
        let k = (seed as usize) % model.s.len().max(1);
        model.s.as_mut_slice()[k] *= scale;

        let bytes = persist::to_bytes(&model).unwrap();
        let back = persist::from_bytes(&bytes).unwrap();
        prop_assert_eq!(model.content_digest(), back.content_digest());
        // Re-encoding the loaded model reproduces the bundle byte for byte.
        prop_assert_eq!(persist::to_bytes(&back).unwrap(), bytes);
    }

    #[test]
    fn tampered_binary_never_loads_and_never_panics(seed in 0u64..10_000) {
        use std::sync::OnceLock;
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        let good = BYTES.get_or_init(|| {
            let (train, _) = split_corpus(&corpus(77), 0.2, 77);
            persist::to_bytes(&fit_and_export(&train)).unwrap()
        });
        prop_assert!(persist::from_bytes(good).is_ok());

        // Any single corrupted byte — header, section payload, padding,
        // or the digest trailer itself — must be rejected, not parsed.
        let mut bytes = good.clone();
        let offset = (seed as usize) % bytes.len();
        let bit = 1u8 << (seed % 8) as u8;
        bytes[offset] ^= bit;
        prop_assert!(persist::from_bytes(&bytes).is_err(), "offset {}", offset);
    }

    #[test]
    fn posterior_is_scale_invariant(seed in 0u64..1000, scale in 0.1f64..100.0) {
        // Cosine scoring must not care about the document's length.
        use std::sync::OnceLock;
        static MODEL: OnceLock<FittedModel> = OnceLock::new();
        let model = MODEL.get_or_init(|| {
            let (train, _) = split_corpus(&corpus(74), 0.2, 74);
            fit_and_export(&train)
        });
        let assigner = Assigner::new(model.clone()).unwrap();

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = model.feature_dims[0];
        let indices: Vec<usize> = (0..8).map(|_| rng.gen_range(0..dim)).collect();
        let values: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..1.0)).collect();
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        let p1 = assigner.assign(0, &SparseVec::new(indices.clone(), values).unwrap()).unwrap();
        let p2 = assigner.assign(0, &SparseVec::new(indices, scaled).unwrap()).unwrap();
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }
}
