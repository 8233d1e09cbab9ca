//! Staged fits equal hand-assembled fits, bit for bit.
//!
//! Every fit stages its inputs once through `rhchme::pipeline::Artifacts`:
//! one data assembly, one exact neighbour search per type that every
//! graph of the fit reads, one k-means start and one `R`. The oracle here
//! assembles each fit by hand, call by call, as the traced benchmark fit
//! does: its own `MultiTypeData::from_corpus` (DRCC's two-type data from
//! `Method::data`), `pnn_laplacians_backend_prec`, `rmc_candidates` with
//! its own search, `init_membership`, `assemble_r_csr` and `run_engine`.
//! Labels, `G`, `S` and the objective trace must come out with the same
//! bits, and an export must equal the model built on freshly assembled
//! data.

use rhchme::engine::{run_engine, EngineResult, GraphRegularizer};
use rhchme::intra::{
    hetero_laplacian, pnn_laplacians_backend_prec, rmc_candidates, subspace_laplacians,
};
use rhchme::pipeline::{Artifacts, RMC_MU};
use rhchme::rhchme::init_membership;
use rhchme_repro::graph::{GraphBackend, RpForestParams};
use rhchme_repro::linalg::Mat;
use rhchme_repro::prelude::*;

/// 120 documents: more than the default rp-forest (40-row leaves, two
/// probes) searches exhaustively, so its graph differs from the exact one.
fn corpus() -> MultiTypeCorpus {
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![40, 40, 40],
        vocab_size: 80,
        concept_count: 24,
        doc_len_range: (30, 45),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.15,
        corrupt_frac: 0.05,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 391 + mtrl_datagen::seed_from_env(0),
    })
}

/// The exact and the rp-forest configuration.
fn configs() -> [(&'static str, RhchmeConfig); 2] {
    let exact = RhchmeConfig {
        max_iter: 15,
        spg_max_iter: 10,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let forest = RhchmeConfig {
        graph_backend: GraphBackend::RpForest(RpForestParams::default()),
        ..exact.clone()
    };
    [("exact", exact), ("rp_forest", forest)]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `method`'s fit of `corpus` under `cfg`, assembled call by call.
fn by_hand(
    corpus: &MultiTypeCorpus,
    method: Method,
    cfg: &RhchmeConfig,
) -> (MultiTypeData, EngineResult) {
    let data = if method.is_hocc() {
        MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)
    } else {
        method.data(corpus, cfg)
    }
    .unwrap();
    let features = data.all_features();
    let pnn = |backend: &GraphBackend| {
        let (p, scheme, kind) = (cfg.p, cfg.weight_scheme, cfg.laplacian_kind);
        pnn_laplacians_backend_prec(&features, p, scheme, kind, backend, cfg.precision).unwrap()
    };
    let reg = match method {
        Method::Src => GraphRegularizer::None,
        Method::Rmc => GraphRegularizer::Ensemble {
            candidates: rmc_candidates(&features, cfg.laplacian_kind, None).unwrap(),
            mu: RMC_MU,
        },
        Method::Rhchme => {
            let l_s =
                subspace_laplacians(&features, &cfg.spg_config(), cfg.laplacian_kind).unwrap();
            let l_e = pnn(&cfg.graph_backend);
            GraphRegularizer::Fixed(hetero_laplacian(&l_s, &l_e, cfg.alpha).unwrap())
        }
        _ => GraphRegularizer::Fixed(pnn(&GraphBackend::Exact)),
    };
    let g0 = init_membership(&data, &features, cfg.seed);
    let r = data.assemble_r_csr();
    let out = run_engine(&r, &data, &reg, g0, &method.engine_config(cfg)).unwrap();
    (data, out)
}

/// `G`, `S` and the objective trace of two fits, by their bits.
fn assert_same_fit(what: &str, got: (&Mat, &Mat, &[f64]), want: &EngineResult) {
    assert_eq!(bits(got.0.as_slice()), bits(want.g.as_slice()), "{what}: G");
    assert_eq!(bits(got.1.as_slice()), bits(want.s.as_slice()), "{what}: S");
    assert_eq!(bits(got.2), bits(&want.objective_trace), "{what}: trace");
}

#[test]
fn staged_fits_equal_hand_assembled_fits() {
    let corpus = corpus();
    for (leg, cfg) in configs() {
        // RHCHME: the estimator's staged fit, in full.
        let (data, hand) = by_hand(&corpus, Method::Rhchme, &cfg);
        let fit = Rhchme::new(cfg.clone()).fit_corpus(&corpus).unwrap();
        let what = format!("{leg}: Rhchme::fit_corpus");
        assert_same_fit(&what, (&fit.g, &fit.s, &fit.objective_trace), &hand);
        for k in 0..data.num_types() {
            let want = data.labels_from_membership(&hand.g, k);
            assert_eq!(fit.labels_per_type[k], want, "{what}: labels of type {k}");
        }

        // Every run_spec arm: its labels and objective trace (a
        // `MethodOutput` carries no `G` or `S`). The baselines build
        // exact graphs under either backend.
        for method in Method::all() {
            let (data, hand) = by_hand(&corpus, method, &cfg);
            let out = run_spec(&corpus, &method.into(), &cfg).unwrap();
            let what = format!("{leg}: run_spec {method:?}");
            assert_eq!(
                out.doc_labels,
                data.labels_from_membership(&hand.g, 0),
                "{what}"
            );
            assert_eq!(
                bits(&out.objective_trace),
                bits(&hand.objective_trace),
                "{what}"
            );
        }

        // The ensemble's staging: the baselines' regularisers from the
        // shared artifacts (one search per type at depth max(p, 10)),
        // in full.
        let arts = Artifacts::new(&corpus, &cfg).unwrap();
        for method in [Method::Src, Method::Snmtf, Method::Rmc] {
            let (_, hand) = by_hand(&corpus, method, &cfg);
            let reg = method.baseline_regularizer(&arts).unwrap();
            let row = method.engine_config(&cfg);
            let out = run_engine(&arts.r, &arts.data, &reg, arts.g0.clone(), &row).unwrap();
            let what = format!("{leg}: Artifacts::new {method:?}");
            assert_same_fit(&what, (&out.g, &out.s, &out.objective_trace), &hand);
        }
    }
}

#[test]
fn export_reads_the_data_of_the_fit() {
    let corpus = corpus();
    let [(_, cfg), _] = configs();
    let model = Rhchme::new(cfg.clone());
    let result = model.fit_corpus(&corpus).unwrap();
    let exported = model.export_model(&result).unwrap();
    let fresh = RhchmeResult {
        data: MultiTypeData::from_corpus(&corpus, cfg.feature_cluster_divisor).unwrap(),
        ..result
    };
    let built = rhchme::export::build_model(cfg, &fresh)
        .unwrap()
        .with_method("rhchme");
    assert_eq!(exported.content_digest(), built.content_digest());
}
