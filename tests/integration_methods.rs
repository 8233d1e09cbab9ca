//! Cross-crate integration tests: the seven methods on shared corpora,
//! verifying the qualitative ordering the paper reports.

use rhchme_repro::prelude::*;

fn test_corpus(corrupt: f64, seed: u64) -> MultiTypeCorpus {
    // `MTRL_SEED` (CI seed matrix) shifts every corpus realisation; the
    // default of 0 keeps the historical streams for local runs.
    let seed = seed + mtrl_datagen::seed_from_env(0);
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![14, 14, 14],
        vocab_size: 120,
        concept_count: 36,
        doc_len_range: (40, 70),
        background_frac: 0.3,
        topic_noise: 0.4,
        concept_map_noise: 0.15,
        corrupt_frac: corrupt,
        subtopics_per_class: 2,
        view_confusion: 0.3,
        seed,
    })
}

fn fast_params() -> RhchmeConfig {
    RhchmeConfig {
        max_iter: 50,
        spg_max_iter: 40,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    }
}

#[test]
fn all_methods_produce_valid_labels() {
    let corpus = test_corpus(0.05, 301);
    let params = fast_params();
    for method in Method::all() {
        let out = run_spec(&corpus, &method.into(), &params).unwrap();
        assert_eq!(out.doc_labels.len(), corpus.num_docs(), "{method:?}");
        // Labels within the document cluster range.
        assert!(
            out.doc_labels.iter().all(|&l| l < corpus.num_classes),
            "{method:?} produced out-of-range label"
        );
        // Better than random (3 balanced classes -> random FScore ~ 0.33).
        let f = fscore(&corpus.labels, &out.doc_labels);
        assert!(f > 0.4, "{method:?} fscore {f} not above chance");
    }
}

#[test]
fn rhchme_beats_src_under_corruption() {
    // The paper's headline: intra-type information + robustness helps.
    // SRC uses neither; under corruption the gap must be visible.
    // Average over seeds: single-seed comparisons are noisy on small
    // corpora; the paper's claim is about consistent aggregate ordering.
    let params = fast_params();
    let (mut f_rhchme, mut f_src) = (0.0, 0.0);
    let seeds = [302u64, 312, 322];
    for &seed in &seeds {
        let corpus = test_corpus(0.15, seed);
        let rhchme = run_spec(&corpus, &Method::Rhchme.into(), &params).unwrap();
        let src = run_spec(&corpus, &Method::Src.into(), &params).unwrap();
        f_rhchme += fscore(&corpus.labels, &rhchme.doc_labels) / seeds.len() as f64;
        f_src += fscore(&corpus.labels, &src.doc_labels) / seeds.len() as f64;
    }
    assert!(
        f_rhchme + 0.02 >= f_src,
        "RHCHME ({f_rhchme}) should not trail SRC ({f_src}) under corruption"
    );
}

#[test]
fn hocc_methods_beat_two_way_average() {
    // Tables III/IV: the HOCC family outscores the DR-* family on
    // average. As with `rhchme_beats_src_under_corruption`, average over
    // seeds: a single small-corpus realization is noisy in either
    // direction, and the paper's claim is about the aggregate ordering.
    let params = fast_params();
    let mut hocc = Vec::new();
    let mut two_way = Vec::new();
    for seed in [301u64, 303, 307] {
        let corpus = test_corpus(0.05, seed);
        for method in Method::all() {
            let out = run_spec(&corpus, &method.into(), &params).unwrap();
            let f = fscore(&corpus.labels, &out.doc_labels);
            if method.is_hocc() {
                hocc.push(f);
            } else {
                two_way.push(f);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&hocc) > mean(&two_way) - 0.05,
        "HOCC mean {:.3} vs two-way mean {:.3}",
        mean(&hocc),
        mean(&two_way)
    );
}

#[test]
fn method_runs_are_deterministic() {
    let corpus = test_corpus(0.05, 304);
    let params = fast_params();
    for method in [Method::Rhchme, Method::Rmc, Method::DrT] {
        let a = run_spec(&corpus, &method.into(), &params).unwrap();
        let b = run_spec(&corpus, &method.into(), &params).unwrap();
        assert_eq!(a.doc_labels, b.doc_labels, "{method:?} not deterministic");
        assert_eq!(
            a.objective_trace, b.objective_trace,
            "{method:?} trace not deterministic"
        );
    }
}

#[test]
fn objective_traces_decrease_monotonically() {
    // Theorem 1 for RHCHME; the same engine property for the baselines.
    let corpus = test_corpus(0.1, 305);
    let params = fast_params();
    for method in Method::all().into_iter().filter(|&m| m != Method::Rmc) {
        let out = run_spec(&corpus, &method.into(), &params).unwrap();
        let t = &out.objective_trace;
        // DRCC/SRC/SNMTF follow Theorem 1 exactly (strict bound). RHCHME
        // interleaves the row-ℓ1 normalisation of Eq. (22) and the IRLS
        // `E_R` re-weighting with the multiplicative updates; both steps
        // descend a surrogate, so the *true* objective may wiggle by a
        // few 1e-3 relative — allow that without masking real divergence.
        let tol = if method == Method::Rhchme { 5e-3 } else { 1e-5 };
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + tol) + 1e-9,
                "{method:?} objective rose {} -> {}",
                w[0],
                w[1]
            );
        }
    }
}

/// The six RMC candidates come from one p = 10 search per type whose
/// lists are ranked, the p = 5 lists being their prefixes; every
/// Laplacian must equal what six separate searches build, bit for bit —
/// on a Large3 corpus and on features full of exact ties (each row
/// three times, so every object has zero-distance twins).
#[test]
fn rmc_candidates_equal_six_separate_searches() {
    use rhchme::intra::{pnn_laplacians_backend_prec, rmc_candidates};
    use rhchme_repro::graph::{GraphBackend, LaplacianKind, WeightScheme};
    use rhchme_repro::linalg::Mat;

    let corpus = mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![30, 30, 30],
        seed: 17 + mtrl_datagen::seed_from_env(0),
        ..mtrl_eval::CorpusShape::Large3.config()
    });
    let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
    let features = data.all_features();
    let tied: Vec<Mat> = features
        .iter()
        .map(|f| {
            let rows: Vec<Vec<f64>> = (0..3 * f.rows()).map(|i| f.row(i / 3).to_vec()).collect();
            Mat::from_rows(&rows).unwrap()
        })
        .collect();
    let kind = LaplacianKind::SymNormalized;
    for feats in [&features, &tied] {
        let mut separate = Vec::new();
        for p in [5usize, 10] {
            for scheme in [
                WeightScheme::Binary,
                WeightScheme::HeatKernel { sigma: -1.0 },
                WeightScheme::Cosine,
            ] {
                separate.push(
                    pnn_laplacians_backend_prec(
                        feats,
                        p,
                        scheme,
                        kind,
                        &GraphBackend::Exact,
                        Default::default(),
                    )
                    .unwrap(),
                );
            }
        }
        let shared = rmc_candidates(feats, kind, None).unwrap();
        assert!(shared == separate, "one search differs from six");
        let reused = rmc_candidates(feats, kind, Some(&separate[2])).unwrap();
        assert!(reused == separate, "the reused p = 5 cosine candidate");
    }
}

/// A 180-document corpus: more documents than the default rp-forest
/// (40-row leaves, two probes) searches exhaustively.
fn forest_corpus(seed: u64) -> MultiTypeCorpus {
    mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![60, 60, 60],
        vocab_size: 90,
        concept_count: 24,
        doc_len_range: (30, 45),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.15,
        corrupt_frac: 0.05,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: seed + mtrl_datagen::seed_from_env(0),
    })
}

/// An ensemble member of SRC, SNMTF, RMC or RHCHME at the canonical seed
/// and cluster counts is the solo fit of its method: the same document
/// labels and the same final objective, bit for bit — at default
/// parameters, and under the rp-forest backend, which belongs to RHCHME
/// alone (SRC, SNMTF and RMC stay exact in both paths; RHCHME's `L_E`
/// takes the backend in both paths).
///
/// And every member of the default 8-member plan (random-k on), which
/// the generator fits in lockstep, is the solo `run_engine` fit of its
/// plan — method, seed and document cluster count — on regularisers
/// built apart from the shared ones: the same labels of every type and
/// final objective, and the lockstep batch of those plans gives the
/// solo fits' `G`, `S` and objective trace bit for bit.
#[test]
fn ensemble_members_equal_solo_fits() {
    use mtrl_ensemble::generator::{generate_members, SharedRegularizers};
    use rhchme::engine::{run_engine, run_engine_lockstep, GraphRegularizer, LockstepFit};
    use rhchme::intra::{hetero_laplacian, pnn_laplacians_backend_prec};
    use rhchme::pipeline::{Artifacts, EnsembleSpec};
    use rhchme::rhchme::init_membership;
    use rhchme_repro::graph::{GraphBackend, LaplacianKind, RpForestParams, WeightScheme};

    let corpus = forest_corpus(331);
    let exact = RhchmeConfig {
        max_iter: 15,
        spg_max_iter: 10,
        feature_cluster_divisor: 10,
        ..RhchmeConfig::default()
    };
    let forest = GraphBackend::RpForest(RpForestParams::default());
    let forest_params = RhchmeConfig {
        graph_backend: forest,
        ..exact.clone()
    };

    // Test geometry: the forest's graph must differ from the exact one,
    // or the rp-forest leg would not tell the backends apart.
    let features = MultiTypeData::from_corpus(&corpus, exact.feature_cluster_divisor)
        .unwrap()
        .all_features();
    let graph = |backend: &GraphBackend| {
        let (scheme, kind) = (WeightScheme::Cosine, LaplacianKind::SymNormalized);
        pnn_laplacians_backend_prec(
            &features,
            exact.p,
            scheme,
            kind,
            backend,
            Default::default(),
        )
        .unwrap()
    };
    let forest_graph = graph(&forest);
    assert!(forest_graph != graph(&GraphBackend::Exact));

    for (leg, params) in [("default", &exact), ("rp_forest", &forest_params)] {
        let arts = Artifacts::new(&corpus, params).unwrap();
        let regs = SharedRegularizers::new(&arts, params).unwrap();
        for method in [Method::Src, Method::Snmtf, Method::Rmc, Method::Rhchme] {
            let spec = EnsembleSpec {
                pool: vec![method],
                members: 1,
                ..EnsembleSpec::default()
            };
            let members = generate_members(&arts, &regs, &spec, params).unwrap();
            let solo = run_spec(&corpus, &method.into(), params).unwrap();
            assert_eq!(
                members[0].labels_per_type[0], solo.doc_labels,
                "{leg}: {method:?} member labels differ from the solo fit"
            );
            assert_eq!(
                members[0].final_objective.to_bits(),
                solo.objective_trace.last().unwrap().to_bits(),
                "{leg}: {method:?} member objective differs from the solo fit"
            );
        }

        let members = generate_members(&arts, &regs, &EnsembleSpec::default(), params).unwrap();
        assert_eq!(members.len(), 8);
        let canonical = arts.data.cluster_counts()[0];
        assert!(members.iter().any(|m| m.doc_clusters != canonical));
        let l_sub = arts.subspace_laplacian(params).unwrap();
        let hetero =
            GraphRegularizer::Fixed(hetero_laplacian(&l_sub, &arts.l_pnn, params.alpha).unwrap());
        let apart = |m: Method| {
            m.baseline_regularizer(&arts.features, params, None)
                .unwrap()
        };
        let (src, snmtf, rmc) = (apart(Method::Src), apart(Method::Snmtf), apart(Method::Rmc));
        let plans: Vec<_> = members
            .iter()
            .map(|m| {
                let mut counts = arts.data.cluster_counts().to_vec();
                counts[0] = m.doc_clusters;
                let data = arts.data.with_cluster_counts(counts).unwrap();
                let reg = match m.method {
                    Method::Src => &src,
                    Method::Snmtf => &snmtf,
                    Method::Rmc => &rmc,
                    _ => &hetero,
                };
                let cfg = m.method.engine_config(params);
                let g0 = init_membership(&data, &arts.features, m.seed);
                (data, reg, g0, cfg)
            })
            .collect();
        let batch = run_engine_lockstep(
            &arts.r,
            plans
                .iter()
                .map(|(data, reg, g0, cfg)| LockstepFit {
                    data,
                    reg,
                    g0: g0.clone(),
                    cfg: cfg.clone(),
                })
                .collect(),
        )
        .unwrap();
        for (i, ((member, (data, reg, g0, cfg)), got)) in
            members.iter().zip(&plans).zip(&batch).enumerate()
        {
            let solo = run_engine(&arts.r, data, reg, g0.clone(), cfg).unwrap();
            let labels: Vec<Vec<usize>> = (0..data.num_types())
                .map(|k| data.labels_from_membership(&solo.g, k))
                .collect();
            assert_eq!(member.labels_per_type, labels, "{leg}: member {i} labels");
            assert_eq!(
                member.final_objective.to_bits(),
                solo.objective_trace.last().unwrap().to_bits(),
                "{leg}: member {i} objective"
            );
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.g.as_slice()),
                bits(solo.g.as_slice()),
                "{leg}: {i} G"
            );
            assert_eq!(
                bits(got.s.as_slice()),
                bits(solo.s.as_slice()),
                "{leg}: {i} S"
            );
            assert_eq!(
                bits(&got.objective_trace),
                bits(&solo.objective_trace),
                "{leg}: {i} objective trace"
            );
        }
    }
}

/// `m` with the first stored value of row `i` set to `v`.
fn with_value(m: &rhchme_repro::sparse::Csr, i: usize, v: f64) -> rhchme_repro::sparse::Csr {
    let rows: Vec<(Vec<usize>, Vec<f64>)> = (0..m.rows())
        .map(|r| {
            let (cols, vals) = m.row(r);
            let mut vals = vals.to_vec();
            if r == i {
                vals[0] = v;
            }
            (cols.to_vec(), vals)
        })
        .collect();
    rhchme_repro::sparse::Csr::from_sparse_rows(&rows, m.cols())
}

/// A NaN or infinite relation value is a typed error for every method
/// and for the ensemble — never a panic (k-means++ used to sample from
/// a NaN total, and only RHCHME's SPG stage checked its input first).
#[test]
fn non_finite_relations_are_errors_for_every_method() {
    let clean = test_corpus(0.0, 341);
    let params = RhchmeConfig {
        max_iter: 5,
        spg_max_iter: 5,
        ..fast_params()
    };
    let mut specs: Vec<MethodSpec> = Method::all().into_iter().map(MethodSpec::from).collect();
    specs.push(MethodSpec::ensemble());
    for bad in [f64::NAN, f64::INFINITY] {
        let mut corpus = clean.clone();
        corpus.doc_term = with_value(&corpus.doc_term, 3, bad);
        corpus.doc_concept = with_value(&corpus.doc_concept, 5, bad);
        for spec in &specs {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mtrl_ensemble::run_spec(&corpus, spec, &params)
            }));
            match out {
                Ok(Err(e)) => assert!(
                    matches!(e, rhchme::RhchmeError::InvalidData(_)),
                    "{} on {bad}: {e:?}",
                    spec.key()
                ),
                Ok(Ok(_)) => panic!("{} fitted a corpus holding {bad}", spec.key()),
                Err(_) => panic!("{} panicked on a corpus holding {bad}", spec.key()),
            }
        }
    }
}

/// `m` with row `r` replaced by `row(r)`'s choice of source row, or
/// emptied where it gives `None`.
fn with_rows(
    m: &rhchme_repro::sparse::Csr,
    row: impl Fn(usize) -> Option<usize>,
) -> rhchme_repro::sparse::Csr {
    let rows: Vec<(Vec<usize>, Vec<f64>)> = (0..m.rows())
        .map(|r| match row(r) {
            Some(src) => (m.row(src).0.to_vec(), m.row(src).1.to_vec()),
            None => (Vec::new(), Vec::new()),
        })
        .collect();
    rhchme_repro::sparse::Csr::from_sparse_rows(&rows, m.cols())
}

/// `m` with the columns `drop(j)` selects emptied, or cut off when
/// `keep` is narrower than `m`.
fn with_columns(
    m: &rhchme_repro::sparse::Csr,
    keep: usize,
    drop: impl Fn(usize) -> bool,
) -> rhchme_repro::sparse::Csr {
    let rows: Vec<(Vec<usize>, Vec<f64>)> = (0..m.rows())
        .map(|r| {
            let (idx, vals) = m.row(r);
            idx.iter()
                .zip(vals)
                .filter(|&(&j, _)| j < keep && !drop(j))
                .map(|(&j, &v)| (j, v))
                .unzip()
        })
        .collect();
    rhchme_repro::sparse::Csr::from_sparse_rows(&rows, keep)
}

/// The degenerate corpora of the robustness property test, by name.
/// The degenerate cases every method must refuse with `InvalidConfig`:
/// a document cluster count above the document count, or below two.
const MORE_CLUSTERS_THAN_DOCS: &str = "three clusters, two documents";
const SINGLE_CLASS: &str = "single class";

fn degenerate_corpora(seed: u64) -> Vec<(&'static str, MultiTypeCorpus)> {
    let seed = seed + mtrl_datagen::seed_from_env(0);
    let generate = |docs_per_class: Vec<usize>| {
        mtrl_datagen::corpus::generate(&CorpusConfig {
            docs_per_class,
            vocab_size: 60,
            concept_count: 18,
            doc_len_range: (20, 30),
            background_frac: 0.3,
            topic_noise: 0.3,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed,
        })
    };
    let base = generate(vec![8, 8, 8]);
    // Every fifth document has no terms and no concepts.
    let mut empty_docs = base.clone();
    let keep = |d: usize| (!d.is_multiple_of(5)).then_some(d);
    empty_docs.doc_term = with_rows(&base.doc_term, keep);
    empty_docs.doc_concept = with_rows(&base.doc_concept, keep);
    let mut zero_term_concept = base.clone();
    zero_term_concept.term_concept =
        rhchme_repro::sparse::Csr::zeros(base.num_terms(), base.num_concepts());
    // Documents 1, 2 repeat document 0, and 9, 23 repeat 8 and 16.
    let mut duplicates = base.clone();
    let copy = |d: usize| {
        Some(match d {
            1 | 2 => 0,
            9 => 8,
            23 => 16,
            d => d,
        })
    };
    duplicates.doc_term = with_rows(&base.doc_term, copy);
    duplicates.doc_concept = with_rows(&base.doc_concept, copy);
    // The generator needs two classes; relabel one of its corpora.
    let mut single_class = generate(vec![12, 12]);
    single_class.labels.fill(0);
    single_class.num_classes = 1;
    // Term 0 and concept 0 occur in no document.
    let mut zero_column = base.clone();
    zero_column.doc_term = with_columns(&base.doc_term, base.num_terms(), |j| j == 0);
    zero_column.doc_concept = with_columns(&base.doc_concept, base.num_concepts(), |j| j == 0);
    // One concept, below the two clusters every feature type gets.
    let mut one_concept = base.clone();
    one_concept.doc_concept = with_columns(&base.doc_concept, 1, |_| false);
    one_concept.term_concept = with_columns(&base.term_concept, 1, |_| false);
    // Three document clusters asked of two documents.
    let mut more_classes_than_docs = generate(vec![1, 1]);
    more_classes_than_docs.num_classes = 3;
    vec![
        ("empty documents", empty_docs),
        ("all-zero term-concept block", zero_term_concept),
        ("duplicate rows", duplicates),
        ("two documents", generate(vec![1, 1])),
        ("40/1/1 class split", generate(vec![40, 1, 1])),
        (SINGLE_CLASS, single_class),
        ("all-zero feature column", zero_column),
        ("one concept, two concept clusters", one_concept),
        (MORE_CLUSTERS_THAN_DOCS, more_classes_than_docs),
    ]
}

// Every method and the ensemble, on every degenerate corpus, return a
// labelling of every document or a typed error — never a panic.
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

    #[test]
    fn degenerate_corpora_give_labels_or_typed_errors(seed in 0u64..1000) {
        let params = RhchmeConfig {
            max_iter: 5,
            spg_max_iter: 5,
            ..fast_params()
        };
        let mut specs: Vec<MethodSpec> = Method::all().into_iter().map(MethodSpec::from).collect();
        specs.push(MethodSpec::ensemble());
        for (case, corpus) in degenerate_corpora(seed) {
            for spec in &specs {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mtrl_ensemble::run_spec(&corpus, spec, &params)
                }));
                let Ok(result) = out else {
                    panic!("{} panicked on {case}", spec.key());
                };
                if case == MORE_CLUSTERS_THAN_DOCS || case == SINGLE_CLASS {
                    // Every method refuses the request the same way.
                    assert!(
                        matches!(result, Err(rhchme::RhchmeError::InvalidConfig(_))),
                        "{} on {case} gave {:?}",
                        spec.key(),
                        result.map(|fit| fit.doc_labels)
                    );
                } else if let Ok(fit) = result {
                    assert_eq!(fit.doc_labels.len(), corpus.num_docs(), "{} on {case}", spec.key());
                }
            }
        }
    }
}
