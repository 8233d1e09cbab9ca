//! The declarative scenario registry: corpus shape × corruption × path.
//!
//! A [`Scenario`] names one cell of the robustness matrix the paper's
//! headline claims live in (Sec. IV): *which* corpus shape, under
//! *which* corruption axis and level, driven through *which* pipeline
//! path. The registry is plain data — the runner ([`crate::runner`])
//! executes a scenario identically whether it is invoked by the
//! `quality_report` bin, a test, or an example, and the committed
//! `QUALITY_*.json` baseline is reproducible because every input is
//! named here.

use mtrl_datagen::{CorpusConfig, CorruptionSpec};
use mtrl_graph::RpForestParams;
use rhchme::pipeline::{Method, MethodSpec};
use rhchme::GraphBackend;

/// How a scenario drives the system.
///
/// `ColdFit` speaks [`MethodSpec`] — the open method-dispatch type of
/// the redesigned API — so consensus-ensemble cells sit in the same
/// registry as the base methods. (`MethodSpec` carries ensemble knobs
/// with `f64` fields, so `EvalPath` is `Clone + PartialEq`, not
/// `Copy`/`Eq`; build base-method cells with [`EvalPath::cold_fit`].)
#[derive(Debug, Clone, PartialEq)]
pub enum EvalPath {
    /// Cold fit via [`mtrl_ensemble::run_spec`] (the universal
    /// dispatcher over [`MethodSpec`]); scored on the corpus's own
    /// documents.
    ColdFit(MethodSpec),
    /// Fit RHCHME on a stratified training split, export the model, and
    /// fold the held-out documents in through `mtrl_serve::Assigner` —
    /// gates the serving subsystem's quality.
    ServeFoldIn,
    /// Stream batches into a `mtrl_stream::StreamSession`, warm-refit,
    /// and score post-drift fold-in under the refreshed model — gates
    /// the streaming subsystem's quality.
    StreamWarmRefit,
}

impl EvalPath {
    /// Cold-fit path over anything that converts into a [`MethodSpec`]
    /// (a base [`Method`], an `EnsembleSpec`, or a spec itself).
    pub fn cold_fit(spec: impl Into<MethodSpec>) -> Self {
        EvalPath::ColdFit(spec.into())
    }

    /// Stable scenario-key fragment.
    pub(crate) fn key(&self) -> String {
        match self {
            EvalPath::ColdFit(spec) => spec.key().to_string(),
            EvalPath::ServeFoldIn => "serve_foldin".to_string(),
            EvalPath::StreamWarmRefit => "stream_warm".to_string(),
        }
    }
}

/// Corpus shape presets of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusShape {
    /// 3 balanced classes × 20 documents, 90 terms, 24 concepts — the
    /// quick matrix's workhorse.
    Balanced3,
    /// 5 skewed classes (6…18 documents), 120 terms, 36 concepts — the
    /// R-Min20Max200-like shape the parameter study sweeps.
    Skewed5,
    /// 3 balanced classes × 8 documents, 60 terms, 15 concepts — tiny,
    /// for unit/integration tests of the eval layer itself.
    Tiny3,
    /// 3 balanced classes × 220 documents, 150 terms, 40 concepts — the
    /// quick-mode cap of the large-shape family that gates the
    /// approximate-NN graph path end to end. The uncapped variant of
    /// this family (n ≥ 50k rows, graph build only — a dense RHCHME fit
    /// is not feasible there yet) lives in the `micro_ann` bench and the
    /// ignored extrapolation test, not the committed quick matrix.
    Large3,
}

impl CorpusShape {
    /// The generator configuration of this shape (uncorrupted, seed 0 —
    /// the runner overrides the seed and applies the corruption spec).
    pub fn config(self) -> CorpusConfig {
        match self {
            CorpusShape::Balanced3 => CorpusConfig {
                docs_per_class: vec![20, 20, 20],
                vocab_size: 90,
                concept_count: 24,
                doc_len_range: (40, 70),
                background_frac: 0.25,
                topic_noise: 0.25,
                concept_map_noise: 0.1,
                corrupt_frac: 0.0,
                // Multi-modal classes + complementary view confusion:
                // the manifold structure (Fig. 1) that separates the
                // method families — without it every method saturates
                // and the matrix gates nothing but ties.
                subtopics_per_class: 2,
                view_confusion: 0.25,
                seed: 0,
            },
            CorpusShape::Skewed5 => CorpusConfig {
                docs_per_class: vec![6, 9, 12, 15, 18],
                vocab_size: 120,
                concept_count: 36,
                doc_len_range: (40, 80),
                background_frac: 0.3,
                topic_noise: 0.3,
                concept_map_noise: 0.15,
                corrupt_frac: 0.0,
                subtopics_per_class: 1,
                view_confusion: 0.0,
                seed: 0,
            },
            CorpusShape::Tiny3 => CorpusConfig {
                docs_per_class: vec![8, 8, 8],
                vocab_size: 60,
                concept_count: 15,
                doc_len_range: (25, 40),
                background_frac: 0.25,
                topic_noise: 0.2,
                concept_map_noise: 0.1,
                corrupt_frac: 0.0,
                subtopics_per_class: 1,
                view_confusion: 0.0,
                seed: 0,
            },
            CorpusShape::Large3 => CorpusConfig {
                docs_per_class: vec![220, 220, 220],
                vocab_size: 150,
                concept_count: 40,
                doc_len_range: (40, 70),
                background_frac: 0.25,
                topic_noise: 0.25,
                concept_map_noise: 0.1,
                corrupt_frac: 0.0,
                subtopics_per_class: 2,
                view_confusion: 0.25,
                seed: 0,
            },
        }
    }
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique report key, `corruption/path` (e.g. `feature_noise/rhchme`).
    pub name: String,
    /// Corpus shape preset.
    pub shape: CorpusShape,
    /// Corruption axis and level.
    pub corruption: CorruptionSpec,
    /// Pipeline path under test.
    pub path: EvalPath,
    /// Neighbour-search backend for the path's pNN graphs (exact by
    /// default; approximate backends append their key to the name).
    pub backend: GraphBackend,
}

impl Scenario {
    /// Build a scenario with the canonical `corruption/path` key and the
    /// exact graph backend.
    pub fn new(shape: CorpusShape, corruption: CorruptionSpec, path: EvalPath) -> Self {
        Scenario {
            name: format!("{}/{}", corruption.kind.key(), path.key()),
            shape,
            corruption,
            path,
            backend: GraphBackend::Exact,
        }
    }

    /// Route the scenario's pNN graphs through `backend`. Non-exact
    /// backends get their key appended (`…/rhchme+rp_forest`) so exact
    /// and approximate cells coexist in one report.
    pub(crate) fn with_backend(mut self, backend: GraphBackend) -> Self {
        if !backend.is_exact() {
            self.name = format!("{}+{}", self.name, backend.key());
        }
        self.backend = backend;
        self
    }
}

/// The fixed seed matrix of the committed quality baseline. Deliberately
/// *not* shifted by `MTRL_SEED`: the committed `QUALITY_*.json` numbers
/// are only reproducible under the seeds they were measured with (the
/// gate pins them via the meta header).
pub const QUICK_SEEDS: [u64; 3] = [11, 23, 37];

/// The four multi-type methods the quality matrix covers.
pub(crate) const HOCC_METHODS: [Method; 4] =
    [Method::Src, Method::Snmtf, Method::Rmc, Method::Rhchme];

/// The two-way DRCC baselines the quality matrix covers: one feature
/// view, and the concatenation of both.
const DRCC_METHODS: [Method; 2] = [Method::DrT, Method::DrTC];

/// The paper-faithful quick matrix: clean vs feature-noise vs
/// relation-corruption cold fits for the two-way DR-T and DR-TC
/// baselines, all four HOCC methods *and* the consensus ensemble over
/// the latter, plus the serve fold-in and stream warm-refit paths —
/// every subsystem's quality is gated, not just the cold fit.
///
/// Known tie: at this scale RMC's learned 6-candidate ensemble settles
/// into the same label partition as SNMTF's single cosine graph on
/// every cell (same k-means init, similar healthy optima), so the RMC
/// rows duplicate SNMTF's numbers. They are kept anyway: they gate
/// RMC's *own* pipeline — a regression in its ensemble-weight
/// re-optimisation that degenerates the combined Laplacian moves RMC's
/// labels on the mid-range noisy cells and trips the gate, even though
/// a healthy RMC is indistinguishable from SNMTF here. Scenarios where
/// the two methods genuinely diverge sit near basin boundaries, which
/// is exactly where a regression gate must not live.
pub fn quick_matrix() -> Vec<Scenario> {
    let corruptions = [
        CorruptionSpec::clean(),
        CorruptionSpec::feature_noise(0.2),
        CorruptionSpec::relation_corruption(0.15),
    ];
    let mut matrix = Vec::new();
    for corruption in corruptions {
        for method in DRCC_METHODS.into_iter().chain(HOCC_METHODS) {
            matrix.push(Scenario::new(
                CorpusShape::Balanced3,
                corruption,
                EvalPath::cold_fit(method),
            ));
        }
        // The consensus-ensemble cell of the same corruption column: the
        // quality gate pins it against the best base-method sibling, so
        // a merge/generator regression that erases the ensemble's
        // robustness margin trips CI.
        matrix.push(Scenario::new(
            CorpusShape::Balanced3,
            corruption,
            EvalPath::cold_fit(MethodSpec::ensemble()),
        ));
    }
    matrix.push(Scenario::new(
        CorpusShape::Balanced3,
        CorruptionSpec::clean(),
        EvalPath::ServeFoldIn,
    ));
    matrix.push(Scenario::new(
        CorpusShape::Balanced3,
        CorruptionSpec::drift(0.4),
        EvalPath::StreamWarmRefit,
    ));
    // The large-shape ANN cells: the same cold-fit + fold-in paths, but
    // with the pNN graphs built through the RP-forest index on the
    // quick-capped large shape — the approximate graph layer is quality-
    // gated end to end, not just recall-gated.
    let ann = GraphBackend::RpForest(RpForestParams::default());
    matrix.push(
        Scenario::new(
            CorpusShape::Large3,
            CorruptionSpec::clean(),
            EvalPath::cold_fit(Method::Rhchme),
        )
        .with_backend(ann),
    );
    matrix.push(
        Scenario::new(
            CorpusShape::Large3,
            CorruptionSpec::clean(),
            EvalPath::ServeFoldIn,
        )
        .with_backend(ann),
    );
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_covers_methods_and_paths() {
        let m = quick_matrix();
        assert_eq!(m.len(), 25);
        for method in DRCC_METHODS.into_iter().chain(HOCC_METHODS) {
            assert!(
                m.iter()
                    .filter(|s| s.path == EvalPath::cold_fit(method))
                    .count()
                    >= 3,
                "{method:?} missing corruption coverage"
            );
        }
        // The consensus-ensemble cells cover every corruption column.
        for cell in [
            "clean/ensemble",
            "feature_noise/ensemble",
            "relation_corruption/ensemble",
        ] {
            assert!(m.iter().any(|s| s.name == cell), "missing {cell}");
        }
        assert!(m.iter().any(|s| s.path == EvalPath::ServeFoldIn));
        assert!(m.iter().any(|s| s.path == EvalPath::StreamWarmRefit));
        // The large-shape ANN cells gate the approximate graph path.
        let ann: Vec<_> = m.iter().filter(|s| !s.backend.is_exact()).collect();
        assert_eq!(ann.len(), 2);
        assert!(ann.iter().all(|s| s.shape == CorpusShape::Large3));
        assert!(ann.iter().any(|s| s.name == "clean/rhchme+rp_forest"));
        assert!(ann.iter().any(|s| s.name == "clean/serve_foldin+rp_forest"));
    }

    #[test]
    fn scenario_keys_are_unique() {
        let m = quick_matrix();
        for (i, a) in m.iter().enumerate() {
            for b in &m[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn keys_are_stable() {
        let s = Scenario::new(
            CorpusShape::Balanced3,
            CorruptionSpec::feature_noise(0.2),
            EvalPath::cold_fit(Method::Rhchme),
        );
        assert_eq!(s.name, "feature_noise/rhchme");
        let s = Scenario::new(
            CorpusShape::Balanced3,
            CorruptionSpec::drift(0.4),
            EvalPath::StreamWarmRefit,
        );
        assert_eq!(s.name, "drift/stream_warm");
        assert_eq!(EvalPath::cold_fit(Method::DrTC).key(), "dr_tc");
        assert_eq!(EvalPath::cold_fit(MethodSpec::ensemble()).key(), "ensemble");
    }

    #[test]
    fn shapes_generate() {
        for shape in [
            CorpusShape::Balanced3,
            CorpusShape::Skewed5,
            CorpusShape::Tiny3,
            CorpusShape::Large3,
        ] {
            let c = CorruptionSpec::clean().corpus(&shape.config(), 5);
            assert!(c.num_docs() >= 24);
            assert!(c.num_classes >= 3);
        }
    }
}
