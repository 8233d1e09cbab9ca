//! Scenario execution: drive the full pipeline and score it.
//!
//! One seed of a scenario is exactly one end-to-end run of the system
//! under test — a cold [`mtrl_ensemble::run_spec`] fit (the universal
//! [`rhchme::pipeline::MethodSpec`] dispatcher: base methods and the
//! consensus ensemble through one call), a
//! fit→export→fold-in round trip through `mtrl-serve`, or a
//! stream→drift→warm-refit cycle through `mtrl-stream` — scored with
//! [`mtrl_metrics::quality_scores`] on document labels. Everything is
//! seeded, and every kernel underneath is thread-count invariant, so a
//! scenario's numbers are bit-reproducible given `(scenario, seed)`:
//! the committed `QUALITY_*.json` baseline regenerates exactly on a
//! clean re-run of the same build.

use crate::report::{QualityReport, ReportMeta, ScenarioStats, Stat};
use crate::scenario::{EvalPath, Scenario};
use mtrl_datagen::split_corpus;
use mtrl_datagen::stream::{generate_stream, StreamBatch, StreamConfig};
use mtrl_metrics::{quality_scores, QualityScores};
use mtrl_serve::{Assigner, SparseVec};
use mtrl_stream::{RefreshPolicy, StreamSession};
use rhchme::pipeline::PipelineParams;
use rhchme::rhchme::{Rhchme, RhchmeConfig};

/// Eval-layer result: failures carry a human-readable context string.
pub(crate) type Result<T> = std::result::Result<T, String>;

/// Knobs of one matrix run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Deliberately cripple the fits — the manifold-ensemble
    /// regulariser off (λ = 0) and the sample-wise error matrix
    /// squeezed out (β → ∞, squared loss) — so the robustness machinery
    /// the matrix gates is demonstrably absent. Used to prove the
    /// quality gate *fails* when quality actually regresses
    /// (`quality_report --degrade`).
    pub degrade: bool,
}

/// Quality of one seed of one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedOutcome {
    /// The corpus/stream seed.
    pub seed: u64,
    /// Scores of the path's document labels against ground truth.
    pub scores: QualityScores,
}

/// All seeds of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario key.
    pub name: String,
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl ScenarioResult {
    /// Aggregate the per-seed outcomes into report statistics.
    pub fn stats(&self) -> ScenarioStats {
        let collect = |f: fn(&QualityScores) -> f64| -> Vec<f64> {
            self.outcomes.iter().map(|o| f(&o.scores)).collect()
        };
        ScenarioStats {
            name: self.name.clone(),
            fscore: Stat::from_values(&collect(|s| s.fscore)),
            nmi: Stat::from_values(&collect(|s| s.nmi)),
            ari: Stat::from_values(&collect(|s| s.ari)),
            seeds: self.outcomes.len(),
        }
    }
}

/// The shared quick-budget parameter bundle of the evaluation layer
/// (also what the robustness examples use, so example numbers and gated
/// numbers come from the same configuration).
pub fn quick_params(seed: u64) -> PipelineParams {
    PipelineParams {
        lambda: 1.0,
        beta: 10.0,
        max_iter: 40,
        spg_max_iter: 30,
        feature_cluster_divisor: 10,
        seed,
        ..PipelineParams::default()
    }
}

fn apply_degrade(params: &mut PipelineParams) {
    params.lambda = 0.0;
    params.beta = 1e9;
}

/// The estimator-side view of a [`PipelineParams`] bundle, for every
/// direct `Rhchme` construction in the evaluation layer (serve/stream
/// scenario paths, `determinism_probe`); delegates to the one mapping,
/// [`PipelineParams::rhchme_config`].
pub fn rhchme_config(params: &PipelineParams) -> RhchmeConfig {
    params.rhchme_config()
}

/// Run one scenario across a seed matrix.
///
/// # Errors
/// Propagates pipeline/serve/stream failures with the scenario and seed
/// named in the message.
pub fn run_scenario(
    scenario: &Scenario,
    seeds: &[u64],
    opts: &RunOptions,
) -> Result<ScenarioResult> {
    let mut outcomes = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let scores = run_seed(scenario, seed, opts)
            .map_err(|e| format!("scenario '{}' seed {seed}: {e}", scenario.name))?;
        outcomes.push(SeedOutcome { seed, scores });
    }
    Ok(ScenarioResult {
        name: scenario.name.clone(),
        outcomes,
    })
}

/// Run a whole matrix and assemble the stamped report.
///
/// # Errors
/// Propagates the first failing scenario.
pub fn run_matrix(
    scenarios: &[Scenario],
    seeds: &[u64],
    opts: &RunOptions,
) -> Result<QualityReport> {
    let mut stats = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        stats.push(run_scenario(scenario, seeds, opts)?.stats());
    }
    Ok(QualityReport {
        meta: ReportMeta::stamp(true, seeds),
        scenarios: stats,
    })
}

fn run_seed(scenario: &Scenario, seed: u64, opts: &RunOptions) -> Result<QualityScores> {
    let mut params = quick_params(seed);
    params.graph_backend = scenario.backend;
    if opts.degrade {
        apply_degrade(&mut params);
    }
    match scenario.path {
        EvalPath::ColdFit(ref spec) => {
            let corpus = scenario.corruption.corpus(&scenario.shape.config(), seed);
            let out = mtrl_ensemble::run_spec(&corpus, spec, &params).map_err(|e| e.to_string())?;
            Ok(out.quality(&corpus.labels))
        }
        EvalPath::ServeFoldIn => {
            let corpus = scenario.corruption.corpus(&scenario.shape.config(), seed);
            let (train, heldout) = split_corpus(&corpus, 0.35, seed);
            let rhchme = Rhchme::new(rhchme_config(&params));
            let result = rhchme.fit_corpus(&train).map_err(|e| e.to_string())?;
            let model = rhchme
                .export_model(&result, &train)
                .map_err(|e| e.to_string())?;
            let assigner = Assigner::new(model).map_err(|e| e.to_string())?;
            let docs: Vec<SparseVec> = heldout
                .iter()
                .map(|d| SparseVec::new(d.indices.clone(), d.values.clone()))
                .collect::<std::result::Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let posteriors = assigner.assign_batch(0, &docs).map_err(|e| e.to_string())?;
            let labels = Assigner::labels(&posteriors);
            let truth: Vec<usize> = heldout.iter().map(|d| d.label).collect();
            Ok(quality_scores(&truth, &labels))
        }
        EvalPath::StreamWarmRefit => {
            let mut base = scenario.shape.config();
            base.seed = seed;
            scenario.corruption.apply(&mut base);
            let stream_cfg = StreamConfig {
                base,
                batches: 4,
                docs_per_batch: 12,
                drift_after: scenario.corruption.drift_shift().map(|_| 2),
                drift_shift: scenario.corruption.drift_shift().unwrap_or(0.0),
            };
            let (initial, batches) = generate_stream(&stream_cfg);
            let num_terms = initial.num_terms();
            let mut session = StreamSession::new(
                initial,
                Rhchme::new(rhchme_config(&params)),
                RefreshPolicy {
                    // Triggers off: the scenario exercises the warm-refit
                    // path deterministically via refit_now below, so the
                    // gated number cannot flap on a confidence threshold.
                    every_batches: None,
                    min_confidence: None,
                    drift_cooldown: 0,
                    warm_iters: (params.max_iter / 2).max(1),
                    refresh_subspace: true,
                    reseed_confidence: None,
                },
            )
            .map_err(|e| e.to_string())?;
            for batch in &batches {
                session.push_batch(batch).map_err(|e| e.to_string())?;
            }
            session.refit_now().map_err(|e| e.to_string())?;
            // Score the drifted tail (the stale part of the stream) under
            // the refreshed model; on a clean stream, score every batch.
            let scored: Vec<&StreamBatch> = if batches.iter().any(|b| b.drifted) {
                batches.iter().filter(|b| b.drifted).collect()
            } else {
                batches.iter().collect()
            };
            let assigner = Assigner::new(session.model().clone()).map_err(|e| e.to_string())?;
            let mut truth = Vec::new();
            let mut labels = Vec::new();
            for batch in scored {
                let docs: Vec<SparseVec> = (0..batch.len())
                    .map(|i| {
                        let (idx, vals) = batch.feature_row(i, num_terms);
                        SparseVec::new(idx, vals)
                    })
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|e| e.to_string())?;
                let posteriors = assigner.assign_batch(0, &docs).map_err(|e| e.to_string())?;
                labels.extend(Assigner::labels(&posteriors));
                truth.extend_from_slice(&batch.labels);
            }
            Ok(quality_scores(&truth, &labels))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CorpusShape;
    use mtrl_datagen::CorruptionSpec;
    use rhchme::pipeline::Method;

    #[test]
    fn cold_fit_scenario_is_deterministic() {
        let s = Scenario::new(
            CorpusShape::Tiny3,
            CorruptionSpec::clean(),
            EvalPath::cold_fit(Method::Snmtf),
        );
        let a = run_scenario(&s, &[5], &RunOptions::default()).unwrap();
        let b = run_scenario(&s, &[5], &RunOptions::default()).unwrap();
        assert_eq!(a, b);
        let f = a.outcomes[0].scores.fscore;
        assert!(f > 0.5, "fscore {f}");
    }

    #[test]
    fn stats_aggregate_across_seeds() {
        let s = Scenario::new(
            CorpusShape::Tiny3,
            CorruptionSpec::clean(),
            EvalPath::cold_fit(Method::Src),
        );
        let r = run_scenario(&s, &[5, 6], &RunOptions::default()).unwrap();
        let stats = r.stats();
        assert_eq!(stats.seeds, 2);
        let mean = (r.outcomes[0].scores.fscore + r.outcomes[1].scores.fscore) / 2.0;
        assert!((stats.fscore.mean - mean).abs() < 1e-15);
    }

    #[test]
    fn serve_foldin_scenario_runs_on_tiny_corpus() {
        let s = Scenario::new(
            CorpusShape::Tiny3,
            CorruptionSpec::clean(),
            EvalPath::ServeFoldIn,
        );
        let r = run_scenario(&s, &[5], &RunOptions::default()).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.outcomes[0].scores.fscore > 0.3);
    }
}
