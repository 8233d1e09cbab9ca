//! Stream orchestration: ingest → fold-in → refresh policy → hot swap.
//!
//! [`StreamSession`] ties the pieces of the streaming subsystem
//! together for the canonical document stream:
//!
//! 1. every pushed [`StreamBatch`] is **folded in** against the current
//!    model (posteriors + confidence — the serving answer a live system
//!    would return immediately);
//! 2. the batch is appended to the accumulated corpus and inserted into
//!    the document [`DynamicGraph`] (incremental pNN maintenance — no
//!    `O(n² d)` rebuild on the hot path);
//! 3. the **refresh policy** decides whether to refit: every `k`
//!    batches, and/or drift-triggered when the batch's mean fold-in
//!    confidence drops below a floor (a drifted distribution no longer
//!    resembles any learned centroid, so max-posteriors sag);
//! 4. a refit is a **warm mini-batch refresh**: `G₀` seeded from the
//!    previous model (survivor rows copied, new rows from fold-in
//!    posteriors), the document Laplacian taken from the incrementally
//!    maintained graph, a capped iteration budget
//!    ([`rhchme::Rhchme::fit_warm`]);
//! 5. the refreshed [`FittedModel`] is **hot-swapped** into an attached
//!    [`ServeEngine`] under its registered name — in-flight requests
//!    finish against the old model, new submissions see the new one
//!    (see `ServeEngine::register`'s atomic-swap contract).
//!
//! The documents, whose feature view has fixed width
//! `terms + concepts`, are the type that streams and the type whose
//! graph is maintained incrementally, on every push. Terms and concepts
//! are fixed objects whose feature views *grow* by one column per
//! document (`[document columns | fixed vocabulary columns]`), and no
//! column ever changes once appended. Their searches resume at each
//! refit: the session keeps each vocabulary type's
//! [`mtrl_graph::PrefixSearch`] (its cross terms and squared-norm partial
//! sums over the document columns seen so far), seeded when the session
//! is created. A refit folds in only the documents appended since the
//! last one, finishes a copy with the vocabulary columns and selects the
//! neighbours; the weights come from `graph_from_neighbours` on the
//! dense rows, as in the batch build, so the graphs equal
//! `pnn_graph(&data.features(t), …)` bit for bit. Every streamed graph is
//! exact: [`StreamSession::new`] refuses an estimator configured with
//! another neighbour-search backend. A refit's stages are timed as
//! `stream.refit.graphs` (data assembly, both ensemble members and the
//! warm `G₀`), `rhchme.fit_warm` and `stream.refit.export` (model export
//! and hot swap).

use crate::dynamic::{DynamicGraph, DynamicGraphConfig};
use crate::error::StreamError;
use crate::warm::{grown_survivors, warm_membership_opts, WarmOptions};
use mtrl_datagen::stream::{append_batch, StreamBatch};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_graph::{graph_from_neighbours, laplacian_csr, PrefixSearch};
use mtrl_linalg::Mat;
use mtrl_serve::{Assigner, ServeEngine, SparseVec};
use mtrl_sparse::SparseBlockDiag;
use rhchme::export::FittedModel;
use rhchme::intra::{hetero_laplacian, subspace_laplacians};
use rhchme::pipeline::{Artifacts, Method};
use rhchme::rhchme::WarmStart;
use rhchme::{MultiTypeData, Rhchme, RhchmeResult};
use std::sync::Arc;

/// When to refresh the model.
#[derive(Debug, Clone)]
pub struct RefreshPolicy {
    /// Refit after this many batches since the last refresh (`None`
    /// disables the cadence trigger).
    pub every_batches: Option<usize>,
    /// Drift trigger: refit when a batch's mean fold-in confidence
    /// (mean max-posterior) falls below this floor (`None` disables).
    pub min_confidence: Option<f64>,
    /// Batches to suppress the drift trigger for after any refit.
    /// Under *sustained* drift the confidence floor would otherwise
    /// refit on every single batch — each refit incorporates the new
    /// evidence, but it also re-densifies the growing term/concept views
    /// and runs the engine over the whole corpus, so per-batch cost
    /// scales with corpus size. `0` (the default)
    /// keeps the maximally adaptive behaviour; raise it to bound the
    /// refresh rate during long drifts. The cadence trigger is not
    /// affected.
    pub drift_cooldown: usize,
    /// Iteration cap of a warm refit (a cold fit runs the full
    /// `RhchmeConfig::max_iter`).
    pub warm_iters: usize,
    /// Recompute the subspace ensemble member `L_S` on refresh. SPG is
    /// the expensive stage; `false` (the streaming default) refreshes
    /// against the pNN member alone, which the incremental graphs
    /// provide for free.
    pub refresh_subspace: bool,
    /// Partial-reseed floor for warm refits: rows whose fold-in
    /// max-posterior falls below this value are reseeded from
    /// drift-tracking k-means (Lloyd from the model's own centroids)
    /// instead of inheriting the stale basin (the warm path's
    /// `reseed_confidence` option). `None` (the default) keeps the plain
    /// warm path.
    pub reseed_confidence: Option<f64>,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            every_batches: None,
            min_confidence: Some(0.5),
            drift_cooldown: 0,
            warm_iters: 15,
            refresh_subspace: false,
            reseed_confidence: None,
        }
    }
}

/// What triggered a refit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitTrigger {
    /// The `every_batches` cadence.
    Cadence,
    /// Fold-in confidence fell below the policy floor.
    Drift,
    /// Explicit [`StreamSession::refit_now`] call.
    Manual,
}

/// Outcome of one (warm) refit.
#[derive(Debug, Clone)]
pub struct RefitReport {
    /// Why the refit ran.
    pub trigger: RefitTrigger,
    /// Multiplicative-update iterations the warm refresh performed.
    pub iterations: usize,
    /// Final objective value of the refresh.
    pub final_objective: f64,
    /// Documents in the corpus the model is now fitted on.
    pub corpus_docs: usize,
}

/// Outcome of one [`StreamSession::push_batch`].
#[derive(Debug, Clone)]
pub struct PushReport {
    /// Fold-in hard labels of the batch, in order (the serving answer).
    pub labels: Vec<usize>,
    /// Mean max-posterior of the batch under the pre-push model.
    pub mean_confidence: f64,
    /// The refit this push triggered, if any.
    pub refit: Option<RefitReport>,
}

/// What the refresh policy decided for one pushed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDecision {
    /// A refit ran, for this reason.
    Refit(RefitTrigger),
    /// Confidence fell below the drift floor, but the cooldown
    /// suppressed the refit.
    CooldownSuppressed,
    /// No trigger fired.
    NoTrigger,
}

/// Per-batch observables of one [`StreamSession::push_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTelemetry {
    /// 1-based batch index over the session's lifetime.
    pub batch: usize,
    /// Documents in the batch.
    pub docs: usize,
    /// Mean fold-in max-posterior under the pre-push model.
    pub mean_confidence: f64,
    /// The policy's decision for this batch.
    pub decision: RefreshDecision,
    /// Whether inserting the batch tripped the document graph's rebuild
    /// threshold, so the graph was rebuilt from scratch.
    pub graph_rebuilt: bool,
}

/// Accumulated session telemetry, exposed by
/// [`StreamSession::telemetry`] — the machine-readable version of what
/// `stream_demo` used to print. Always tracked (it is a handful of
/// counters and one small struct per batch), independent of `MTRL_OBS`.
#[derive(Debug, Clone, Default)]
pub struct SessionTelemetry {
    /// One entry per pushed batch, in order.
    pub batches: Vec<BatchTelemetry>,
    /// Refits triggered by the confidence floor.
    pub drift_refits: usize,
    /// Refits triggered by the batch cadence.
    pub cadence_refits: usize,
    /// Refits forced via [`StreamSession::refit_now`].
    pub manual_refits: usize,
    /// Warm refits that ran with partial reseeding enabled
    /// ([`RefreshPolicy::reseed_confidence`] set).
    pub reseed_refits: usize,
    /// Warm refits on the plain (no-reseed) path.
    pub plain_warm_refits: usize,
    /// Multiplicative-update iterations summed over all warm refits
    /// (each capped at [`RefreshPolicy::warm_iters`]).
    pub total_warm_iterations: usize,
    /// Models hot-swapped into an attached [`ServeEngine`].
    pub hot_swaps: usize,
    /// Pushes whose insert tripped the document graph's rebuild
    /// threshold ([`BatchTelemetry::graph_rebuilt`]).
    pub graph_rebuilds: usize,
}

impl SessionTelemetry {
    /// Total refits, over all triggers.
    pub fn total_refits(&self) -> usize {
        self.drift_refits + self.cadence_refits + self.manual_refits
    }

    /// Batches whose drift trigger was suppressed by the cooldown.
    pub fn cooldown_suppressed(&self) -> usize {
        self.batches
            .iter()
            .filter(|b| b.decision == RefreshDecision::CooldownSuppressed)
            .count()
    }
}

fn trigger_name(trigger: RefitTrigger) -> &'static str {
    match trigger {
        RefitTrigger::Cadence => "cadence",
        RefitTrigger::Drift => "drift",
        RefitTrigger::Manual => "manual",
    }
}

/// A live streaming session over one growing corpus.
pub struct StreamSession {
    rhchme: Rhchme,
    policy: RefreshPolicy,
    corpus: MultiTypeCorpus,
    doc_graph: DynamicGraph,
    assigner: Arc<Assigner>,
    last_result: RhchmeResult,
    engine: Option<(Arc<ServeEngine>, String)>,
    /// Per vocabulary type (types `1..`), its resumable exact search over
    /// the document columns seen so far.
    vocab_searches: Vec<PrefixSearch>,
    batches_since_refit: usize,
    total_batches: usize,
    telemetry: SessionTelemetry,
}

impl StreamSession {
    /// Cold-fit `rhchme` on the initial corpus and stand the session up
    /// around the fitted model.
    ///
    /// # Errors
    /// [`StreamError::Invalid`] when `rhchme` is configured with a
    /// neighbour-search backend other than the exact one (a session
    /// maintains exact graphs only); otherwise propagates fit and export
    /// errors.
    pub fn new(
        initial: MultiTypeCorpus,
        rhchme: Rhchme,
        policy: RefreshPolicy,
    ) -> Result<Self, StreamError> {
        let backend = rhchme.config().graph_backend;
        if !backend.is_exact() {
            return Err(StreamError::Invalid(format!(
                "a stream session maintains exact graphs only, not the {} backend",
                backend.key()
            )));
        }
        // The fit's staged feature views seed the graphs; the rest of
        // its staging (`R`, `L_E`) is dropped here.
        let data = Method::Rhchme.data(&initial, rhchme.config())?;
        let (result, Artifacts { features, .. }) = rhchme.fit_staged(data)?;
        let model = rhchme.export_model(&result)?;
        let doc_graph = DynamicGraph::new(
            &features[0],
            DynamicGraphConfig {
                p: rhchme.config().p,
                scheme: rhchme.config().weight_scheme,
                ..DynamicGraphConfig::default()
            },
        );
        let sizes = result.data.sizes();
        let vocab_searches = (1..sizes.len())
            .map(|t| {
                let mut search = PrefixSearch::new(sizes[t]);
                search.fold(&features[t], sizes[0]);
                search
            })
            .collect();
        let assigner = Arc::new(Assigner::new(model)?);
        Ok(StreamSession {
            rhchme,
            policy,
            corpus: initial,
            doc_graph,
            assigner,
            last_result: result,
            engine: None,
            vocab_searches,
            batches_since_refit: 0,
            total_batches: 0,
            telemetry: SessionTelemetry::default(),
        })
    }

    /// Register the current model with a serving engine under `name`;
    /// every future refit hot-swaps the refreshed model in.
    ///
    /// # Errors
    /// Propagates registration errors.
    pub fn attach_engine(
        &mut self,
        engine: Arc<ServeEngine>,
        name: impl Into<String>,
    ) -> Result<(), StreamError> {
        let name = name.into();
        // Zero-copy: the engine shares the session's already-validated
        // assigner instead of cloning and re-validating the model.
        engine.register_shared(name.clone(), Arc::clone(&self.assigner));
        self.engine = Some((engine, name));
        Ok(())
    }

    /// The current fitted model.
    pub fn model(&self) -> &FittedModel {
        self.assigner.model()
    }

    /// The most recent fit result (cold fit at construction, then each
    /// refresh).
    pub fn last_result(&self) -> &RhchmeResult {
        &self.last_result
    }

    /// The accumulated corpus.
    pub fn corpus(&self) -> &MultiTypeCorpus {
        &self.corpus
    }

    /// The incrementally maintained document graph.
    pub fn doc_graph(&self) -> &DynamicGraph {
        &self.doc_graph
    }

    /// Accumulated session telemetry: per-batch fold-in confidence and
    /// refresh decisions, refit counts by trigger, warm-vs-reseed
    /// split, warm-iteration totals and hot-swap count.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Ingest one batch: fold in (serving answer), append to the
    /// corpus, update the document graph, and refit if the policy says
    /// so.
    ///
    /// # Errors
    /// Propagates fold-in and refit errors; a batch with mismatched
    /// per-document row counts is rejected as [`StreamError::Invalid`].
    pub fn push_batch(&mut self, batch: &StreamBatch) -> Result<PushReport, StreamError> {
        let _span = mtrl_obs::span!("stream.push_batch");
        if batch.doc_term.len() != batch.len() || batch.doc_concept.len() != batch.len() {
            return Err(StreamError::Invalid(format!(
                "batch rows mismatch: {} terms / {} concepts / {} labels",
                batch.doc_term.len(),
                batch.doc_concept.len(),
                batch.len()
            )));
        }
        let num_terms = self.corpus.num_terms();
        // 1. Fold in against the current model — the serving answer.
        let docs: Vec<SparseVec> = (0..batch.len())
            .map(|i| {
                let (indices, values) = batch.feature_row(i, num_terms);
                SparseVec::new(indices, values)
            })
            .collect::<Result<_, _>>()?;
        let posteriors = self.assigner.assign_batch(0, &docs)?;
        let labels = Assigner::labels(&posteriors);
        let mean_confidence = if posteriors.is_empty() {
            1.0
        } else {
            posteriors
                .iter()
                .map(|p| p.iter().cloned().fold(0.0, f64::max))
                .sum::<f64>()
                / posteriors.len() as f64
        };

        // 2. Accumulate: corpus rows + incremental graph insertion.
        append_batch(&mut self.corpus, batch);
        let dense_rows: Vec<Vec<f64>> = docs
            .iter()
            .map(|d| {
                let mut row = vec![0.0; self.doc_graph.dim()];
                for (&j, &v) in d.indices.iter().zip(&d.values) {
                    row[j] = v;
                }
                row
            })
            .collect();
        let mut graph_rebuilt = false;
        if !dense_rows.is_empty() {
            let mat =
                Mat::from_rows(&dense_rows).map_err(|e| StreamError::Invalid(e.to_string()))?;
            graph_rebuilt = self.doc_graph.insert_batch(&mat).rebuilt;
        }
        self.telemetry.graph_rebuilds += usize::from(graph_rebuilt);
        self.total_batches += 1;
        self.batches_since_refit += 1;

        // 3. Policy. The drift trigger honours the cooldown (counted in
        // batches since the last refit of any kind); the cadence
        // trigger does not.
        let below_floor = self
            .policy
            .min_confidence
            .is_some_and(|floor| mean_confidence < floor);
        let drift = below_floor && self.batches_since_refit > self.policy.drift_cooldown;
        let cadence = self
            .policy
            .every_batches
            .is_some_and(|k| self.batches_since_refit >= k);
        let decision = if drift {
            RefreshDecision::Refit(RefitTrigger::Drift)
        } else if cadence {
            RefreshDecision::Refit(RefitTrigger::Cadence)
        } else if below_floor {
            RefreshDecision::CooldownSuppressed
        } else {
            RefreshDecision::NoTrigger
        };
        self.telemetry.batches.push(BatchTelemetry {
            batch: self.total_batches,
            docs: batch.len(),
            mean_confidence,
            decision,
            graph_rebuilt,
        });
        if mtrl_obs::enabled() {
            let reg = mtrl_obs::global();
            reg.add("stream.batches", 1);
            reg.add("stream.graph_rebuilds", u64::from(graph_rebuilt));
            reg.set_gauge("stream.last_confidence", mean_confidence);
            if drift {
                reg.record_event(mtrl_obs::StreamEvent {
                    kind: "drift_trigger".to_string(),
                    label: format!("batch {}", self.total_batches),
                    value: mean_confidence,
                });
            }
        }
        let refit = match decision {
            RefreshDecision::Refit(trigger) => Some(self.refit(trigger)?),
            _ => None,
        };
        Ok(PushReport {
            labels,
            mean_confidence,
            refit,
        })
    }

    /// Force a refresh outside the policy.
    ///
    /// # Errors
    /// Propagates refit errors.
    pub fn refit_now(&mut self) -> Result<RefitReport, StreamError> {
        self.refit(RefitTrigger::Manual)
    }

    /// The refit's pNN member `L_E`: the document block comes from the
    /// incrementally maintained graph; each vocabulary block folds the
    /// documents appended since the last refit into its [`PrefixSearch`]
    /// and finishes the search from there.
    fn pnn_member(&mut self, data: &MultiTypeData) -> Result<SparseBlockDiag, StreamError> {
        let cfg = self.rhchme.config();
        let docs = data.sizes()[0];
        let mut blocks = vec![self.doc_graph.laplacian(cfg.laplacian_kind)];
        for (t, search) in (1..data.num_types()).zip(&mut self.vocab_searches) {
            let features = data.features(t);
            search.fold(&features, docs);
            let neighbours: Vec<Vec<usize>> = search
                .p_nearest(&features, cfg.p)
                .into_iter()
                .map(|list| {
                    let mut ids: Vec<usize> = list.into_iter().map(|(_, j)| j).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            // The weights do not depend on the worker count, and a
            // vocabulary type's few rows need one.
            let w = graph_from_neighbours(&features, &neighbours, cfg.weight_scheme, 1);
            blocks.push(laplacian_csr(&w, cfg.laplacian_kind));
        }
        SparseBlockDiag::new(blocks)
            .map_err(|e| StreamError::Invalid(format!("laplacian block assembly failed: {e}")))
    }

    /// Everything a warm refit feeds the engine, timed as
    /// `stream.refit.graphs`: the grown corpus's data, the ensemble
    /// Laplacian (the pNN member, plus the subspace member when the
    /// policy refreshes it) and the warm `G₀`.
    fn refit_inputs(&mut self) -> Result<(MultiTypeData, SparseBlockDiag, Mat), StreamError> {
        let _span = mtrl_obs::span!("stream.refit.graphs");
        let cfg = self.rhchme.config().clone();
        let data = Method::Rhchme.data(&self.corpus, &cfg)?;
        let l_e = self.pnn_member(&data)?;
        let l = if self.policy.refresh_subspace {
            let l_s =
                subspace_laplacians(&data.all_features(), &cfg.spg_config(), cfg.laplacian_kind)?;
            hetero_laplacian(&l_s, &l_e, cfg.alpha)?
        } else {
            l_e
        };
        let survivors = grown_survivors(&self.model().sizes, data.sizes());
        let g0 = warm_membership_opts(
            &data,
            &self.assigner,
            &survivors,
            &WarmOptions {
                reseed_confidence: self.policy.reseed_confidence,
                ..WarmOptions::default()
            },
        )?;
        Ok((data, l, g0))
    }

    /// The warm mini-batch refresh (step 4 of the module docs).
    fn refit(&mut self, trigger: RefitTrigger) -> Result<RefitReport, StreamError> {
        let _span = mtrl_obs::span!("stream.refit");
        let (data, l, g0) = self.refit_inputs()?;
        let result = self.rhchme.fit_warm(
            &data,
            WarmStart {
                g0,
                laplacian: l,
                max_iter: self.policy.warm_iters,
            },
        )?;
        let swapped = {
            let _span = mtrl_obs::span!("stream.refit.export");
            let model = self.rhchme.export_model(&result)?;
            // 5. Atomic hot swap: one validated assigner is built and
            // shared between the session and the attached engine
            // (ServeEngine::register_shared replaces in one map insert;
            // in-flight requests finish on the old model).
            self.assigner = Arc::new(Assigner::new(model)?);
            if let Some((engine, name)) = &self.engine {
                engine.register_shared(name.clone(), Arc::clone(&self.assigner));
                true
            } else {
                false
            }
        };
        let report = RefitReport {
            trigger,
            iterations: result.iterations,
            final_objective: *result.objective_trace.last().unwrap_or(&f64::NAN),
            corpus_docs: self.corpus.num_docs(),
        };
        match trigger {
            RefitTrigger::Cadence => self.telemetry.cadence_refits += 1,
            RefitTrigger::Drift => self.telemetry.drift_refits += 1,
            RefitTrigger::Manual => self.telemetry.manual_refits += 1,
        }
        if self.policy.reseed_confidence.is_some() {
            self.telemetry.reseed_refits += 1;
        } else {
            self.telemetry.plain_warm_refits += 1;
        }
        self.telemetry.total_warm_iterations += result.iterations;
        if swapped {
            self.telemetry.hot_swaps += 1;
        }
        if mtrl_obs::enabled() {
            let reg = mtrl_obs::global();
            reg.add(&format!("stream.refit.{}", trigger_name(trigger)), 1);
            if self.policy.reseed_confidence.is_some() {
                reg.add("stream.reseed_refits", 1);
            }
            reg.set_gauge("stream.warm_iter_budget", self.policy.warm_iters as f64);
            reg.record_event(mtrl_obs::StreamEvent {
                kind: "refit".to_string(),
                label: trigger_name(trigger).to_string(),
                value: result.iterations as f64,
            });
            if swapped {
                reg.add("stream.hot_swap", 1);
                reg.record_event(mtrl_obs::StreamEvent {
                    kind: "hot_swap".to_string(),
                    label: self
                        .engine
                        .as_ref()
                        .map(|(_, name)| name.clone())
                        .unwrap_or_default(),
                    value: self.corpus.num_docs() as f64,
                });
            }
        }
        self.last_result = result;
        self.batches_since_refit = 0;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::stream::{generate_stream, StreamConfig};
    use mtrl_datagen::CorpusConfig;
    use mtrl_graph::{pnn_graph, CentredRows, GraphBackend, WeightScheme};
    use rhchme::RhchmeConfig;

    fn stream_cfg() -> StreamConfig {
        StreamConfig {
            base: CorpusConfig {
                docs_per_class: vec![10, 10, 10],
                vocab_size: 90,
                concept_count: 30,
                doc_len_range: (30, 50),
                background_frac: 0.3,
                topic_noise: 0.2,
                concept_map_noise: 0.1,
                corrupt_frac: 0.0,
                subtopics_per_class: 1,
                view_confusion: 0.0,
                seed: 130,
            },
            batches: 3,
            docs_per_batch: 6,
            drift_after: None,
            drift_shift: 0.0,
        }
    }

    fn fast_rhchme() -> Rhchme {
        Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        })
    }

    #[test]
    fn session_accumulates_and_serves() {
        let (initial, batches) = generate_stream(&stream_cfg());
        let mut session = StreamSession::new(
            initial,
            fast_rhchme(),
            RefreshPolicy {
                every_batches: None,
                min_confidence: None,
                ..RefreshPolicy::default()
            },
        )
        .unwrap();
        let docs0 = session.corpus().num_docs();
        for batch in &batches {
            let report = session.push_batch(batch).unwrap();
            assert_eq!(report.labels.len(), 6);
            assert!(report.mean_confidence > 0.0 && report.mean_confidence <= 1.0);
            assert!(report.refit.is_none());
        }
        assert_eq!(session.corpus().num_docs(), docs0 + 18);
        assert_eq!(session.doc_graph().graph().rows(), docs0 + 18);
        assert_eq!(session.batches_since_refit, 3);
        // Stationary, clean batches fold in with decent accuracy.
        let mut agree = 0;
        let mut total = 0;
        for batch in &batches {
            let report_labels = session
                .assigner
                .assign_batch(
                    0,
                    &(0..batch.len())
                        .map(|i| {
                            let (idx, vals) = batch.feature_row(i, session.corpus().num_terms());
                            SparseVec::new(idx, vals).unwrap()
                        })
                        .collect::<Vec<_>>(),
                )
                .unwrap();
            let labels = Assigner::labels(&report_labels);
            let f = mtrl_metrics::fscore(&batch.labels, &labels);
            assert!(f.is_finite());
            agree += (f * 100.0) as usize;
            total += 1;
        }
        assert!(agree / total > 50, "mean fold-in F {agree}/{total}");
    }

    #[test]
    fn cadence_policy_triggers_warm_refit_and_swaps_engine() {
        let (initial, batches) = generate_stream(&stream_cfg());
        let mut session = StreamSession::new(
            initial,
            fast_rhchme(),
            RefreshPolicy {
                every_batches: Some(2),
                min_confidence: None,
                drift_cooldown: 0,
                warm_iters: 8,
                refresh_subspace: false,
                reseed_confidence: None,
            },
        )
        .unwrap();
        let engine = Arc::new(ServeEngine::new(2));
        session.attach_engine(Arc::clone(&engine), "live").unwrap();
        let d0 = engine
            .assign("live", 0, vec![SparseVec::from_dense(&[0.5; 120])])
            .unwrap();
        assert_eq!(d0.posteriors.len(), 1);

        let r1 = session.push_batch(&batches[0]).unwrap();
        assert!(r1.refit.is_none());
        let r2 = session.push_batch(&batches[1]).unwrap();
        let refit = r2.refit.expect("cadence refit after 2 batches");
        assert_eq!(refit.trigger, RefitTrigger::Cadence);
        assert!(refit.iterations <= 8);
        assert_eq!(refit.corpus_docs, 30 + 12);
        assert_eq!(session.batches_since_refit, 0);
        // The refreshed model covers the grown corpus and is live in
        // the engine.
        assert_eq!(session.model().sizes[0], 42);
        assert!(engine
            .assign("live", 0, vec![SparseVec::from_dense(&[0.5; 120])])
            .is_ok());
        let tel = session.telemetry();
        assert_eq!(tel.batches.len(), 2);
        assert_eq!(tel.batches[0].decision, RefreshDecision::NoTrigger);
        assert_eq!(
            tel.batches[1].decision,
            RefreshDecision::Refit(RefitTrigger::Cadence)
        );
        assert_eq!(tel.cadence_refits, 1);
        assert_eq!(tel.plain_warm_refits, 1);
        assert_eq!(tel.hot_swaps, 1);
        assert!(tel.total_warm_iterations >= 1 && tel.total_warm_iterations <= 8);
    }

    #[test]
    fn telemetry_counts_threshold_rebuilds_of_the_document_graph() {
        let (initial, batches) = generate_stream(&StreamConfig {
            batches: 6,
            ..stream_cfg()
        });
        let mut session = StreamSession::new(
            initial,
            fast_rhchme(),
            RefreshPolicy {
                every_batches: None,
                min_confidence: None,
                ..RefreshPolicy::default()
            },
        )
        .unwrap();
        for batch in &batches {
            session.push_batch(batch).unwrap();
            let rebuilt = session.telemetry().batches.last().unwrap().graph_rebuilt;
            // A rebuild resets the patched fraction; an insert that
            // patches rows without tripping the threshold leaves it up.
            assert_eq!(rebuilt, session.doc_graph().patched_fraction() == 0.0);
        }
        let tel = session.telemetry();
        let flagged = tel.batches.iter().filter(|b| b.graph_rebuilt).count();
        assert!(flagged > 0, "no push tripped the rebuild threshold");
        assert!(flagged < batches.len(), "every push rebuilt");
        assert_eq!(tel.graph_rebuilds, flagged);
    }

    #[test]
    fn telemetry_tracks_decisions_and_refit_counts() {
        let (initial, batches) = generate_stream(&stream_cfg());
        let mut session = StreamSession::new(
            initial,
            fast_rhchme(),
            RefreshPolicy {
                every_batches: None,
                // A floor above 1.0 marks every batch "below floor", so
                // the cooldown interaction is deterministic.
                min_confidence: Some(2.0),
                drift_cooldown: 1,
                warm_iters: 5,
                refresh_subspace: false,
                reseed_confidence: None,
            },
        )
        .unwrap();
        let r1 = session.push_batch(&batches[0]).unwrap();
        assert!(r1.refit.is_none(), "cooldown must suppress the first push");
        let r2 = session.push_batch(&batches[1]).unwrap();
        assert_eq!(r2.refit.expect("drift refit").trigger, RefitTrigger::Drift);
        session.refit_now().unwrap();
        let tel = session.telemetry();
        assert_eq!(tel.batches.len(), 2);
        assert_eq!(tel.batches[0].decision, RefreshDecision::CooldownSuppressed);
        assert_eq!(
            tel.batches[1].decision,
            RefreshDecision::Refit(RefitTrigger::Drift)
        );
        assert_eq!(tel.batches[0].batch, 1);
        assert_eq!(tel.batches[0].docs, 6);
        assert!(tel.batches[0].mean_confidence > 0.0);
        assert_eq!(tel.drift_refits, 1);
        assert_eq!(tel.manual_refits, 1);
        assert_eq!(tel.cadence_refits, 0);
        assert_eq!(tel.total_refits(), 2);
        assert_eq!(tel.cooldown_suppressed(), 1);
        assert_eq!(tel.plain_warm_refits, 2);
        assert_eq!(tel.reseed_refits, 0);
        assert_eq!(tel.hot_swaps, 0, "no engine attached");
        assert!(tel.total_warm_iterations >= 2);
    }

    #[test]
    fn zero_p_session_streams_and_refits_on_empty_graphs() {
        // `p = 0` fits in batch (every pNN graph is empty), so the
        // session built on it must stream and refit too.
        let (initial, batches) = generate_stream(&stream_cfg());
        let mut session = StreamSession::new(
            initial,
            Rhchme::new(RhchmeConfig {
                lambda: 1.0,
                p: 0,
                ..RhchmeConfig::fast()
            }),
            RefreshPolicy {
                every_batches: None,
                min_confidence: None,
                warm_iters: 5,
                ..RefreshPolicy::default()
            },
        )
        .unwrap();
        for batch in &batches {
            let report = session.push_batch(batch).unwrap();
            assert_eq!(report.labels.len(), batch.len());
        }
        let graph = session.doc_graph().graph();
        assert_eq!(graph.rows(), 30 + 18);
        assert_eq!(graph.nnz(), 0);
        let report = session.refit_now().unwrap();
        assert_eq!(report.corpus_docs, 48);
        assert!(report.iterations >= 1 && report.iterations <= 5);
        assert!(report.final_objective.is_finite());
    }

    #[test]
    fn manual_refit_reports() {
        let (initial, batches) = generate_stream(&stream_cfg());
        let mut session = StreamSession::new(
            initial,
            fast_rhchme(),
            RefreshPolicy {
                every_batches: None,
                min_confidence: None,
                drift_cooldown: 0,
                warm_iters: 5,
                refresh_subspace: false,
                reseed_confidence: None,
            },
        )
        .unwrap();
        session.push_batch(&batches[0]).unwrap();
        let report = session.refit_now().unwrap();
        assert_eq!(report.trigger, RefitTrigger::Manual);
        assert!(report.iterations <= 5 && report.iterations >= 1);
        assert!(report.final_objective.is_finite());
    }

    fn csr_bits(m: &mtrl_sparse::Csr) -> Vec<(usize, usize, u64)> {
        m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    }

    fn list_bits(lists: Vec<Vec<(f64, usize)>>) -> Vec<Vec<(u64, usize)>> {
        lists
            .into_iter()
            .map(|l| l.into_iter().map(|(v, j)| (v.to_bits(), j)).collect())
            .collect()
    }

    fn mat_bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `batch` with only its rows in `range`.
    fn batch_rows(batch: &StreamBatch, range: std::ops::Range<usize>) -> StreamBatch {
        StreamBatch {
            doc_term: batch.doc_term[range.clone()].to_vec(),
            doc_concept: batch.doc_concept[range.clone()].to_vec(),
            labels: batch.labels[range].to_vec(),
            ..batch.clone()
        }
    }

    #[test]
    fn vocabulary_graphs_equal_the_batch_build_after_every_push() {
        let (initial, batches) = generate_stream(&StreamConfig {
            batches: 2,
            docs_per_batch: 30,
            drift_after: Some(1),
            drift_shift: 0.4,
            ..stream_cfg()
        });
        // Pushes of 1 document, an empty batch, and 30 documents, with
        // cadence refits folding in between.
        let pushes = [
            batch_rows(&batches[0], 0..1),
            batch_rows(&batches[0], 1..1),
            batch_rows(&batches[0], 1..30),
            batches[1].clone(),
        ];
        let schemes = [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ];
        for p in [0, 1, 5, 10] {
            for scheme in schemes {
                let mut session = StreamSession::new(
                    initial.clone(),
                    Rhchme::new(RhchmeConfig {
                        lambda: 1.0,
                        p,
                        weight_scheme: scheme,
                        ..RhchmeConfig::fast()
                    }),
                    RefreshPolicy {
                        every_batches: Some(2),
                        min_confidence: None,
                        warm_iters: 3,
                        ..RefreshPolicy::default()
                    },
                )
                .unwrap();
                for batch in &pushes {
                    session.push_batch(batch).unwrap();
                    let cfg = session.rhchme.config().clone();
                    let data =
                        MultiTypeData::from_corpus(session.corpus(), cfg.feature_cluster_divisor)
                            .unwrap();
                    let l_e = session.pnn_member(&data).unwrap();
                    for t in 1..data.num_types() {
                        let features = data.features(t);
                        let search = &session.vocab_searches[t - 1];
                        assert_eq!(
                            list_bits(search.p_nearest(&features, p)),
                            list_bits(CentredRows::new(&features).p_nearest(p)),
                            "p {p}, {scheme:?}, type {t}: neighbour lists"
                        );
                        let w = pnn_graph(&features, p, scheme, &GraphBackend::Exact);
                        assert_eq!(
                            csr_bits(l_e.block(t)),
                            csr_bits(&laplacian_csr(&w, cfg.laplacian_kind)),
                            "p {p}, {scheme:?}, type {t}: graph"
                        );
                    }
                }
                assert_eq!(session.telemetry().cadence_refits, 2);
            }
        }
    }

    /// A warm refit as it ran before the vocabulary searches resumed:
    /// every term/concept graph rebuilt by `pnn_graph`, the rest as
    /// [`StreamSession::refit`].
    fn rebuilt_refit(session: &StreamSession) -> RhchmeResult {
        let cfg = session.rhchme.config().clone();
        let data =
            MultiTypeData::from_corpus(session.corpus(), cfg.feature_cluster_divisor).unwrap();
        let mut blocks = vec![session.doc_graph().laplacian(cfg.laplacian_kind)];
        for t in 1..data.num_types() {
            let w = pnn_graph(
                &data.features(t),
                cfg.p,
                cfg.weight_scheme,
                &GraphBackend::Exact,
            );
            blocks.push(laplacian_csr(&w, cfg.laplacian_kind));
        }
        let l_e = SparseBlockDiag::new(blocks).unwrap();
        let l = if session.policy.refresh_subspace {
            let l_s =
                subspace_laplacians(&data.all_features(), &cfg.spg_config(), cfg.laplacian_kind)
                    .unwrap();
            hetero_laplacian(&l_s, &l_e, cfg.alpha).unwrap()
        } else {
            l_e
        };
        let survivors = grown_survivors(&session.model().sizes, data.sizes());
        let g0 = warm_membership_opts(
            &data,
            &session.assigner,
            &survivors,
            &WarmOptions {
                reseed_confidence: session.policy.reseed_confidence,
                ..WarmOptions::default()
            },
        )
        .unwrap();
        session
            .rhchme
            .fit_warm(
                &data,
                WarmStart {
                    g0,
                    laplacian: l,
                    max_iter: session.policy.warm_iters,
                },
            )
            .unwrap()
    }

    #[test]
    fn refits_equal_the_rebuilt_path_on_every_member() {
        let (initial, batches) = generate_stream(&stream_cfg());
        for refresh_subspace in [false, true] {
            let mut session = StreamSession::new(
                initial.clone(),
                fast_rhchme(),
                RefreshPolicy {
                    every_batches: None,
                    min_confidence: None,
                    warm_iters: 4,
                    refresh_subspace,
                    ..RefreshPolicy::default()
                },
            )
            .unwrap();
            for batch in &batches {
                session.push_batch(batch).unwrap();
                let expected = rebuilt_refit(&session);
                session.refit_now().unwrap();
                let got = session.last_result();
                let case = format!("refresh_subspace {refresh_subspace}");
                assert_eq!(mat_bits(&got.g), mat_bits(&expected.g), "{case}: G");
                assert_eq!(mat_bits(&got.s), mat_bits(&expected.s), "{case}: S");
                let trace = |r: &RhchmeResult| -> Vec<u64> {
                    r.objective_trace.iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(trace(got), trace(&expected), "{case}: objective");
            }
        }
    }

    #[test]
    fn an_approximate_backend_is_a_typed_error() {
        use mtrl_graph::RpForestParams;
        let (initial, _) = generate_stream(&stream_cfg());
        let out = StreamSession::new(
            initial,
            Rhchme::new(RhchmeConfig {
                lambda: 1.0,
                graph_backend: GraphBackend::RpForest(RpForestParams::default()),
                ..RhchmeConfig::fast()
            }),
            RefreshPolicy::default(),
        );
        match out {
            Err(StreamError::Invalid(msg)) => assert!(msg.contains("rp_forest"), "{msg}"),
            Err(other) => panic!("expected StreamError::Invalid, got {other:?}"),
            Ok(_) => panic!("a stream session started on the rp-forest backend"),
        }
    }
}
