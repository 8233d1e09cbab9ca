//! # mtrl-stream
//!
//! The streaming subsystem of the RHCHME reproduction: keep a fitted
//! model fresh while objects arrive continuously, without choosing
//! between "never update" (pure fold-in serving) and "rebuild
//! everything" (cold refit).
//!
//! Three layers, bottom up:
//!
//! * `dynamic` — [`DynamicGraph`]: incremental pNN maintenance.
//!   Inserting a batch costs `O(b · n · d)` blocked-Gram work (the new
//!   rows against the corpus) plus reverse-edge patches, instead of the
//!   `O(n² d)` batch rebuild; a rebuild-threshold policy guards
//!   heavily rewritten graphs.
//! * `warm` — [`warm_membership`]: seed the next fit's `G₀` from the
//!   previous [`mtrl_serve::FittedModel`] (survivor rows copied, new
//!   rows from fold-in posteriors), consumed by
//!   [`rhchme::Rhchme::fit_warm`]'s capped-iteration refresh.
//! * `session` — [`StreamSession`]: per-batch fold-in, corpus
//!   accumulation, a refresh policy (cadence and/or drift-triggered via
//!   fold-in confidence), and atomic hot-swap of each refreshed model
//!   into a live [`mtrl_serve::ServeEngine`].
//!
//! A warm refit redoes only what the new documents change. The
//! document graph is maintained on every push, and the term and concept
//! searches resume: their feature views only gain
//! document columns, so each keeps a [`mtrl_graph::PrefixSearch`] of
//! its sums over the columns seen so far, seeded when the session is
//! created, and a refit folds in the documents appended since the last
//! one before it finishes the search with the fixed vocabulary columns.
//! Every graph is exact and equals the batch `pnn_graph` bit for bit;
//! [`StreamSession::new`] returns [`StreamError::Invalid`] for an
//! estimator configured with the rp-forest backend. The weights,
//! the warm `G₀`, the engine run and the export (centroids from the
//! relations' stored entries) are recomputed. With obs on, a refit's
//! stages are the spans `stream.refit.graphs`, `rhchme.fit_warm` and
//! `stream.refit.export` under `stream.refit`.
//!
//! ```
//! use mtrl_datagen::stream::{generate_stream, StreamConfig};
//! use mtrl_datagen::CorpusConfig;
//! use mtrl_stream::{RefreshPolicy, StreamSession};
//! use rhchme::{Rhchme, RhchmeConfig};
//!
//! let (initial, batches) = generate_stream(&StreamConfig {
//!     base: CorpusConfig {
//!         docs_per_class: vec![8, 8],
//!         vocab_size: 48,
//!         concept_count: 12,
//!         doc_len_range: (25, 40),
//!         background_frac: 0.25,
//!         topic_noise: 0.2,
//!         concept_map_noise: 0.1,
//!         corrupt_frac: 0.0,
//!         subtopics_per_class: 1,
//!         view_confusion: 0.0,
//!         seed: 7,
//!     },
//!     batches: 2,
//!     docs_per_batch: 4,
//!     drift_after: None,
//!     drift_shift: 0.0,
//! });
//! let rhchme = Rhchme::new(RhchmeConfig { lambda: 1.0, ..RhchmeConfig::fast() });
//! let mut session = StreamSession::new(initial, rhchme, RefreshPolicy {
//!     every_batches: Some(2),
//!     min_confidence: None,
//!     warm_iters: 5,
//!     ..RefreshPolicy::default()
//! }).unwrap();
//! let first = session.push_batch(&batches[0]).unwrap();
//! assert_eq!(first.labels.len(), 4);
//! assert!(first.refit.is_none());
//! let second = session.push_batch(&batches[1]).unwrap();
//! assert!(second.refit.is_some()); // cadence refresh, warm-started
//! ```

mod dynamic;
mod error;
mod session;
mod warm;

pub use dynamic::{DynamicGraph, DynamicGraphConfig, InsertReport};
pub use error::StreamError;
pub use session::{
    BatchTelemetry, PushReport, RefitReport, RefitTrigger, RefreshDecision, RefreshPolicy,
    SessionTelemetry, StreamSession,
};
pub use warm::warm_membership;
