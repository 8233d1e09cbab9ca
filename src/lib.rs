//! # rhchme-repro
//!
//! Umbrella crate for the RHCHME reproduction (Hou & Nayak, ICDE 2015:
//! *Robust Clustering of Multi-type Relational Data via a Heterogeneous
//! Manifold Ensemble*).
//!
//! This crate re-exports the workspace libraries and hosts the runnable
//! examples (`cargo run --release --example quickstart`,
//! `--example serve_demo`) and the cross-crate integration tests. See
//! README.md for the architecture overview (including the serving
//! layer); the bench targets write paper-vs-measured JSON records under
//! `target/bench-results/`.

pub use mtrl_datagen as datagen;
pub use mtrl_eval as eval;
pub use mtrl_gateway as gateway;
pub use mtrl_graph as graph;
pub use mtrl_linalg as linalg;
pub use mtrl_metrics as metrics;
pub use mtrl_obs as obs;
pub use mtrl_serve as serve;
pub use mtrl_sparse as sparse;
pub use mtrl_stream as stream;
pub use mtrl_subspace as subspace;
pub use rhchme as core;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use mtrl_datagen::datasets::{load, DatasetId, Scale};
    pub use mtrl_datagen::stream::{generate_stream, StreamBatch, StreamConfig};
    pub use mtrl_datagen::{
        split_corpus, CorpusConfig, CorruptionKind, CorruptionSpec, HeldOutDoc, MultiTypeCorpus,
    };
    pub use mtrl_eval::{
        quick_matrix, quick_params, run_scenario, CorpusShape, EvalPath, RunOptions, Scenario,
    };
    pub use mtrl_gateway::{Gateway, GatewayConfig, GatewayStats};
    pub use mtrl_metrics::{adjusted_rand_index, fscore, nmi, purity};
    pub use mtrl_serve::{
        AssignRequest, AssignResponse, Assigner, FittedModel, ServeEngine, ServeError, SparseVec,
        StatsSnapshot,
    };
    pub use mtrl_stream::{
        BatchTelemetry, DynamicGraph, DynamicGraphConfig, PushReport, RefitReport, RefitTrigger,
        RefreshDecision, RefreshPolicy, SessionTelemetry, StreamError, StreamSession,
    };
    pub use rhchme::pipeline::{run_spec, Method, MethodOutput, MethodSpec};
    pub use rhchme::rhchme::{Rhchme, RhchmeConfig, RhchmeResult, WarmStart};
    pub use rhchme::MultiTypeData;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let corpus = load(DatasetId::D1, Scale::Tiny);
        assert_eq!(corpus.num_classes, 5);
    }
}
