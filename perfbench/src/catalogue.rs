//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! at the repository root lists the same names and units; the smoke
//! test (`tests/smoke.rs`) holds the two together.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["cold_fit", "ensemble_fit", "stream_refresh"];

/// End-to-end metrics (`--trace 0`): what a user of the system sees.
/// Every workload reports every one of them; the README states what
/// each means on each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("fscore", "1"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A workload whose path never calls
/// a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("multitype.ms", "ms"),
    ("subspace.ms", "ms"),
    ("subspace.share", "ratio"),
    ("subspace.spg_iters", "count"),
    ("subspace.peak_dense_elems", "elems"),
    ("graph.ms", "ms"),
    ("graph.laplacian_nnz", "count"),
    ("kmeans.ms", "ms"),
    ("engine.ms", "ms"),
    ("engine.iters", "count"),
    ("engine.ms_per_iter", "ms"),
    ("engine.peak_dense_elems", "elems"),
    ("engine.ms_nproc", "ms"),
    ("ensemble.artifacts.ms", "ms"),
    ("ensemble.regularizers.ms", "ms"),
    ("ensemble.members.ms", "ms"),
    ("ensemble.merge.ms", "ms"),
    ("ensemble.coassoc.ms", "ms"),
    ("ensemble.coassoc_nnz", "count"),
    ("ensemble.fallback_types", "count"),
    ("stream.ingest_docs_per_s", "1/s"),
    ("stream.push.ms", "ms"),
    ("stream.graph_insert.ms", "ms"),
    ("stream.refit.ms", "ms"),
    ("stream.refits", "count"),
    ("stream.warm_iters", "count"),
    ("stream.patched_fraction", "ratio"),
    ("serve.foldin.ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.busy_us_per_req", "us"),
    ("serve.errors", "count"),
    ("gateway.rtt_p50_ms", "ms"),
    ("gateway.rtt_p99_ms", "ms"),
    ("gateway.server_p50_ms", "ms"),
    ("gateway.requests_per_s", "1/s"),
    ("gateway.coalesced_batches", "count"),
    ("gateway.shed", "count"),
    ("gateway.bytes_per_req", "B"),
    ("unattributed.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
