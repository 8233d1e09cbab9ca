//! Byte-exact fit dump for the CI determinism leg.
//!
//! ```text
//! determinism_probe <out_file> [--ann] [--ensemble] [--large] [--stream]
//! ```
//!
//! Runs one full RHCHME fit (corpus seeded from `MTRL_SEED`, quick
//! evaluation parameters) and writes every float of the result — `G`,
//! `S`, the objective trace — plus all labels as little-endian bytes.
//! CI runs it twice, under `MTRL_NUM_THREADS=1` and `=4`, and `cmp`s
//! the two files: the parallel kernels' determinism contract (bit-equal
//! results for every thread count) is enforced on a whole fit, not just
//! per-kernel unit tests.
//!
//! `--ann` swaps the graph stage to the RP-forest approximate backend
//! (default parameters), extending the same contract to the ANN layer:
//! index build, descent, and candidate re-ranking must also be
//! thread-count invariant end to end.
//!
//! `--ensemble` runs a full consensus-ensemble fit instead (default
//! `EnsembleSpec`: member generation, sparse co-association build,
//! probability-trajectory merge, closed-form `S`), extending the
//! byte-identical contract to every ensemble stage — the co-association
//! rows are built with the same order-splicing parallel primitive as the
//! kernels, so thread count must not move a single bit.
//!
//! `--large` fits a 330-document Large3-shaped corpus instead of the
//! small Balanced3 one. Its document type is large enough
//! (`n·(K′+1)² ≥ 2²⁰` multiply-adds) for the SPG support product to
//! split rows across threads, which the small corpus never does.
//!
//! `--stream` runs a `StreamSession` instead: a cold fit on a 330-doc
//! Large3 corpus, then eight 30-doc batches with drift from the fifth
//! on, a warm refit every four batches and the document graph's
//! rebuild-threshold policy at its default. It dumps every batch's
//! fold-in labels, then the last refit's labels, `G`, `S` and objective
//! trace, and fails unless some push ran a threshold rebuild (counted
//! by the session's telemetry), so the dump covers incremental inserts,
//! full rebuilds and warm refits. Stream sessions keep exact graphs
//! only, so `--stream` together with `--ann` fails: the session refuses
//! the rp-forest backend with a typed error.

use mtrl_datagen::stream::{generate_stream, StreamConfig};
use mtrl_datagen::{seed_from_env, CorpusConfig, CorruptionSpec};
use mtrl_eval::{quick_params, rhchme_config, CorpusShape};
use mtrl_linalg::Mat;
use mtrl_stream::{RefreshPolicy, StreamSession};
use rhchme::pipeline::{EnsembleSpec, PipelineParams};
use rhchme::rhchme::Rhchme;
use std::process::ExitCode;

const USAGE: &str = "usage: determinism_probe <out_file> [--ann] [--ensemble] [--large] [--stream]";

/// What every probe mode dumps: label vectors, `G`, `S`, a trace, and
/// an iteration count for the log line.
type Dump = (Vec<Vec<usize>>, Mat, Mat, Vec<f64>, usize);

/// The `--stream` leg: per-batch fold-in labels, then the last refit's
/// labels, factors and trace.
fn stream_dump(seed: u64, params: &PipelineParams) -> Result<Dump, String> {
    let (initial, batches) = generate_stream(&StreamConfig {
        base: CorpusConfig {
            docs_per_class: vec![110; 3],
            seed,
            ..CorpusShape::Large3.config()
        },
        batches: 8,
        docs_per_batch: 30,
        drift_after: Some(4),
        drift_shift: 0.4,
    });
    let policy = RefreshPolicy {
        every_batches: Some(4),
        min_confidence: None,
        ..RefreshPolicy::default()
    };
    let rhchme = Rhchme::new(rhchme_config(params));
    let mut session = StreamSession::new(initial, rhchme, policy).map_err(|e| e.to_string())?;
    let mut labels = Vec::new();
    for batch in &batches {
        let report = session.push_batch(batch).map_err(|e| e.to_string())?;
        labels.push(report.labels);
    }
    let refits = session.telemetry().total_refits();
    let rebuilds = session.telemetry().graph_rebuilds;
    println!("stream: {refits} refits, {rebuilds} threshold rebuilds");
    if rebuilds == 0 {
        return Err("no push ran a threshold rebuild".into());
    }
    let r = session.last_result();
    labels.push(r.doc_labels.clone());
    labels.extend(r.labels_per_type.iter().cloned());
    Ok((
        labels,
        r.g.clone(),
        r.s.clone(),
        r.objective_trace.clone(),
        r.iterations,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut ann = false;
    let mut ensemble = false;
    let mut large = false;
    let mut stream = false;
    for a in &args {
        match a.as_str() {
            "--ann" => ann = true,
            "--ensemble" => ensemble = true,
            "--large" => large = true,
            "--stream" => stream = true,
            _ if out_path.is_none() => out_path = Some(a.clone()),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(out_path) = out_path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let out_path = &out_path;
    let seed = seed_from_env(2015);
    let shape = if large {
        CorpusConfig {
            docs_per_class: vec![110; 3],
            ..CorpusShape::Large3.config()
        }
    } else {
        CorpusShape::Balanced3.config()
    };
    let corpus = || CorruptionSpec::relation_corruption(0.1).corpus(&shape, seed);
    let mut params = quick_params(seed);
    if ann {
        params.graph_backend =
            rhchme::GraphBackend::RpForest(mtrl_graph::RpForestParams::default());
    }
    // Every probe mode dumps the same shape: labels, G, S, a trace.
    let dump: Result<Dump, String> = if stream {
        stream_dump(seed, &params).map_err(|e| format!("stream run failed: {e}"))
    } else if ensemble {
        mtrl_ensemble::fit_corpus(&corpus(), &EnsembleSpec::default(), &params)
            .map(|r| {
                let trace: Vec<f64> = r.members.iter().map(|m| m.final_objective).collect();
                let n = r.members.len();
                let labels = std::iter::once(r.doc_labels).chain(r.labels_per_type);
                (labels.collect(), r.g, r.s, trace, n)
            })
            .map_err(|e| format!("ensemble fit failed: {e}"))
    } else {
        let rhchme = Rhchme::new(rhchme_config(&params));
        rhchme
            .fit_corpus(&corpus())
            .map(|r| {
                let labels = std::iter::once(r.doc_labels).chain(r.labels_per_type);
                (labels.collect(), r.g, r.s, r.objective_trace, r.iterations)
            })
            .map_err(|e| format!("fit failed: {e}"))
    };
    let (all_labels, g, s, trace, iterations) = match dump {
        Ok(dump) => dump,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(b"mtrl-determinism-probe/v1\n");
    bytes.extend_from_slice(&(seed).to_le_bytes());
    for labels in &all_labels {
        bytes.extend_from_slice(&(labels.len() as u64).to_le_bytes());
        for &l in labels {
            bytes.extend_from_slice(&(l as u64).to_le_bytes());
        }
    }
    for m in [&g, &s] {
        bytes.extend_from_slice(&(m.rows() as u64).to_le_bytes());
        bytes.extend_from_slice(&(m.cols() as u64).to_le_bytes());
        for v in m.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for v in &trace {
        bytes.extend_from_slice(&v.to_le_bytes());
    }

    if let Err(e) = std::fs::write(out_path, &bytes) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    // FNV-1a for a one-line log fingerprint.
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in &bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    println!(
        "seed {seed}, threads {}: {} bytes, fnv1a {hash:016x}, {} iterations -> {out_path}",
        mtrl_linalg::par::num_threads(),
        bytes.len(),
        iterations
    );
    ExitCode::SUCCESS
}
