//! `stream_refresh`: a `StreamSession` ingesting batches with drift
//! half-way, refreshed on a fixed cadence by warm refits that reuse the
//! incrementally maintained document graph (no SPG in the timed part).
//! The traced pass also serves every batch through a gateway in front
//! of the session's hot-swapped engine (see `serving`).

use crate::bench::{labels_digest, median, more, ms, same_as_reference, timed, Opts, Outcome};
use crate::fit_trace::{traced_fit, FitLayers};
use crate::fits::sub_seed;
use crate::serving::GatewayProbe;
use mtrl_datagen::stream::{generate_stream, StreamBatch, StreamConfig};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_eval::runner::{quick_params, rhchme_config};
use mtrl_serve::{Assigner, SparseVec};
use mtrl_stream::{RefreshPolicy, StreamSession};
use rhchme::pipeline::{Method, MethodSpec, PipelineParams};
use rhchme::Rhchme;

/// Initial corpus per class (3 classes), batches, batch size, the batch
/// drift starts at, refit cadence in batches, and streams per run.
const DOCS_PER_CLASS: usize = 110;
const BATCHES: usize = 16;
const DOCS_PER_BATCH: usize = 30;
const DRIFT_AFTER: usize = 8;
const CADENCE: usize = 4;
const STREAMS: usize = 8;

/// One stream of the workload and what its passes must repeat.
struct Stream {
    initial: MultiTypeCorpus,
    batches: Vec<StreamBatch>,
    params: PipelineParams,
    labels: Option<Vec<usize>>,
    refits: Option<usize>,
}

fn policy(cadence: Option<usize>) -> RefreshPolicy {
    RefreshPolicy {
        every_batches: cadence,
        min_confidence: None,
        drift_cooldown: 0,
        refresh_subspace: false,
        reseed_confidence: None,
        ..RefreshPolicy::default()
    }
}

fn batch_docs(
    batch: &StreamBatch,
    num_terms: usize,
) -> Result<Vec<SparseVec>, mtrl_serve::ServeError> {
    (0..batch.len())
        .map(|i| {
            let (indices, values) = batch.feature_row(i, num_terms);
            SparseVec::new(indices, values)
        })
        .collect()
}

/// What one untraced pass measured.
struct Pass {
    setup_s: f64,
    refit_ms: Vec<f64>,
    docs: usize,
    push_s: f64,
}

/// Set up a session and push every batch under the cadence policy.
fn untraced_pass(out: &mut Outcome, s: &mut Stream, i: usize) -> Option<Pass> {
    let (session, setup) = timed(|| {
        StreamSession::new(
            s.initial.clone(),
            Rhchme::new(rhchme_config(&s.params)),
            policy(Some(CADENCE)),
        )
    });
    let mut session = out.op("stream session set-up", session)?;
    let mut labels = Vec::new();
    let mut refit_ms = Vec::new();
    let mut push_s = 0.0;
    let mut docs = 0;
    for batch in &s.batches {
        let (report, t) = timed(|| session.push_batch(batch));
        push_s += t.as_secs_f64();
        let report = out.op("push", report)?;
        docs += batch.len();
        if report.refit.is_some() {
            refit_ms.push(ms(t));
        }
        labels.extend(report.labels);
    }
    let refits = session.telemetry().total_refits();
    out.check(refits == s.batches.len() / CADENCE, || {
        format!(
            "stream {i}: {refits} refits, cadence asks for {}",
            s.batches.len() / CADENCE
        )
    });
    out.check(same_as_reference(&mut s.labels, &labels), || {
        format!("stream {i}: fold-in labels differ between passes")
    });
    out.check(*s.refits.get_or_insert(refits) == refits, || {
        format!("stream {i}: refit count differs between passes")
    });
    Some(Pass {
        setup_s: setup.as_secs_f64(),
        refit_ms,
        docs,
        push_s,
    })
}

/// Per-layer samples of the traced passes.
#[derive(Default)]
struct Layers {
    push_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    refit_ms: Vec<f64>,
    foldin_ms: Vec<f64>,
    refits: usize,
    warm_iters: usize,
    patched_fraction: f64,
    fit: FitLayers,
}

/// The traced pass: the session's cold fit layer by layer, then pushes
/// with every trigger off and `refit_now` on the same cadence, with the
/// graph insert and the fold-in timed beside each push, and the batch
/// served through the gateway after it.
fn traced_pass(
    out: &mut Outcome,
    s: &Stream,
    i: usize,
    layers: &mut Layers,
    gateway: &mut GatewayProbe,
) -> Option<()> {
    let (fit, untraced) =
        timed(|| mtrl_ensemble::run_spec(&s.initial, &MethodSpec::Base(Method::Rhchme), &s.params));
    let fit = out.op("stream cold fit", fit)?;
    let trace = out.op("traced stream cold fit", traced_fit(&s.initial, &s.params))?;
    out.check(trace.doc_labels == fit.doc_labels, || {
        format!("stream {i}: traced cold-fit labels differ from the untraced fit")
    });
    layers.fit.push(trace, untraced);

    let session = StreamSession::new(
        s.initial.clone(),
        Rhchme::new(rhchme_config(&s.params)),
        policy(None),
    );
    let mut session = out.op("stream session set-up", session)?;
    out.check(session.last_result().doc_labels == fit.doc_labels, || {
        format!("stream {i}: session cold-fit labels differ from run_spec")
    });
    let name = format!("s{i}");
    out.op(
        "attach engine",
        session.attach_engine(gateway.engine(), name.clone()),
    )?;
    let num_terms = s.initial.num_terms();
    let mut assigner = out.op("assigner", Assigner::new(session.model().clone()))?;
    let mut labels = Vec::new();
    for (b, batch) in s.batches.iter().enumerate() {
        let docs = out.op("batch rows", batch_docs(batch, num_terms))?;
        let (foldin, t) = timed(|| assigner.assign_batch(0, &docs));
        out.op("fold-in", foldin)?;
        layers.foldin_ms.push(ms(t));
        let mut graph = session.doc_graph().clone();
        let rows: Vec<Vec<f64>> = docs
            .iter()
            .map(|d| {
                let mut row = vec![0.0; graph.dim()];
                for (&j, &v) in d.indices.iter().zip(&d.values) {
                    row[j] = v;
                }
                row
            })
            .collect();
        let rows = out.op("batch matrix", mtrl_linalg::Mat::from_rows(&rows))?;
        let (_, t) = timed(|| graph.insert_batch(&rows));
        layers.insert_ms.push(ms(t));

        let (report, t) = timed(|| session.push_batch(batch));
        let report = out.op("push", report)?;
        layers.push_ms.push(ms(t));
        gateway.assign_each(out, &name, &docs, &report.labels, &assigner);
        labels.extend(report.labels);
        if (b + 1) % CADENCE == 0 {
            let (refit, t) = timed(|| session.refit_now());
            out.op("refit", refit)?;
            layers.refit_ms.push(ms(t));
            assigner = out.op("assigner", Assigner::new(session.model().clone()))?;
        }
    }
    out.check(s.labels.as_ref() == Some(&labels), || {
        format!("stream {i}: traced fold-in labels differ from the untraced pass")
    });
    let telemetry = session.telemetry();
    out.check(Some(telemetry.total_refits()) == s.refits, || {
        format!("stream {i}: traced refit count differs from the untraced pass")
    });
    layers.refits = telemetry.total_refits();
    layers.warm_iters = telemetry.total_warm_iterations;
    layers.patched_fraction = session.doc_graph().patched_fraction();
    Some(())
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    mtrl_linalg::par::set_num_threads(1);
    let streams = opts.scale.pick(STREAMS, 1);
    let mut gen_s = Vec::new();
    let mut all: Vec<Stream> = (0..streams)
        .map(|i| {
            let seed = sub_seed(opts.seed, i);
            let ((initial, batches), t) = timed(|| {
                generate_stream(&StreamConfig {
                    base: crate::bench::large3(opts.scale.pick(DOCS_PER_CLASS, 12), seed),
                    batches: opts.scale.pick(BATCHES, 8),
                    docs_per_batch: opts.scale.pick(DOCS_PER_BATCH, 6),
                    drift_after: Some(opts.scale.pick(DRIFT_AFTER, 4)),
                    drift_shift: 0.4,
                })
            });
            gen_s.push(t.as_secs_f64());
            Stream {
                initial,
                batches,
                params: quick_params(seed),
                labels: None,
                refits: None,
            }
        })
        .collect();
    let gen_s = median(&gen_s);

    let deadline = opts.deadline();
    let mut setup_s = Vec::new();
    let mut refit_ms = Vec::new();
    let (mut docs, mut push_s) = (0, 0.0);
    let mut layers = Layers::default();
    let mut gateway = if opts.trace {
        GatewayProbe::start(out)
    } else {
        None
    };
    let mut rounds = 0;
    // Untraced, every stream runs at least twice so its labels can be
    // compared; traced, the traced pass is the repetition.
    let min_rounds = if opts.trace { 1 } else { 2 };
    while more(rounds, min_rounds, deadline) {
        rounds += 1;
        for (i, stream) in all.iter_mut().enumerate() {
            let Some(pass) = untraced_pass(out, stream, i) else {
                continue;
            };
            setup_s.push(gen_s + pass.setup_s);
            // A pass's refits run on a growing corpus, so pooling them
            // would put the median between size clusters; each pass
            // contributes its mean refit instead.
            if !pass.refit_ms.is_empty() {
                refit_ms.push(pass.refit_ms.iter().sum::<f64>() / pass.refit_ms.len() as f64);
            }
            docs += pass.docs;
            push_s += pass.push_s;
            if let Some(gateway) = gateway.as_mut() {
                traced_pass(out, stream, i, &mut layers, gateway);
            }
        }
    }
    if let Some(gateway) = gateway {
        gateway.finish(out);
    }
    out.meta("rounds", rounds);
    out.meta(
        "labels_digest",
        labels_digest(all.iter().filter_map(|s| s.labels.as_deref())),
    );
    if opts.trace {
        layers.fit.report(out);
        let n = layers.push_ms.len();
        out.metric("stream.push.ms", median(&layers.push_ms), n);
        out.metric("stream.graph_insert.ms", median(&layers.insert_ms), n);
        out.metric(
            "stream.refit.ms",
            median(&layers.refit_ms),
            layers.refit_ms.len(),
        );
        out.metric("stream.refits", layers.refits as f64, 1);
        out.metric("stream.warm_iters", layers.warm_iters as f64, 1);
        out.metric("stream.patched_fraction", layers.patched_fraction, 1);
        out.metric(
            "serve.foldin.ms",
            median(&layers.foldin_ms),
            layers.foldin_ms.len(),
        );
        // Docs pushed ÷ wall time of all pushes, refits included, over
        // the untraced passes.
        out.metric(
            "stream.ingest_docs_per_s",
            docs as f64 / push_s,
            setup_s.len(),
        );
        return;
    }
    let truth_f: Vec<f64> = all
        .iter()
        .filter_map(|s| {
            let labels = s.labels.as_ref()?;
            let truth: Vec<usize> = s
                .batches
                .iter()
                .flat_map(|b| b.labels.iter().copied())
                .collect();
            Some(mtrl_metrics::fscore(&truth, labels))
        })
        .collect();
    out.metric("setup_s", median(&setup_s), setup_s.len());
    out.metric("latency_p50_ms", median(&refit_ms), refit_ms.len());
    out.metric(
        "fscore",
        truth_f.iter().sum::<f64>() / truth_f.len().max(1) as f64,
        truth_f.len(),
    );
}
