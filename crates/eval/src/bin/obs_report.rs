//! Drive a fit → serve → stream pass with `mtrl-obs` on and export the
//! collected telemetry.
//!
//! ```text
//! obs_report <manifest.json> [--prom <metrics.prom>]
//! ```
//!
//! The run is the observability layer's end-to-end exercise: a cold
//! RHCHME fit on an eval-shape corpus (engine per-iteration telemetry,
//! graph-build and fit spans), a fold-in pass of the held-out documents
//! through a live [`mtrl_serve::ServeEngine`] (latency histograms), an
//! HTTP flood through a deliberately tiny [`mtrl_gateway::Gateway`]
//! (request/shed/coalesce/byte counters), and a short drifting stream
//! session with a confidence floor that deterministically trips the
//! drift trigger (stream events, refit counters). Everything lands in
//! one `mtrl-obs-manifest/v1` JSON; `--prom` additionally writes the
//! same registry as a Prometheus text-format dump. The run fails if
//! the manifest is missing any `gateway.*` counter or either stage span
//! of a stream refit (`stream.refit.graphs`, `stream.refit.export`).

use mtrl_datagen::split_corpus;
use mtrl_datagen::stream::{generate_stream, StreamConfig};
use mtrl_eval::{quick_params, CorpusShape};
use mtrl_gateway::{Gateway, GatewayConfig};
use mtrl_serve::{AssignRequest, ServeEngine, SparseVec};
use mtrl_stream::{RefreshPolicy, StreamSession};
use rhchme::rhchme::Rhchme;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: obs_report <manifest.json> [--prom <metrics.prom>]";

fn serve_leg() -> Result<Arc<ServeEngine>, String> {
    let mut config = CorpusShape::Balanced3.config();
    config.seed = 11;
    let corpus = mtrl_datagen::corpus::generate(&config);
    let (train, heldout) = split_corpus(&corpus, 0.35, 11);
    let rhchme = Rhchme::new(quick_params(11));
    let result = rhchme.fit_corpus(&train).map_err(|e| e.to_string())?;
    let model = rhchme
        .export_model(&result, &train)
        .map_err(|e| e.to_string())?;

    let engine = Arc::new(ServeEngine::new(2));
    engine.register("obs", model).map_err(|e| e.to_string())?;
    let docs: Vec<SparseVec> = heldout
        .iter()
        .map(|d| SparseVec::new(d.indices.clone(), d.values.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let pending: Vec<_> = docs
        .chunks(8)
        .map(|chunk| engine.submit(AssignRequest::new("obs").docs(chunk.to_vec())))
        .collect();
    for p in pending {
        p.wait().map_err(|e| e.to_string())?;
    }
    let stats = engine.stats();
    println!(
        "serve leg: {} docs in {} requests, latency p50 {:?} / p99 {:?} / max {:?}",
        stats.documents,
        stats.requests,
        stats.quantile(0.5),
        stats.quantile(0.99),
        stats.max_latency()
    );
    Ok(engine)
}

/// One-shot HTTP POST of a single-doc assign; returns the status code.
fn gateway_post(addr: std::net::SocketAddr) -> Result<u16, String> {
    let body = r#"{"docs":[{"indices":[1,3],"values":[1.0,0.5]}]}"#;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    write!(
        stream,
        "POST /v1/models/obs/assign HTTP/1.1\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response: {response:?}"))
}

/// Flood a deliberately tiny gateway over loopback HTTP so every
/// `gateway.*` counter moves: the 10 ms service delay stalls dispatch,
/// so concurrent arrivals first fill the 2-slot queue (one coalesced
/// batch) and then shed with 429.
fn gateway_leg(engine: Arc<ServeEngine>) -> Result<(), String> {
    let gateway = Gateway::bind(
        engine,
        GatewayConfig {
            wait_window: Duration::from_millis(5),
            queue_capacity: 2,
            service_delay: Some(Duration::from_millis(10)),
            ..GatewayConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = gateway.addr();

    // The flood is overwhelmingly likely to both coalesce and shed in
    // one round; retry a few times so scheduler jitter cannot leave a
    // counter at zero.
    for _ in 0..5 {
        let clients: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || gateway_post(addr)))
            .collect();
        for c in clients {
            let status = c.join().map_err(|_| "client panicked")??;
            if status != 200 && status != 429 {
                return Err(format!("unexpected gateway status {status}"));
            }
        }
        let stats = gateway.stats();
        if stats.shed > 0 && stats.coalesced_batches > 0 {
            break;
        }
    }

    let stats = gateway.stats();
    println!(
        "gateway leg: {} requests, {} shed, {} coalesced batches, {} bytes, \
         latency p50 {:?} / p99 {:?}",
        stats.requests,
        stats.shed,
        stats.coalesced_batches,
        stats.bytes,
        stats.quantile(0.5),
        stats.quantile(0.99)
    );

    let counters: std::collections::HashMap<String, u64> =
        mtrl_obs::global().counters_snapshot().into_iter().collect();
    for key in [
        "gateway.requests",
        "gateway.shed",
        "gateway.coalesced_batches",
        "gateway.bytes",
    ] {
        if counters.get(key).copied().unwrap_or(0) == 0 {
            return Err(format!(
                "obs counter {key} missing or zero after gateway leg"
            ));
        }
    }
    Ok(())
}

fn stream_leg() -> Result<(), String> {
    let params = quick_params(12);
    let mut base = CorpusShape::Tiny3.config();
    base.seed = 12;
    let (initial, batches) = generate_stream(&StreamConfig {
        base,
        batches: 4,
        docs_per_batch: 10,
        drift_after: Some(2),
        drift_shift: 0.4,
    });
    let mut session = StreamSession::new(
        initial,
        Rhchme::new(params.clone()),
        RefreshPolicy {
            every_batches: None,
            // A floor above any real fold-in confidence: every batch past
            // the cooldown trips the drift trigger, so the manifest is
            // guaranteed to carry drift events regardless of the corpus.
            min_confidence: Some(0.95),
            drift_cooldown: 1,
            warm_iters: (params.max_iter / 4).max(1),
            refresh_subspace: true,
            reseed_confidence: None,
        },
    )
    .map_err(|e| e.to_string())?;
    for batch in &batches {
        session.push_batch(batch).map_err(|e| e.to_string())?;
    }
    session.refit_now().map_err(|e| e.to_string())?;
    let t = session.telemetry();
    println!(
        "stream leg: {} batches, {} drift / {} manual refits, \
         {} suppressed by cooldown, {} warm iterations",
        t.batches.len(),
        t.drift_refits,
        t.manual_refits,
        t.cooldown_suppressed(),
        t.total_warm_iterations
    );
    // A refit's stages: its inputs, the engine and the export must each
    // carry a span under `stream.refit`.
    let spans = mtrl_obs::global().spans_snapshot();
    for stage in [
        "stream.refit.graphs",
        "rhchme.fit_warm",
        "stream.refit.export",
    ] {
        let path = format!("stream.refit/{stage}");
        if !spans.iter().any(|(p, _)| p.ends_with(&path)) {
            return Err(format!("obs span {path} missing after stream leg"));
        }
    }
    Ok(())
}

fn write_out(path: &str, contents: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(p, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut prom_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--prom" => match it.next() {
                Some(p) => prom_path = Some(p.clone()),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
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

    mtrl_obs::force_enable();
    let t0 = std::time::Instant::now();
    if let Err(e) = serve_leg()
        .and_then(gateway_leg)
        .and_then(|()| stream_leg())
    {
        eprintln!("obs run failed: {e}");
        return ExitCode::FAILURE;
    }

    let reg = mtrl_obs::global();
    let spans = reg.spans_snapshot();
    println!("spans ({}):", spans.len());
    for (path, s) in &spans {
        println!(
            "  {path}: {} closes, total {:.2} ms, max {:.2} ms",
            s.count,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6
        );
    }
    let events = reg.events_snapshot();
    println!("stream events ({}):", events.len());
    for e in &events {
        println!("  {} [{}] value {:.3}", e.kind, e.label, e.value);
    }

    if let Err(e) = write_out(&out_path, &mtrl_obs::export::manifest_json(reg)) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!(
        "[obs manifest written to {out_path} in {:.1?}]",
        t0.elapsed()
    );
    if let Some(prom_path) = prom_path {
        if let Err(e) = write_out(&prom_path, &mtrl_obs::export::prometheus_text(reg)) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("[prometheus dump written to {prom_path}]");
    }
    ExitCode::SUCCESS
}
