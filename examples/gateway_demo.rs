//! End-to-end demo of the network gateway: fit a model, save it as a
//! bundle and load it back, serve it over HTTP, and drive it with serial
//! and concurrent clients.
//!
//! ```text
//! cargo run --release --example gateway_demo
//! ```
//!
//! The demo doubles as an executable acceptance check (CI runs it in
//! the demos job): it asserts that the reloaded bundle carries the
//! fitted model's content digest, and that under the same concurrent
//! load the coalescing gateway needs far fewer engine submits — and is
//! no slower — than one with coalescing disabled.

use rhchme_repro::gateway::{Gateway, GatewayConfig};
use rhchme_repro::prelude::*;
use rhchme_repro::serve::persist;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERIAL_REQUESTS: usize = 64;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 8;

fn fit_model() -> FittedModel {
    let corpus = mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![20, 20, 20],
        vocab_size: 240,
        concept_count: 70,
        doc_len_range: (40, 70),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 17,
    });
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(&corpus).expect("fit");
    rhchme.export_model(&result).expect("export")
}

fn assign_body(doc: usize, dim: usize) -> String {
    let i = (doc * 31) % dim;
    let j = (doc * 7 + 1) % dim;
    format!("{{\"docs\":[{{\"indices\":[{i},{j}],\"values\":[1.0,0.5]}}]}}")
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, body: &str) {
    write!(
        stream,
        "POST /v1/models/demo/assign HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut status = String::new();
    reader.read_line(&mut status).expect("status");
    assert!(status.contains("200"), "unexpected response: {status}");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
}

fn main() {
    // ── fit + persist ───────────────────────────────────────────────
    println!("fitting model...");
    let t0 = Instant::now();
    let model = fit_model();
    println!("  fit in {:.2?}", t0.elapsed());

    let dir = std::env::temp_dir().join("mtrl_gateway_demo");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("demo.mtrl");
    persist::save(&model, &path).expect("save bundle");
    let t0 = Instant::now();
    let loaded = persist::load(&path).expect("load bundle");
    println!("model load: {:.2?}", t0.elapsed());
    assert_eq!(
        loaded.content_digest(),
        model.content_digest(),
        "the reloaded bundle must be the fitted model"
    );

    // ── serve ───────────────────────────────────────────────────────
    let engine = Arc::new(ServeEngine::with_queue_capacity(2, 1024));
    engine.register("demo", loaded).expect("register");
    let gateway = Gateway::bind(Arc::clone(&engine), GatewayConfig::default()).expect("bind");
    let addr = gateway.addr();
    let dim = model.feature_dims[0];
    println!("gateway listening on http://{addr}");

    // Serial latency reference: one keep-alive connection.
    let t0 = Instant::now();
    let (mut stream, mut reader) = connect(addr);
    for r in 0..SERIAL_REQUESTS {
        round_trip(&mut stream, &mut reader, &assign_body(r, dim));
    }
    let serial = t0.elapsed();
    drop((stream, reader));
    println!(
        "serial reference: {SERIAL_REQUESTS} requests on 1 connection in {serial:.2?} \
         ({:.0} req/s)",
        SERIAL_REQUESTS as f64 / serial.as_secs_f64()
    );
    let submits_serial = engine.stats().requests;

    // The coalescing comparison holds the offered load fixed (CLIENTS
    // concurrent connections) and toggles only the wait window, so the
    // difference is what coalescing buys, not what client parallelism
    // costs.
    let concurrent_pass = |gw_addr: SocketAddr| {
        let t0 = Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let (mut stream, mut reader) = connect(gw_addr);
                    for r in 0..REQUESTS_PER_CLIENT {
                        let body = assign_body(c * REQUESTS_PER_CLIENT + r, dim);
                        round_trip(&mut stream, &mut reader, &body);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client");
        }
        t0.elapsed()
    };

    // True passthrough: no wait window AND single-job batches, so every
    // wire request becomes its own engine submit.
    let nocoalesce_gateway = Gateway::bind(
        Arc::clone(&engine),
        GatewayConfig {
            wait_window: Duration::ZERO,
            max_batch_docs: 1,
            ..GatewayConfig::default()
        },
    )
    .expect("bind nocoalesce");
    let total = CLIENTS * REQUESTS_PER_CLIENT;

    let before = engine.stats().requests;
    let nocoalesce = concurrent_pass(nocoalesce_gateway.addr());
    let submits_nocoalesce = engine.stats().requests - before;
    println!(
        "window off: {total} requests over {CLIENTS} connections in {nocoalesce:.2?} \
         ({:.0} req/s, {submits_nocoalesce} engine submits)",
        total as f64 / nocoalesce.as_secs_f64()
    );

    let before = engine.stats().requests;
    let coalesced = concurrent_pass(addr);
    let submits_coalesced = engine.stats().requests - before;
    println!(
        "window on:  {total} requests over {CLIENTS} connections in {coalesced:.2?} \
         ({:.0} req/s, {submits_coalesced} engine submits)",
        total as f64 / coalesced.as_secs_f64()
    );

    let stats = gateway.stats();
    println!(
        "gateway stats: {} requests, {} coalesced batches, {} shed, {} bytes",
        stats.requests, stats.coalesced_batches, stats.shed, stats.bytes
    );
    println!(
        "assign latency: p50 {:.2?}, p99 {:.2?}",
        stats.quantile(0.5),
        stats.quantile(0.99)
    );
    let engine_stats = engine.stats();
    println!(
        "engine stats: {} requests for {} documents ({} shed)",
        engine_stats.requests, engine_stats.documents, engine_stats.shed
    );
    assert_eq!(submits_serial, SERIAL_REQUESTS as u64);

    assert!(
        stats.coalesced_batches > 0,
        "concurrent clients must produce at least one coalesced batch"
    );
    // Coalescing must collapse the engine submit count materially…
    assert!(
        submits_coalesced * 2 <= submits_nocoalesce,
        "coalescing should at least halve engine submits \
         ({submits_coalesced} vs {submits_nocoalesce})"
    );
    // …and must not cost wall-clock time under the same load (small
    // slack: single-core CI runners schedule the client threads).
    assert!(
        coalesced.as_secs_f64() <= nocoalesce.as_secs_f64() * 1.10,
        "coalescing must not be slower than the uncoalesced gateway \
         (window off {nocoalesce:.2?}, window on {coalesced:.2?})"
    );

    std::fs::remove_file(&path).ok();
    println!("gateway demo OK");
}
