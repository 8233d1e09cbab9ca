//! Microbenches of the network gateway: end-to-end HTTP round trips
//! with the coalescing window on vs off, and loading a model bundle
//! from disk.
//!
//! `gateway/serial_64x1doc` is a latency reference on one keep-alive
//! connection. The two `concurrent_*_128x1doc` entries move identical
//! work (128 single-document assignments from 16 connections) against
//! gateways that differ only in coalescing (window + batch cap vs pure
//! passthrough), so their delta is exactly what request coalescing
//! buys under contention.

use criterion::{criterion_group, criterion_main, Criterion};
use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_gateway::{Gateway, GatewayConfig};
use mtrl_serve::{persist, FittedModel, ServeEngine};
use rhchme::rhchme::{Rhchme, RhchmeConfig};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn fitted_model() -> FittedModel {
    let corpus = generate(&CorpusConfig {
        docs_per_class: vec![16, 16, 16],
        vocab_size: 200,
        concept_count: 60,
        doc_len_range: (40, 70),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 9,
    });
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(&corpus).expect("fit");
    rhchme.export_model(&result, &corpus).expect("export")
}

fn start_gateway(engine: Arc<ServeEngine>, coalesce: bool) -> Gateway {
    let config = if coalesce {
        GatewayConfig::default()
    } else {
        // True passthrough: every wire request is its own engine submit.
        GatewayConfig {
            wait_window: Duration::ZERO,
            max_batch_docs: 1,
            ..GatewayConfig::default()
        }
    };
    Gateway::bind(engine, config).expect("bind gateway")
}

fn assign_body(doc_index: usize, dim: usize) -> String {
    let i = (doc_index * 31) % dim;
    let j = (doc_index * 7 + 1) % dim;
    format!("{{\"docs\":[{{\"indices\":[{i},{j}],\"values\":[1.0,0.5]}}]}}")
}

/// One keep-alive request/response exchange; panics on non-200.
fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, body: &str) {
    write!(
        stream,
        "POST /v1/models/bench/assign HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status");
    assert!(status_line.contains("200"), "{status_line}");
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
    black_box(body);
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// 128 requests from 16 concurrent keep-alive connections.
fn concurrent_pass(addr: SocketAddr, dim: usize) {
    let clients: Vec<_> = (0..16)
        .map(|t| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                for r in 0..8 {
                    let body = assign_body(t * 8 + r, dim);
                    round_trip(&mut stream, &mut reader, &body);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client");
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let model = fitted_model();
    let dim = model.feature_dims[0];
    let engine = Arc::new(ServeEngine::new(2));
    engine.register("bench", model).expect("register");
    let coalescing = start_gateway(Arc::clone(&engine), true);
    let passthrough = start_gateway(Arc::clone(&engine), false);

    let mut group = c.benchmark_group("gateway");
    group.sample_size(10);
    group.bench_function("serial_64x1doc", |bencher| {
        bencher.iter(|| {
            let (mut stream, mut reader) = connect(coalescing.addr());
            for r in 0..64 {
                let body = assign_body(r, dim);
                round_trip(&mut stream, &mut reader, &body);
            }
        });
    });
    group.bench_function("concurrent_nocoalesce_128x1doc", |bencher| {
        bencher.iter(|| concurrent_pass(passthrough.addr(), dim));
    });
    group.bench_function("concurrent_coalesced_128x1doc", |bencher| {
        bencher.iter(|| concurrent_pass(coalescing.addr(), dim));
    });
    group.finish();
    drop((coalescing, passthrough));
}

fn bench_model_load(c: &mut Criterion) {
    let model = fitted_model();
    let dir = std::env::temp_dir().join("mtrl_bench_gateway");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("model.mtrl");
    persist::save(&model, &path).expect("save bundle");
    assert_eq!(
        persist::load(&path).unwrap().content_digest(),
        model.content_digest()
    );

    let mut group = c.benchmark_group("gateway_model_load");
    group.sample_size(10);
    group.bench_function("from_disk_binary", |bencher| {
        bencher.iter(|| persist::load(black_box(&path)).unwrap());
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_end_to_end, bench_model_load);
criterion_main!(benches);
