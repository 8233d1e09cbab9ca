//! End-to-end tests of the network gateway over real loopback sockets:
//! concurrent clients, cross-client coalescing, bounded-queue shedding,
//! deadline expiry, and robustness against garbage bytes.

use proptest::prelude::*;
use rhchme_repro::gateway::{Gateway, GatewayConfig};
use rhchme_repro::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn fitted_model() -> FittedModel {
    let corpus = mtrl_datagen::corpus::generate(&CorpusConfig {
        docs_per_class: vec![12, 12, 12],
        vocab_size: 90,
        concept_count: 24,
        doc_len_range: (30, 50),
        background_frac: 0.25,
        topic_noise: 0.25,
        concept_map_noise: 0.1,
        corrupt_frac: 0.0,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 81 + mtrl_datagen::seed_from_env(0),
    });
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });
    let result = rhchme.fit_corpus(&corpus).unwrap();
    rhchme.export_model(&result).unwrap()
}

fn shared_model() -> &'static FittedModel {
    static MODEL: OnceLock<FittedModel> = OnceLock::new();
    MODEL.get_or_init(fitted_model)
}

/// Minimal HTTP/1.1 client: one request, one parsed response.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    read_response(stream)
}

fn read_response(stream: TcpStream) -> (u16, Vec<(String, String)>, String) {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().expect("content-length"))
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8_lossy(&body).into_owned())
}

fn doc_json(indices: &[usize], values: &[f64]) -> String {
    format!(
        "{{\"indices\":{:?},\"values\":{:?}}}",
        indices,
        values.iter().collect::<Vec<_>>()
    )
}

#[test]
fn concurrent_clients_coalesce_and_get_per_job_answers() {
    let engine = Arc::new(ServeEngine::new(2));
    engine.register("m", shared_model().clone()).unwrap();
    let gateway = Gateway::bind(
        Arc::clone(&engine),
        GatewayConfig {
            wait_window: Duration::from_millis(5),
            // The first batch parks the dispatcher long enough for
            // the remaining clients to pile into the queue, which
            // forces at least one multi-job batch deterministically.
            service_delay: Some(Duration::from_millis(10)),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let addr = gateway.addr();

    let dim = shared_model().feature_dims[0];
    let assigner = Assigner::new(shared_model().clone()).unwrap();
    let clients: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for r in 0..3 {
                    let indices = vec![(c * 7 + r) % dim, (c * 13 + r * 3 + 1) % dim];
                    let values = vec![1.0, 0.5 + c as f64 * 0.1];
                    let body = format!("{{\"docs\":[{}]}}", doc_json(&indices, &values));
                    let (status, _, response) =
                        http(addr, "POST", "/v1/models/m/assign", Some(&body));
                    outcomes.push((indices, values, status, response));
                }
                outcomes
            })
        })
        .collect();

    for client in clients {
        for (indices, values, status, response) in client.join().unwrap() {
            assert_eq!(status, 200, "{response}");
            let v: serde::Value = serde_json::from_str(&response).unwrap();
            assert_eq!(v.get("count").unwrap().as_f64(), Some(1.0));
            let rows = v.get("posteriors").unwrap().as_array().unwrap();
            let row: Vec<f64> = rows[0]
                .as_array()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect();
            // Batched-and-split answers must match a direct in-process
            // fold-in of the same document.
            let direct = assigner
                .assign(0, &SparseVec::new(indices, values).unwrap())
                .unwrap();
            assert_eq!(row.len(), direct.len());
            for (a, b) in row.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    let stats = gateway.stats();
    assert!(stats.requests >= 24, "requests {}", stats.requests);
    assert!(
        stats.coalesced_batches >= 1,
        "no cross-client coalescing happened"
    );
    assert!(stats.bytes > 0);
    assert!(stats.latency.count() >= 24);
}

#[test]
fn flooding_a_bounded_queue_sheds_with_429_not_oom() {
    let engine = Arc::new(ServeEngine::new(1));
    engine.register("m", shared_model().clone()).unwrap();
    let gateway = Gateway::bind(
        Arc::clone(&engine),
        GatewayConfig {
            queue_capacity: 1,
            wait_window: Duration::ZERO,
            // Every batch takes ≥40ms, so a 16-client burst must
            // overflow the 1-job queue regardless of scheduling.
            service_delay: Some(Duration::from_millis(40)),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let addr = gateway.addr();
    let dim = shared_model().feature_dims[0];

    let clients: Vec<_> = (0..16)
        .map(|c| {
            std::thread::spawn(move || {
                let body = format!("{{\"docs\":[{}]}}", doc_json(&[c % dim], &[1.0]));
                http(addr, "POST", "/v1/models/m/assign", Some(&body))
            })
        })
        .collect();

    let mut ok = 0u64;
    let mut shed = 0u64;
    for client in clients {
        let (status, headers, body) = client.join().unwrap();
        match status {
            200 => ok += 1,
            429 => {
                shed += 1;
                assert!(
                    headers.iter().any(|(k, _)| k == "retry-after"),
                    "429 without Retry-After"
                );
                assert!(body.contains("retry_after_ms"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    // Every client got a definitive answer (the joins above completing
    // *is* the no-hang proof) and overload surfaced as shedding.
    assert_eq!(ok + shed, 16);
    assert!(ok >= 1, "at least the queue leader must be served");
    assert!(shed >= 1, "a 1-deep queue cannot absorb a 16-client burst");
    assert_eq!(gateway.stats().shed, shed);
}

#[test]
fn lapsed_deadline_is_504_not_compute() {
    let engine = Arc::new(ServeEngine::new(1));
    engine.register("m", shared_model().clone()).unwrap();
    let gateway = Gateway::bind(
        Arc::clone(&engine),
        GatewayConfig {
            wait_window: Duration::ZERO,
            // The injected service delay always outlives a 1ms deadline.
            service_delay: Some(Duration::from_millis(30)),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let body = format!(
        "{{\"docs\":[{}],\"deadline_ms\":1}}",
        doc_json(&[0], &[1.0])
    );
    let (status, _, response) = http(gateway.addr(), "POST", "/v1/models/m/assign", Some(&body));
    assert_eq!(status, 504, "{response}");
    assert!(response.contains("deadline"), "{response}");
    assert_eq!(gateway.stats().shed, 1);
}

#[test]
fn routing_errors_health_and_metrics() {
    let engine = Arc::new(ServeEngine::new(1));
    let gateway = Gateway::bind(Arc::clone(&engine), GatewayConfig::default()).unwrap();
    let addr = gateway.addr();
    let body = format!("{{\"docs\":[{}]}}", doc_json(&[0], &[1.0]));

    // Unknown model → 404 with the serve-error taxonomy on the wire.
    let (status, _, resp) = http(addr, "POST", "/v1/models/nope/assign", Some(&body));
    assert_eq!(status, 404);
    assert!(resp.contains("not_found"), "{resp}");
    // Unknown route → 404; bad method on a known route → 405.
    assert_eq!(http(addr, "GET", "/nope", None).0, 404);
    assert_eq!(http(addr, "POST", "/healthz", None).0, 405);
    // Malformed JSON → 400 naming the problem.
    let (status, _, resp) = http(addr, "POST", "/v1/models/m/assign", Some("{not json"));
    assert_eq!(status, 400);
    assert!(resp.contains("bad_request"), "{resp}");

    // Live registration through the shared engine is visible without a
    // restart — the same path a StreamSession refit hot-swap takes.
    gateway
        .engine()
        .register("late", shared_model().clone())
        .unwrap();
    let (status, _, resp) = http(addr, "GET", "/v1/models", None);
    assert_eq!(status, 200);
    assert!(resp.contains("late"), "{resp}");
    // Registry entries carry method provenance (the fixture is an
    // RHCHME export; ensemble exports report "ensemble" the same way).
    assert!(resp.contains("\"method\":\"rhchme\""), "{resp}");
    let (status, _, resp) = http(addr, "POST", "/v1/models/late/assign", Some(&body));
    assert_eq!(status, 200, "{resp}");

    let (status, _, resp) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    for key in [
        "\"status\":\"ok\"",
        "latency_p50_us",
        "latency_p99_us",
        "\"shed\":",
    ] {
        assert!(resp.contains(key), "healthz missing {key}: {resp}");
    }
    let (status, _, resp) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        resp.contains("gateway_requests"),
        "prometheus dump missing gateway counters: {resp}"
    );
}

fn garbage_gateway() -> SocketAddr {
    static GW: OnceLock<Gateway> = OnceLock::new();
    GW.get_or_init(|| {
        let engine = Arc::new(ServeEngine::new(1));
        engine.register("m", shared_model().clone()).unwrap();
        Gateway::bind(
            engine,
            GatewayConfig {
                read_timeout: Duration::from_millis(500),
                ..GatewayConfig::default()
            },
        )
        .unwrap()
    })
    .addr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Arbitrary bytes on the socket can never kill the server: every
    // connection ends with either a response or a clean close, and the
    // gateway still answers /healthz afterwards. (Plain comments: the
    // vendored proptest! macro does not accept doc attributes.)
    #[test]
    fn garbage_bytes_never_panic_the_server(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let addr = garbage_gateway();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(Shutdown::Write);
        let mut sink = Vec::new();
        let _ = (&stream).take(64 * 1024).read_to_end(&mut sink);
        drop(stream);

        let (status, _, _) = http(addr, "GET", "/healthz", None);
        prop_assert_eq!(status, 200);
    }

    // Same over a well-formed POST whose *body* is arbitrary bytes:
    // the answer is a JSON error (or 200 if the fuzzer lucks into
    // valid JSON), never a dropped connection or a panic.
    #[test]
    fn garbage_assign_bodies_get_400(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let addr = garbage_gateway();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut request = format!(
            "POST /v1/models/m/assign HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
            bytes.len()
        ).into_bytes();
        request.extend_from_slice(&bytes);
        stream.write_all(&request).expect("send");
        let (status, _, _) = read_response(stream);
        prop_assert!(status == 400 || status == 200, "status {}", status);
    }
}
