//! End-to-end HTTP/1.1 pipelining: a client may write several requests
//! back-to-back in one TCP segment before reading any response; the
//! gateway must answer every one, in order, on the same connection.

use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_gateway::{Gateway, GatewayConfig};
use mtrl_serve::ServeEngine;
use rhchme::rhchme::{Rhchme, RhchmeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn gateway_with_model() -> Gateway {
    let corpus = generate(&CorpusConfig {
        docs_per_class: vec![12, 12, 12],
        vocab_size: 120,
        concept_count: 40,
        doc_len_range: (30, 50),
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
    let model = rhchme.export_model(&result).expect("export");
    let engine = Arc::new(ServeEngine::new(2));
    engine.register("m", model).expect("register");
    Gateway::bind(engine, GatewayConfig::default()).expect("bind")
}

/// One assign request with `docs` single-term documents, as raw bytes
/// ready to concatenate into a pipelined segment.
fn assign_request(docs: usize, close: bool) -> String {
    let entries: Vec<String> = (0..docs)
        .map(|d| format!("{{\"indices\":[{d}],\"values\":[1.0]}}"))
        .collect();
    let body = format!("{{\"docs\":[{}]}}", entries.join(","));
    let connection = if close { "connection: close\r\n" } else { "" };
    format!(
        "POST /v1/models/m/assign HTTP/1.1\r\ncontent-length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

/// Read one response off the connection: status code and body text.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn two_pipelined_assigns_in_one_segment_answered_in_order() {
    let gateway = gateway_with_model();
    let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Both requests land in a single write (and, with nodelay, one
    // segment) before any response is read. Distinguishable doc counts
    // pin the response order to the request order.
    let segment = format!("{}{}", assign_request(1, false), assign_request(2, false));
    stream.write_all(segment.as_bytes()).expect("send burst");

    let (status_a, body_a) = read_response(&mut reader);
    let (status_b, body_b) = read_response(&mut reader);
    assert_eq!(status_a, 200, "{body_a}");
    assert_eq!(status_b, 200, "{body_b}");
    assert!(body_a.contains("\"count\":1"), "{body_a}");
    assert!(body_b.contains("\"count\":2"), "{body_b}");

    // The connection is still keep-alive: a third, unpipelined request
    // must work on the same socket.
    stream
        .write_all(assign_request(3, false).as_bytes())
        .expect("follow-up");
    let (status_c, body_c) = read_response(&mut reader);
    assert_eq!(status_c, 200, "{body_c}");
    assert!(body_c.contains("\"count\":3"), "{body_c}");
}

#[test]
fn pipelined_close_request_ends_the_connection_after_its_response() {
    let gateway = gateway_with_model();
    let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let segment = format!("{}{}", assign_request(1, false), assign_request(2, true));
    stream.write_all(segment.as_bytes()).expect("send burst");

    let (status_a, body_a) = read_response(&mut reader);
    let (status_b, body_b) = read_response(&mut reader);
    assert_eq!(status_a, 200, "{body_a}");
    assert_eq!(status_b, 200, "{body_b}");
    assert!(body_a.contains("\"count\":1"), "{body_a}");
    assert!(body_b.contains("\"count\":2"), "{body_b}");

    // `connection: close` on the second request: the gateway must shut
    // the connection down after answering it.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("eof");
    assert_eq!(n, 0, "expected EOF after a close-marked response");
}

#[test]
fn pipelined_mixed_methods_resolve_in_order() {
    let gateway = gateway_with_model();
    let mut stream = TcpStream::connect(gateway.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // assign + healthz + assign in one segment: immediate routes must
    // not jump the queue ahead of engine-bound ones.
    let segment = format!(
        "{}GET /healthz HTTP/1.1\r\n\r\n{}",
        assign_request(1, false),
        assign_request(2, false)
    );
    stream.write_all(segment.as_bytes()).expect("send burst");

    let (status_a, body_a) = read_response(&mut reader);
    let (status_b, body_b) = read_response(&mut reader);
    let (status_c, body_c) = read_response(&mut reader);
    assert_eq!((status_a, status_b, status_c), (200, 200, 200));
    assert!(body_a.contains("\"count\":1"), "{body_a}");
    assert!(body_b.contains("\"status\":\"ok\""), "{body_b}");
    assert!(body_c.contains("\"count\":2"), "{body_c}");
}
