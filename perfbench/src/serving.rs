//! The serving layers in the traced `stream_refresh` run: a `Gateway`
//! (HTTP/1.1 front end) over the `ServeEngine` the stream session
//! hot-swaps every refreshed model into. After each push, one keep-alive
//! client sends the batch's documents as single-document assign
//! requests, closed loop; every answer must be `200` and carry the
//! session's own fold-in label, and every 8th posterior must be
//! bit-equal to a direct `Assigner::assign`.
//!
//! This lives beside the stream workload rather than in a workload of
//! its own: the loopback round trip crosses four threads per request,
//! and on the 2-vCPU development box its median moved between 0.05 and
//! 0.2 ms with the host's load and idle states, far outside any bound
//! an end-to-end metric could keep.

use crate::bench::{ms, nproc, tail_percentile, timed, Outcome};
use mtrl_gateway::{Gateway, GatewayConfig};
use mtrl_serve::{Assigner, ServeEngine, SparseVec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Every how many requests the served posterior is compared bit for bit
/// with a direct `Assigner::assign`.
const VERIFY_EVERY: usize = 8;

/// A running gateway, its engine, and one client connection.
pub struct GatewayProbe {
    engine: Arc<ServeEngine>,
    gateway: Gateway,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    rtt_ms: Vec<f64>,
    busy: Duration,
}

/// The assign body for one document; values print in shortest
/// round-trip form, so the server parses back the exact bits.
fn body(doc: &SparseVec) -> String {
    let indices: Vec<String> = doc.indices.iter().map(|i| i.to_string()).collect();
    let values: Vec<String> = doc.values.iter().map(|v| format!("{v:?}")).collect();
    format!(
        "{{\"docs\":[{{\"indices\":[{}],\"values\":[{}]}}]}}",
        indices.join(","),
        values.join(",")
    )
}

/// One HTTP/1.1 exchange on a keep-alive connection: the status and body.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, Vec<u8>)> {
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(std::io::Error::other)?;
            }
        }
    }
    let mut buf = vec![0; length];
    reader.read_exact(&mut buf)?;
    Ok((status, buf))
}

/// The served label and posterior of a one-document answer.
fn parse_answer(body: &[u8]) -> Option<(usize, Vec<f64>)> {
    let v: serde_json::Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let label = v.get("labels")?.as_array()?.first()?.as_f64()? as usize;
    let posterior = v
        .get("posteriors")?
        .as_array()?
        .first()?
        .as_array()?
        .iter()
        .map(|p| p.as_f64())
        .collect::<Option<Vec<f64>>>()?;
    Some((label, posterior))
}

impl GatewayProbe {
    /// Bind a gateway (engine workers and responders capped at `nproc`)
    /// and connect one client.
    pub fn start(out: &mut Outcome) -> Option<GatewayProbe> {
        let threads = nproc();
        let engine = Arc::new(ServeEngine::with_queue_capacity(threads.min(2), 1024));
        let config = GatewayConfig {
            responders: threads.min(4),
            ..GatewayConfig::default()
        };
        let gateway = out.op("gateway bind", Gateway::bind(Arc::clone(&engine), config))?;
        let connected = TcpStream::connect(gateway.addr()).and_then(|s| {
            s.set_nodelay(true)?;
            let reader = BufReader::new(s.try_clone()?);
            Ok((s, reader))
        });
        let (stream, reader) = out.op("connect", connected)?;
        out.meta("client_connections", 1);
        out.meta("engine_workers", engine.num_workers());
        out.meta("gateway_responders", threads.min(4));
        Some(GatewayProbe {
            engine,
            gateway,
            stream,
            reader,
            rtt_ms: Vec::new(),
            busy: Duration::ZERO,
        })
    }

    /// The engine behind the gateway.
    pub fn engine(&self) -> Arc<ServeEngine> {
        Arc::clone(&self.engine)
    }

    /// Assign each of `docs` through `model` in its own request and check
    /// the answers against `expected` labels and `assigner`.
    pub fn assign_each(
        &mut self,
        out: &mut Outcome,
        model: &str,
        docs: &[SparseVec],
        expected: &[usize],
        assigner: &Assigner,
    ) {
        let path = format!("/v1/models/{model}/assign");
        for (d, (doc, &want)) in docs.iter().zip(expected).enumerate() {
            let body = body(doc);
            let (answer, t) = timed(|| exchange(&mut self.stream, &mut self.reader, &path, &body));
            self.busy += t;
            let Some((status, answer)) = out.op("assign request", answer) else {
                return;
            };
            self.rtt_ms.push(ms(t));
            if !out.check(status == 200, || format!("assign answered {status}")) {
                continue;
            }
            let Some((label, posterior)) = parse_answer(&answer) else {
                out.check(false, || format!("{model}: unparsable assign answer"));
                continue;
            };
            out.check(label == want, || {
                format!("{model}: served label {label} differs from the fold-in label {want}")
            });
            if self.rtt_ms.len().is_multiple_of(VERIFY_EVERY) {
                let same = assigner.assign(0, doc).is_ok_and(|p| {
                    p.len() == posterior.len()
                        && p.iter()
                            .zip(&posterior)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                out.check(same, || {
                    format!("{model} doc {d}: served posterior differs from Assigner::assign")
                });
            }
        }
    }

    /// Stop the gateway and report the serving layers' metrics.
    pub fn finish(mut self, out: &mut Outcome) {
        let gw = self.gateway.stats();
        let st = self.engine.stats();
        drop((self.stream, self.reader));
        self.gateway.shutdown();
        let n = self.rtt_ms.len();
        let (q, tail) = tail_percentile(&self.rtt_ms);
        out.meta("rtt_tail_quantile", q);
        out.metric("gateway.rtt_p50_ms", crate::bench::median(&self.rtt_ms), n);
        out.metric("gateway.rtt_p99_ms", tail, n);
        out.metric(
            "gateway.server_p50_ms",
            ms(gw.quantile(0.5)),
            gw.latency.count() as usize,
        );
        out.metric(
            "gateway.requests_per_s",
            n as f64 / self.busy.as_secs_f64(),
            n,
        );
        out.metric("gateway.coalesced_batches", gw.coalesced_batches as f64, 1);
        out.metric("gateway.shed", gw.shed as f64, 1);
        out.metric(
            "gateway.bytes_per_req",
            gw.bytes as f64 / gw.requests.max(1) as f64,
            1,
        );
        out.metric(
            "serve.p50_ms",
            ms(st.quantile(0.5)),
            st.latency.count() as usize,
        );
        out.metric(
            "serve.busy_us_per_req",
            st.busy.as_secs_f64() * 1e6 / st.requests.max(1) as f64,
            st.requests as usize,
        );
        out.metric("serve.errors", st.errors as f64, 1);
    }
}
