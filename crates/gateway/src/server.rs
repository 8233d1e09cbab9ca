//! The gateway server: acceptor + per-connection threads in front of a
//! bounded coalescing queue, drained by one dispatcher that merges
//! jobs and a responder pool that resolves engine batches.
//!
//! # Request path
//!
//! ```text
//! accept ──► connection thread ──► admission ──► coalesce queue
//!                 ▲                   │  429 when full      │
//!                 │                   ▼                     ▼
//!                 │                          dispatcher: merge same
//!                 │                          (model, type_index) jobs
//!                 │                          within the wait window,
//!                 │                          one engine submit per
//!                 │                          batch; never blocks on
//!                 │                          compute
//!                 │                                  │ bounded channel
//!                 │                                  ▼
//!              response ◄── per-job reply ◄── responders: wait on the
//!                                             engine, split posterior
//!                                             rows back per wire job
//! ```
//!
//! # Admission control and shedding
//!
//! Memory is bounded at every stage: the HTTP parser caps head and body
//! bytes, the coalesce queue holds at most `queue_capacity` jobs
//! (excess is answered `429` with `Retry-After` *without* being
//! enqueued), and connections beyond `max_connections` are answered
//! `503` at accept. A job whose deadline lapses while queued is
//! answered `504` instead of being computed. Under overload the
//! gateway therefore degrades by rejecting quickly — it never buffers
//! unboundedly and never hangs a well-behaved client.
//!
//! # Coalescing
//!
//! The fold-in kernel is batch-oriented: one engine round trip for 64
//! documents costs far less than 64 round trips (see
//! `BENCH_gateway.json`). The dispatcher exploits that across *clients*:
//! it takes the oldest queued job as batch leader, then waits up to
//! `wait_window` for more jobs against the same `(model, type_index)`,
//! merging until `max_batch_docs` (or the leader's `batch_hint`) is
//! reached. The merged batch is one [`ServeEngine::submit`]; the
//! posterior rows are split back per job. `wait_window = 0` disables
//! coalescing (each job ships alone, no added latency).
//!
//! # Hot swap
//!
//! The gateway holds the same `Arc<ServeEngine>` the rest of the
//! process uses, so a live `StreamSession` refit that re-registers a
//! model swaps atomically under the gateway too: in-flight batches
//! finish on the assigner they resolved, later requests see the new
//! one, and no request ever observes a half-updated model.
//!
//! # Metrics
//!
//! `gateway.{requests,shed,coalesced_batches,bytes}` counters and the
//! `gateway.assign_latency_ns` histogram are recorded into the
//! process-global `mtrl-obs` registry *unconditionally* (the network
//! layer is cold next to fold-in compute, and `/metrics` must work
//! without `MTRL_OBS`). `/metrics` serves the Prometheus rendering of
//! that registry; `/healthz` serves a JSON snapshot with p50/p99.

use crate::http::{self, HttpError, Request, Response};
use crate::wire;
use mtrl_obs::{Histogram, HistogramSnapshot};
use mtrl_serve::{AssignRequest, AssignResponse, PendingAssign, ServeEngine, ServeError};
use serde::Value;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Gateway knobs. `Default` is tuned for tests and demos; production
/// callers should size `queue_capacity` and `max_connections` to their
/// memory budget.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Upper bound on how long a batch leader waits for co-batchable
    /// jobs. Zero disables coalescing. Rarely paid in full: the wait
    /// is skipped when only one connection is live (nobody to
    /// coalesce with) and cut short once a merge happened and the
    /// queue is drained.
    pub wait_window: Duration,
    /// Hard cap on documents merged into one engine submit.
    pub max_batch_docs: usize,
    /// Coalesce-queue capacity in jobs; arrivals beyond it are shed
    /// with `429 Retry-After`.
    pub queue_capacity: usize,
    /// Connections beyond this are answered `503` at accept.
    pub max_connections: usize,
    /// Socket I/O timeout, for reads and writes alike: it closes an
    /// idle keep-alive connection, and one whose client stops reading
    /// its responses, so neither holds a connection thread and a
    /// `max_connections` slot for longer.
    pub read_timeout: Duration,
    /// Responder threads: each blocks on one in-flight engine batch,
    /// so this bounds dispatch concurrency. The dispatcher itself is a
    /// single thread that never blocks on compute.
    pub responders: usize,
    /// `Retry-After` hint attached to shed responses.
    pub shed_retry_after: Duration,
    /// Fault injection: sleep this long before every engine submit.
    /// Lets tests fill the queue deterministically; `None` in
    /// production.
    pub service_delay: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            wait_window: Duration::from_micros(100),
            max_batch_docs: 512,
            queue_capacity: 256,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            responders: 4,
            shed_retry_after: Duration::from_millis(50),
            service_delay: None,
        }
    }
}

/// Point-in-time gateway counters (mirrors of the `gateway.*` obs
/// metrics, readable without the global registry).
#[derive(Debug, Clone)]
pub struct GatewayStats {
    /// HTTP requests routed (any endpoint, any outcome).
    pub requests: u64,
    /// Assign jobs shed by the *gateway*: queue full (`429`) or
    /// deadline lapsed in queue (`504`). Engine-level sheds are
    /// reported by `ServeEngine::stats` instead.
    pub shed: u64,
    /// Engine submits that merged two or more wire jobs.
    pub coalesced_batches: u64,
    /// Request body bytes in + response bytes out.
    pub bytes: u64,
    /// End-to-end assign latency (parse → reply), nanoseconds.
    pub latency: HistogramSnapshot,
}

impl GatewayStats {
    /// Assign latency quantile, e.g. `quantile(0.99)` for p99.
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }
}

struct Job {
    request: AssignRequest,
    reply: Sender<Result<AssignResponse, ServeError>>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    coalesced_batches: AtomicU64,
    bytes: AtomicU64,
    latency: Histogram,
}

struct Inner {
    engine: Arc<ServeEngine>,
    config: GatewayConfig,
    /// Recovered when poisoned rather than propagated: every critical
    /// section moves whole jobs in or out, so the queue is valid at
    /// every step, whoever panics while holding it.
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    connections: AtomicUsize,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Inner {
    fn bump(&self, local: &AtomicU64, obs_name: &str, delta: u64) {
        local.fetch_add(delta, Ordering::Relaxed);
        mtrl_obs::global().add(obs_name, delta);
    }

    fn record_shed(&self) {
        self.bump(&self.counters.shed, "gateway.shed", 1);
    }

    fn record_latency(&self, elapsed: Duration) {
        self.counters.latency.record_duration(elapsed);
        mtrl_obs::global().record_hist(
            "gateway.assign_latency_ns",
            elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
    }

    /// Admission control: reject (`Overloaded`/`Shutdown`) without
    /// enqueueing anything, or enqueue and hand back the reply channel.
    fn enqueue(
        &self,
        request: AssignRequest,
    ) -> Result<Receiver<Result<AssignResponse, ServeError>>, ServeError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let (tx, rx) = channel();
        {
            let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            if queue.len() >= self.config.queue_capacity {
                drop(queue);
                self.record_shed();
                return Err(ServeError::Overloaded {
                    retry_after: self.config.shed_retry_after,
                });
            }
            queue.push_back(Job { request, reply: tx });
        }
        self.queue_cv.notify_one();
        Ok(rx)
    }
}

/// `ServeError` is not `Clone` (it can wrap `io::Error`); batched jobs
/// that fail together each need their own copy of the failure.
fn replicate_error(err: &ServeError) -> ServeError {
    match err {
        ServeError::Io(e) => ServeError::Corrupt(format!("engine io error: {e}")),
        ServeError::Corrupt(m) => ServeError::Corrupt(m.clone()),
        ServeError::SchemaVersion { found, supported } => ServeError::SchemaVersion {
            found: *found,
            supported: *supported,
        },
        ServeError::NotFound(m) => ServeError::NotFound(m.clone()),
        ServeError::BadRequest(m) => ServeError::BadRequest(m.clone()),
        ServeError::Overloaded { retry_after } => ServeError::Overloaded {
            retry_after: *retry_after,
        },
        ServeError::Deadline { exceeded_by } => ServeError::Deadline {
            exceeded_by: *exceeded_by,
        },
        ServeError::Shutdown => ServeError::Shutdown,
    }
}

/// One dispatched batch: the engine handle plus how to split the
/// answer back per wire job.
struct InFlight {
    pending: PendingAssign,
    counts: Vec<usize>,
    replies: Vec<Sender<Result<AssignResponse, ServeError>>>,
}

fn dispatcher_loop(inner: Arc<Inner>, batch_tx: SyncSender<InFlight>) {
    loop {
        let mut batch: Vec<Job> = Vec::new();
        {
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Wait for a leader. Pending jobs are drained even during
            // shutdown (the pop precedes the shutdown check), so every
            // accepted request gets an answer.
            loop {
                if let Some(job) = queue.pop_front() {
                    batch.push(job);
                    break;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
            let model = batch[0].request.model.clone();
            let type_index = batch[0].request.type_index;
            let doc_cap = batch[0]
                .request
                .batch_hint
                .unwrap_or(inner.config.max_batch_docs)
                .min(inner.config.max_batch_docs);
            let mut doc_total = batch[0].request.num_docs();
            // The window only opens when another connection is live:
            // with a single client there is nobody to coalesce with,
            // and a lone caller must not pay the wait as latency.
            let window = if inner.connections.load(Ordering::Relaxed) > 1 {
                inner.config.wait_window
            } else {
                Duration::ZERO
            };
            let window_end = Instant::now() + window;
            loop {
                // Sweep co-batchable jobs, preserving queue order for
                // the rest.
                let mut i = 0;
                while i < queue.len() && doc_total < doc_cap {
                    let matches = queue[i].request.model == model
                        && queue[i].request.type_index == type_index;
                    if matches {
                        let job = queue.remove(i).expect("index in bounds");
                        doc_total += job.request.num_docs();
                        batch.push(job);
                    } else {
                        i += 1;
                    }
                }
                if doc_total >= doc_cap || inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // Once at least one co-batch job is merged and the
                // queue is swept dry, ship: while this batch computes,
                // the next burst accumulates behind it (self-clocking
                // batching), so holding the window open any longer
                // would only add latency.
                if batch.len() > 1 && queue.is_empty() {
                    break;
                }
                let now = Instant::now();
                if now >= window_end {
                    break;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(queue, window_end - now)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        }
        dispatch_batch(&inner, batch, &batch_tx);
    }
}

/// Merge a batch into one engine submit and hand the in-flight handle
/// to the responder pool. The bounded channel is the backpressure
/// link: with every responder busy and its buffer full, the dispatcher
/// blocks here, the coalesce queue backs up, and admission control
/// starts shedding — overload never turns into unbounded in-flight
/// work.
fn dispatch_batch(inner: &Inner, batch: Vec<Job>, batch_tx: &SyncSender<InFlight>) {
    if let Some(delay) = inner.config.service_delay {
        thread::sleep(delay);
    }
    // Enforce deadlines at dispatch: a job that waited past its budget
    // is answered 504 instead of burning compute on an answer nobody
    // is waiting for.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        match job.request.deadline {
            Some(d) if now > d => {
                inner.record_shed();
                let _ = job.reply.send(Err(ServeError::Deadline {
                    exceeded_by: now - d,
                }));
            }
            _ => live.push(job),
        }
    }
    if live.is_empty() {
        return;
    }
    if live.len() > 1 {
        inner.bump(
            &inner.counters.coalesced_batches,
            "gateway.coalesced_batches",
            1,
        );
    }

    let model = live[0].request.model.clone();
    let type_index = live[0].request.type_index;
    let counts: Vec<usize> = live.iter().map(|j| j.request.num_docs()).collect();
    let mut docs = Vec::with_capacity(counts.iter().sum());
    let mut replies = Vec::with_capacity(live.len());
    for job in live {
        docs.extend(job.request.into_docs());
        replies.push(job.reply);
    }
    // Deadlines were enforced above; the merged request carries none so
    // one lagging job cannot expire the whole batch inside the engine.
    let merged = AssignRequest::new(model).type_index(type_index).docs(docs);
    let pending = inner.engine.submit(merged);
    if let Err(failed) = batch_tx.send(InFlight {
        pending,
        counts,
        replies,
    }) {
        // Responders are gone, which only happens during shutdown.
        for reply in failed.0.replies {
            let _ = reply.send(Err(ServeError::Shutdown));
        }
    }
}

fn responder_loop(batch_rx: Arc<Mutex<Receiver<InFlight>>>) {
    loop {
        // Take the lock only to receive; waiting on the engine happens
        // outside it so responders resolve batches in parallel.
        // The receiver is only ever used to `recv`, so a poisoned lock
        // still guards a whole channel.
        let message = {
            let rx = batch_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(InFlight {
            pending,
            counts,
            replies,
        }) = message
        else {
            return;
        };
        match pending.wait() {
            Ok(response) => {
                let mut offset = 0;
                for (count, reply) in counts.into_iter().zip(replies) {
                    let slice = AssignResponse {
                        posteriors: response.posteriors[offset..offset + count].to_vec(),
                        labels: response.labels[offset..offset + count].to_vec(),
                        latency: response.latency,
                    };
                    offset += count;
                    let _ = reply.send(Ok(slice));
                }
            }
            Err(err) => {
                for reply in replies {
                    let _ = reply.send(Err(replicate_error(&err)));
                }
            }
        }
    }
}

fn error_response(err: &ServeError) -> Response {
    let mut response = Response::json(err.http_status(), wire::error_json(err));
    if let Some(retry) = err.retry_after() {
        // Retry-After is whole seconds on the wire; round up so the
        // hint is never an understatement. The JSON body carries the
        // millisecond-precision value.
        let secs = retry.as_secs() + u64::from(retry.subsec_nanos() > 0);
        response = response.header("retry-after", secs.max(1).to_string());
    }
    response
}

/// A routed request whose response may still be in flight.
///
/// Assignments split into an *enqueue* phase (parse + admission, done
/// while later pipelined requests are still being drained from the
/// read buffer) and a *resolve* phase (wait on the engine reply).
/// Enqueueing a whole pipelined burst before resolving lets the
/// dispatcher coalesce the burst into one engine batch instead of
/// serialising a round trip per request. Everything else resolves
/// immediately.
enum PendingResponse {
    Ready(Response),
    Assign {
        model: String,
        t0: Instant,
        rx: Receiver<Result<AssignResponse, ServeError>>,
    },
}

/// Enqueue phase of an assignment: parse the wire request and admit it
/// to the coalesce queue without waiting for the engine.
fn start_assign(inner: &Inner, path: &str, body: &[u8]) -> PendingResponse {
    let rest = &path["/v1/models/".len()..];
    let Some(model) = rest.strip_suffix("/assign") else {
        return PendingResponse::Ready(error_response(&ServeError::NotFound(path.to_string())));
    };
    if model.is_empty() || model.contains('/') {
        return PendingResponse::Ready(error_response(&ServeError::NotFound(path.to_string())));
    }
    let t0 = Instant::now();
    match wire::parse_assign(model, body).and_then(|request| inner.enqueue(request)) {
        Ok(rx) => PendingResponse::Assign {
            model: model.to_string(),
            t0,
            rx,
        },
        Err(err) => {
            inner.record_latency(t0.elapsed());
            PendingResponse::Ready(error_response(&err))
        }
    }
}

/// Resolve phase: block on the engine reply (if any) and render it.
fn resolve_response(inner: &Inner, pending: PendingResponse) -> Response {
    match pending {
        PendingResponse::Ready(response) => response,
        PendingResponse::Assign { model, t0, rx } => {
            let result = rx
                .recv()
                .map_err(|_| ServeError::Shutdown)
                .and_then(|reply| reply);
            inner.record_latency(t0.elapsed());
            match result {
                Ok(response) => Response::json(200, wire::assign_response_json(&model, &response)),
                Err(err) => error_response(&err),
            }
        }
    }
}

fn health_json(inner: &Inner) -> String {
    let latency = inner.counters.latency.snapshot();
    let models = inner.engine.model_names();
    let value = Value::Object(vec![
        ("status".into(), Value::String("ok".into())),
        (
            "models".into(),
            Value::Array(models.into_iter().map(Value::String).collect()),
        ),
        (
            "queue_depth".into(),
            Value::Number(inner.queue.lock().unwrap_or_else(|e| e.into_inner()).len() as f64),
        ),
        (
            "requests".into(),
            Value::Number(inner.counters.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "shed".into(),
            Value::Number(inner.counters.shed.load(Ordering::Relaxed) as f64),
        ),
        (
            "coalesced_batches".into(),
            Value::Number(inner.counters.coalesced_batches.load(Ordering::Relaxed) as f64),
        ),
        (
            "latency_p50_us".into(),
            Value::Number(latency.quantile(0.5) as f64 / 1e3),
        ),
        (
            "latency_p99_us".into(),
            Value::Number(latency.quantile(0.99) as f64 / 1e3),
        ),
    ]);
    serde_json::to_string(&value).expect("value tree serialises")
}

/// Route a parsed request: bump the request counter, start assignments
/// (enqueue only), answer everything else immediately.
fn route(inner: &Inner, request: &Request) -> PendingResponse {
    inner.bump(&inner.counters.requests, "gateway.requests", 1);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", path) if path.starts_with("/v1/models/") => {
            start_assign(inner, path, &request.body)
        }
        _ => PendingResponse::Ready(route_immediate(inner, request)),
    }
}

/// The non-assign routes, all of which resolve without the engine.
fn route_immediate(inner: &Inner, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, health_json(inner)),
        ("GET", "/metrics") => {
            Response::text(200, mtrl_obs::export::prometheus_text(mtrl_obs::global()))
        }
        ("GET", "/v1/models") => {
            // Each entry carries the model's method provenance (`src`,
            // `rhchme`, `ensemble`, …) — `null` for models exported
            // before provenance existed.
            let models = Value::Array(
                inner
                    .engine
                    .model_methods()
                    .into_iter()
                    .map(|(name, method)| {
                        Value::Object(vec![
                            ("name".into(), Value::String(name)),
                            ("method".into(), method.map_or(Value::Null, Value::String)),
                        ])
                    })
                    .collect(),
            );
            let body = Value::Object(vec![("models".into(), models)]);
            Response::json(200, serde_json::to_string(&body).expect("value tree"))
        }
        (_, "/healthz" | "/metrics" | "/v1/models") => Response::json(
            405,
            wire::error_json(&ServeError::BadRequest("method not allowed".into())),
        ),
        _ => error_response(&ServeError::NotFound(request.path.clone())),
    }
}

/// Most requests accepted per pipelined burst before responses are
/// written; bounds the per-connection pending set.
const MAX_PIPELINE: usize = 32;

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // One blocking read yields the burst leader; parse errors
        // produce an error response and close the connection, exactly
        // as before pipelining.
        let mut batch: Vec<(PendingResponse, bool, usize)> = Vec::new();
        let mut keep_alive = match http::read_request(&mut reader) {
            Ok(request) => {
                let keep = !request.wants_close();
                batch.push((route(inner, &request), keep, request.body.len()));
                keep
            }
            Err(HttpError::Closed) | Err(HttpError::Io) => return,
            Err(HttpError::Malformed(msg)) => {
                let response = error_response(&ServeError::BadRequest(msg));
                batch.push((PendingResponse::Ready(response), false, 0));
                false
            }
            Err(HttpError::HeadTooLarge) => {
                let response = Response::json(
                    431,
                    wire::error_json(&ServeError::BadRequest("header block too large".into())),
                );
                batch.push((PendingResponse::Ready(response), false, 0));
                false
            }
            Err(HttpError::BodyTooLarge) => {
                let response = Response::json(
                    413,
                    wire::error_json(&ServeError::BadRequest("body too large".into())),
                );
                batch.push((PendingResponse::Ready(response), false, 0));
                false
            }
        };
        // HTTP/1.1 pipelining: drain further *complete* requests the
        // leader's socket read already buffered, enqueueing each before
        // any response is written (one coalescing window for the whole
        // burst). A partial or malformed tail is left buffered for the
        // next blocking read — only fully parsed requests are consumed.
        while keep_alive && batch.len() < MAX_PIPELINE {
            let buffered = reader.buffer();
            if buffered.is_empty() {
                break;
            }
            let mut cursor = Cursor::new(buffered);
            let Ok(request) = http::read_request(&mut cursor) else {
                break;
            };
            let consumed = cursor.position() as usize;
            keep_alive = !request.wants_close();
            reader.consume(consumed);
            batch.push((route(inner, &request), keep_alive, request.body.len()));
        }
        // Responses go out strictly in request order.
        for (pending, keep, body_in) in batch {
            let response = resolve_response(inner, pending);
            match response.write_to(&mut writer, keep) {
                Ok(bytes_out) => {
                    inner.bump(
                        &inner.counters.bytes,
                        "gateway.bytes",
                        (body_in + bytes_out) as u64,
                    );
                }
                Err(_) => return,
            }
            if !keep {
                return;
            }
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        if inner.connections.fetch_add(1, Ordering::AcqRel) >= inner.config.max_connections {
            inner.connections.fetch_sub(1, Ordering::AcqRel);
            // Best-effort refusal; the client may already be gone.
            let mut stream = stream;
            let _ = Response::json(
                503,
                wire::error_json(&ServeError::Overloaded {
                    retry_after: inner.config.shed_retry_after,
                }),
            )
            .write_to(&mut stream, false);
            let _ = stream.flush();
            continue;
        }
        let inner_conn = Arc::clone(&inner);
        let spawned = thread::Builder::new()
            .name("gw-conn".to_string())
            .spawn(move || {
                handle_connection(&inner_conn, stream);
                inner_conn.connections.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            inner.connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A running gateway. Dropping it shuts the server down (acceptor and
/// batchers joined; open connections finish their in-flight exchange
/// and then observe the shutdown flag).
pub struct Gateway {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    responders: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Bind `config.addr` and start serving `engine`'s models.
    ///
    /// # Errors
    /// Propagates socket bind/inspect failures.
    pub fn bind(engine: Arc<ServeEngine>, config: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let responder_count = config.responders.max(1);
        let inner = Arc::new(Inner {
            engine,
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            connections: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        // The channel bound caps in-flight batches at ~2× the
        // responder count; see `dispatch_batch` for why this bound is
        // the gateway's backpressure link.
        let (batch_tx, batch_rx) = sync_channel::<InFlight>(responder_count);
        let batch_rx = Arc::new(Mutex::new(batch_rx));
        let mut responders = Vec::with_capacity(responder_count);
        for i in 0..responder_count {
            let rx = Arc::clone(&batch_rx);
            responders.push(
                thread::Builder::new()
                    .name(format!("gw-respond-{i}"))
                    .spawn(move || responder_loop(rx))
                    .expect("spawn gateway responder"),
            );
        }
        let inner_d = Arc::clone(&inner);
        let dispatcher = thread::Builder::new()
            .name("gw-dispatch".to_string())
            .spawn(move || dispatcher_loop(inner_d, batch_tx))
            .expect("spawn gateway dispatcher");
        let inner_a = Arc::clone(&inner);
        let acceptor = thread::Builder::new()
            .name("gw-accept".to_string())
            .spawn(move || accept_loop(inner_a, listener))
            .expect("spawn gateway acceptor");
        Ok(Gateway {
            inner,
            addr,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
            responders,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the gateway. Registering / re-registering
    /// models here (e.g. from a `StreamSession` refit) hot-swaps them
    /// for network callers atomically.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.inner.engine
    }

    /// Snapshot the gateway counters.
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            requests: self.inner.counters.requests.load(Ordering::Relaxed),
            shed: self.inner.counters.shed.load(Ordering::Relaxed),
            coalesced_batches: self
                .inner
                .counters
                .coalesced_batches
                .load(Ordering::Relaxed),
            bytes: self.inner.counters.bytes.load(Ordering::Relaxed),
            latency: self.inner.counters.latency.snapshot(),
        }
    }

    /// Stop accepting, drain queued jobs, and join the server threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.queue_cv.notify_all();
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // The dispatcher drains the queue and exits, dropping its
        // channel end; the responders then finish in-flight batches
        // and see the hangup.
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        for handle in self.responders.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A small fitted RHCHME model.
    fn tiny_model() -> rhchme::export::FittedModel {
        let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
            docs_per_class: vec![8, 8, 8],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 45),
            background_frac: 0.25,
            topic_noise: 0.25,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 23,
        });
        let rhchme = rhchme::rhchme::Rhchme::new(rhchme::rhchme::RhchmeConfig {
            lambda: 1.0,
            ..rhchme::rhchme::RhchmeConfig::fast()
        });
        let result = rhchme.fit_corpus(&corpus).expect("fit");
        rhchme.export_model(&result, &corpus).expect("export")
    }

    /// Send one request on a fresh connection and read the whole answer:
    /// its status code and body. `None` when the server hangs up without
    /// a status line.
    fn exchange(addr: SocketAddr, head: &str, body: &str) -> Option<(u16, String)> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client read timeout");
        let request = format!(
            "{head} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).ok()?;
        let mut answer = String::new();
        stream.read_to_string(&mut answer).ok()?;
        let status = answer.split_whitespace().nth(1)?.parse().ok()?;
        let (_, body) = answer.split_once("\r\n\r\n")?;
        Some((status, body.to_string()))
    }

    const ASSIGN_BODY: &str =
        r#"{"docs":[{"indices":[0,3],"values":[1.0,0.5]},{"indices":[5],"values":[2.0]}]}"#;

    #[test]
    fn a_poisoned_queue_is_recovered() {
        let model = tiny_model();
        let engine = Arc::new(ServeEngine::new(2));
        engine.register("m", model.clone()).expect("register");
        let gateway = Gateway::bind(engine, GatewayConfig::default()).expect("bind");
        let addr = gateway.addr();
        assert_eq!(
            exchange(addr, "POST /v1/models/m/assign", ASSIGN_BODY).map(|a| a.0),
            Some(200)
        );

        let inner = Arc::clone(&gateway.inner);
        let panicked = thread::spawn(move || {
            let _queue = inner.queue.lock().unwrap();
            panic!("a thread dies holding the gateway queue");
        })
        .join();
        assert!(panicked.is_err());
        assert!(gateway.inner.queue.is_poisoned());

        let (status, body) = exchange(addr, "GET /healthz", "").expect("healthz answers");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"queue_depth\""), "{body}");
        // Admission, the dispatcher's wait and the responders still run.
        gateway
            .engine()
            .register("m2", model)
            .expect("register after the poisoning");
        for model in ["m", "m2"] {
            let (status, body) = exchange(
                addr,
                &format!("POST /v1/models/{model}/assign"),
                ASSIGN_BODY,
            )
            .expect("assign answers");
            assert_eq!(status, 200, "{model}: {body}");
            assert!(body.contains("\"labels\""), "{model}: {body}");
        }
    }

    #[test]
    fn clients_that_stop_reading_release_their_connection_slots() {
        let gateway = Gateway::bind(
            Arc::new(ServeEngine::new(1)),
            GatewayConfig {
                max_connections: 2,
                read_timeout: Duration::from_millis(300),
                ..GatewayConfig::default()
            },
        )
        .expect("bind");
        let addr = gateway.addr();
        // Each flooder pipelines health checks and never reads an answer,
        // until its own writes stall: the loopback buffers are full both
        // ways, so the server's connection thread is stuck writing.
        let burst = "GET /healthz HTTP/1.1\r\n\r\n".repeat(1024);
        let flooders: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_write_timeout(Some(Duration::from_millis(500)))
                    .expect("client write timeout");
                let mut sent = 0usize;
                while stream.write_all(burst.as_bytes()).is_ok() {
                    sent += burst.len();
                    assert!(sent < 1 << 30, "the server never stopped reading");
                }
                stream
            })
            .collect();

        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match exchange(addr, "GET /healthz", "") {
                Some((200, _)) => break,
                other => assert!(
                    Instant::now() < deadline,
                    "a third client is still refused: {other:?}"
                ),
            }
            thread::sleep(Duration::from_millis(50));
        }
        drop(flooders);
    }
}
