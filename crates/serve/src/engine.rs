//! The concurrent serving engine.
//!
//! [`ServeEngine`] owns a registry of named fitted models and a pool of
//! std-only worker threads draining [`AssignRequest`] batches from an
//! mpsc queue. Requests are submitted without blocking
//! ([`ServeEngine::submit`] returns a [`PendingAssign`] handle); callers
//! that want synchronous behaviour use [`ServeEngine::assign`], a thin
//! wrapper over `submit(...).wait()`.
//!
//! # One request shape for every caller
//!
//! [`AssignRequest`] is a builder and it is the *only* request shape in
//! the system: in-process callers hand it to [`ServeEngine::submit`],
//! and the network gateway (`mtrl-gateway`) parses its wire JSON into
//! the same builder before handing it to the same engine. Model name,
//! object type, document batch, batch hint and deadline therefore mean
//! exactly the same thing on both paths, and failures surface as the
//! same [`ServeError`] taxonomy (see `error` module docs for the 1:1
//! HTTP status mapping).
//!
//! # Admission control
//!
//! An engine built with [`ServeEngine::with_queue_capacity`] bounds its
//! queue: a submit that would exceed the bound is *shed* — the handle
//! resolves immediately to [`ServeError::Overloaded`] with a retry
//! hint, and nothing is enqueued (memory stays bounded under overload).
//! A request whose deadline ([`AssignRequest::deadline_in`]) has passed
//! by the time a worker picks it up resolves to [`ServeError::Deadline`]
//! without being processed. Both count into the `shed` statistic.
//!
//! Counters: every processed batch bumps request/document/latency
//! counters and a log-bucketed latency histogram (atomics — the hot
//! path takes no lock except the brief receiver lock to pop a job),
//! exposed as a [`StatsSnapshot`] with p50/p99/max extraction. When
//! `MTRL_OBS` is on, the same observations are mirrored into the
//! global `mtrl-obs` registry under `serve.requests`,
//! `serve.documents`, `serve.errors`, `serve.shed`, `serve.panics`
//! (counters) and `serve.latency_ns`, `serve.busy_ns` (histograms).
//!
//! A job that panics inside a worker resolves to
//! [`ServeError::Internal`] and counts as an error (and in
//! `serve.panics`); the worker catches the panic and keeps serving, so
//! the pool never shrinks.
//!
//! Shutdown: dropping the engine closes the queue, lets the workers
//! drain what they already accepted, and joins them.

use crate::assign::{Assigner, SparseVec};
use crate::error::ServeError;
use mtrl_obs::{Histogram, HistogramSnapshot};
use rhchme::export::FittedModel;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A batch of unseen objects to fold into one registered model — the
/// single request shape shared by the in-process API and the gateway
/// wire API.
///
/// Build one with the fluent constructor chain:
///
/// ```ignore
/// let request = AssignRequest::new("prod-model")
///     .type_index(0)
///     .docs(batch)
///     .batch_hint(64)
///     .deadline_in(Duration::from_millis(20));
/// ```
///
/// The struct is `#[non_exhaustive]`: downstream crates read the fields
/// but must construct through the builder, so new knobs (like
/// `batch_hint` and `deadline`) can be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AssignRequest {
    /// Name the model was registered under.
    pub model: String,
    /// Which object type the documents belong to (0 = documents in the
    /// canonical corpus layout).
    pub type_index: usize,
    /// The batch, each a sparse vector over that type's feature view.
    pub docs: Vec<SparseVec>,
    /// Preferred fold-in batch size for coalescing layers. The engine
    /// itself processes the batch as-is; the gateway's coalescer uses
    /// the hint as an upper bound when merging concurrent requests.
    pub batch_hint: Option<usize>,
    /// Absolute deadline. A request still queued past its deadline is
    /// abandoned with [`ServeError::Deadline`] instead of being served
    /// (work already running is not interrupted).
    pub deadline: Option<Instant>,
}

impl AssignRequest {
    /// Start a request for the named model (type 0, no docs yet).
    pub fn new(model: impl Into<String>) -> Self {
        AssignRequest {
            model: model.into(),
            type_index: 0,
            docs: Vec::new(),
            batch_hint: None,
            deadline: None,
        }
    }

    /// Select the object type the documents belong to.
    #[must_use]
    pub fn type_index(mut self, type_index: usize) -> Self {
        self.type_index = type_index;
        self
    }

    /// Replace the document batch.
    #[must_use]
    pub fn docs(mut self, docs: Vec<SparseVec>) -> Self {
        self.docs = docs;
        self
    }

    /// Hint the preferred fold-in batch size to coalescing layers.
    #[must_use]
    pub fn batch_hint(mut self, hint: usize) -> Self {
        self.batch_hint = Some(hint.max(1));
        self
    }

    /// Set a deadline relative to now.
    #[must_use]
    pub fn deadline_in(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Number of documents in the batch.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Consume the request, keeping only the batch — used by coalescing
    /// layers that merge several requests into one.
    pub fn into_docs(self) -> Vec<SparseVec> {
        self.docs
    }
}

/// The result of one [`AssignRequest`].
#[derive(Debug, Clone)]
pub struct AssignResponse {
    /// Posterior over clusters for every input, in order.
    pub posteriors: Vec<Vec<f64>>,
    /// Hard labels (posterior argmax), same order.
    pub labels: Vec<usize>,
    /// Queue + compute time from submission to completion.
    pub latency: Duration,
}

/// Handle to a submitted request; resolve it with [`PendingAssign::wait`].
pub struct PendingAssign {
    rx: Receiver<Result<AssignResponse, ServeError>>,
}

impl PendingAssign {
    /// Block until the engine has processed (or shed) the request.
    ///
    /// # Errors
    /// Propagates assignment errors; returns [`ServeError::Shutdown`] if
    /// the engine dropped the request while shutting down.
    pub fn wait(self) -> Result<AssignResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Shutdown)?
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    documents: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    busy_nanos: AtomicU64,
    latency_nanos: AtomicU64,
    // Always-on (independent of MTRL_OBS): recording is a handful of
    // relaxed atomic bumps, and p50/p99 must be available from
    // `stats()` unconditionally.
    latency_hist: Histogram,
}

/// Point-in-time view of the engine counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Successfully processed requests.
    pub requests: u64,
    /// Documents assigned across all successful requests.
    pub documents: u64,
    /// Requests that returned an error (including shed ones).
    pub errors: u64,
    /// Requests dropped by admission control: queue at capacity
    /// ([`ServeError::Overloaded`]) or deadline expired in queue
    /// ([`ServeError::Deadline`]). Subset of `errors`.
    pub shed: u64,
    /// Total worker compute time (sum over workers).
    pub busy: Duration,
    /// Total submission-to-completion latency (sum over requests).
    pub total_latency: Duration,
    /// Per-request submission-to-completion latency distribution
    /// (nanoseconds); source for [`StatsSnapshot::quantile`].
    pub latency: HistogramSnapshot,
}

impl StatsSnapshot {
    /// Latency quantile (`q ∈ [0, 1]`), e.g. `quantile(0.99)` for p99.
    /// Resolution is one histogram bucket (≤ ~3.2% relative error).
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }

    /// Slowest observed request.
    pub fn max_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.max())
    }

    /// Documents per second of worker compute time.
    pub fn throughput(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.documents as f64 / secs
        }
    }
}

struct Job {
    request: AssignRequest,
    submitted: Instant,
    reply: Sender<Result<AssignResponse, ServeError>>,
}

/// Both locks are recovered when poisoned rather than propagated: every
/// critical section is one `insert`, `remove`, lookup or `recv`, so a
/// thread that panics while holding a lock leaves the data whole.
struct Inner {
    models: RwLock<HashMap<String, Arc<Assigner>>>,
    queue: Mutex<Receiver<Job>>,
    /// Requests accepted but not yet picked up by a worker.
    queue_depth: AtomicUsize,
    /// `usize::MAX` = unbounded (the [`ServeEngine::new`] default).
    queue_capacity: usize,
    counters: Counters,
}

/// Multi-model, multi-threaded fold-in server.
pub struct ServeEngine {
    inner: Arc<Inner>,
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

/// Retry hint attached to shed requests: half a queue-drain at the
/// measured fold-in rate is far below this, so a constant conservative
/// hint keeps the contract simple and honest.
const SHED_RETRY_AFTER: Duration = Duration::from_millis(50);

impl ServeEngine {
    /// Spin up an engine with `workers` threads (at least one) and an
    /// unbounded queue — the embedded/in-process default, where the
    /// caller controls its own submission rate.
    pub fn new(workers: usize) -> Self {
        Self::build(workers, usize::MAX)
    }

    /// Spin up an engine whose queue admits at most `capacity` pending
    /// requests. A submit beyond the bound is shed immediately with
    /// [`ServeError::Overloaded`] — nothing is enqueued, so memory
    /// stays bounded no matter how fast callers push.
    pub fn with_queue_capacity(workers: usize, capacity: usize) -> Self {
        Self::build(workers, capacity.max(1))
    }

    fn build(workers: usize, queue_capacity: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let inner = Arc::new(Inner {
            models: RwLock::new(HashMap::new()),
            queue: Mutex::new(rx),
            queue_depth: AtomicUsize::new(0),
            queue_capacity,
            counters: Counters::default(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mtrl-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a serve worker")
            })
            .collect();
        ServeEngine {
            inner,
            tx: Some(tx),
            workers,
        }
    }

    /// Register (or replace) a model under a name. The model is wrapped
    /// in an [`Assigner`], which validates it.
    ///
    /// Re-registering an existing name is an **atomic hot-swap** — the
    /// streaming refresh path (`mtrl-stream`) relies on these semantics
    /// to roll a refitted model into a live engine:
    ///
    /// * the fully-validated `Arc<Assigner>` replaces the old one in a
    ///   single map insert under the registry write lock, so a
    ///   concurrent request resolves either the old model or the new
    ///   one, never a partially-initialised state (no torn read);
    /// * in-flight requests that already resolved their `Arc` finish
    ///   against the old model (it is freed when the last of them
    ///   drops it); requests submitted after the swap see the new one;
    /// * a swap never errors a request: there is no gap in which the
    ///   name is unregistered.
    ///
    /// # Errors
    /// Returns [`ServeError::Corrupt`] for a model that fails validation
    /// (in which case the previously registered model, if any, stays in
    /// place untouched).
    pub fn register(&self, name: impl Into<String>, model: FittedModel) -> Result<(), ServeError> {
        self.register_shared(name, Arc::new(Assigner::new(model)?));
        Ok(())
    }

    /// Register (or hot-swap, same semantics as [`Self::register`]) a
    /// pre-built assigner without cloning or re-validating its model —
    /// the zero-copy path for callers that already hold a validated
    /// `Arc<Assigner>` they keep using themselves, like the streaming
    /// refresh loop (`mtrl-stream`).
    pub fn register_shared(&self, name: impl Into<String>, assigner: Arc<Assigner>) {
        self.inner
            .models
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.into(), assigner);
    }

    /// Names of all registered models (sorted).
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Registered models with their method provenance, sorted by name.
    /// The method is `None` for models exported before provenance
    /// existed (schema-tolerant: every load path accepts its absence).
    pub fn model_methods(&self) -> Vec<(String, Option<String>)> {
        let mut entries: Vec<(String, Option<String>)> = self
            .inner
            .models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, assigner)| (name.clone(), assigner.model().method.clone()))
            .collect();
        entries.sort();
        entries
    }

    /// Enqueue a request; returns immediately with a wait handle.
    ///
    /// Admission control happens here: on a bounded engine with a full
    /// queue the request is shed — the returned handle resolves at once
    /// to [`ServeError::Overloaded`] and no memory is retained for it.
    pub fn submit(&self, request: AssignRequest) -> PendingAssign {
        let (reply_tx, reply_rx) = channel();
        let inner = &self.inner;
        // Optimistically claim a slot; back out if over the bound. Two
        // racing submits can both observe depth == capacity - 1 and one
        // briefly overshoots before the decrement, which is fine: the
        // bound is a memory guarantee, not a strict FIFO ticket.
        if inner.queue_depth.fetch_add(1, Ordering::AcqRel) >= inner.queue_capacity {
            inner.queue_depth.fetch_sub(1, Ordering::AcqRel);
            record_shed(inner);
            let _ = reply_tx.send(Err(ServeError::Overloaded {
                retry_after: SHED_RETRY_AFTER,
            }));
            return PendingAssign { rx: reply_rx };
        }
        let job = Job {
            request,
            submitted: Instant::now(),
            reply: reply_tx,
        };
        // The sender exists for the whole engine lifetime; a send only
        // fails during shutdown, in which case the handle reports it.
        match &self.tx {
            Some(tx) if tx.send(job).is_ok() => {}
            _ => {
                inner.queue_depth.fetch_sub(1, Ordering::AcqRel);
            }
        }
        PendingAssign { rx: reply_rx }
    }

    /// Submit and wait — the synchronous convenience path, a thin
    /// wrapper over `submit(AssignRequest::new(model).type_index(..)
    /// .docs(..)).wait()`.
    ///
    /// # Errors
    /// Propagates the request's assignment errors.
    pub fn assign(
        &self,
        model: &str,
        type_index: usize,
        docs: Vec<SparseVec>,
    ) -> Result<AssignResponse, ServeError> {
        self.submit(AssignRequest::new(model).type_index(type_index).docs(docs))
            .wait()
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.inner.counters;
        StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            documents: c.documents.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            busy: Duration::from_nanos(c.busy_nanos.load(Ordering::Relaxed)),
            total_latency: Duration::from_nanos(c.latency_nanos.load(Ordering::Relaxed)),
            latency: c.latency_hist.snapshot(),
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Closing the channel ends `recv` with an error once the queue is
        // drained; workers then exit.
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn record_shed(inner: &Inner) {
    let c = &inner.counters;
    c.errors.fetch_add(1, Ordering::Relaxed);
    c.shed.fetch_add(1, Ordering::Relaxed);
    if mtrl_obs::enabled() {
        let reg = mtrl_obs::global();
        reg.add("serve.errors", 1);
        reg.add("serve.shed", 1);
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Pop under the lock, process outside it.
        let job = {
            let queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.recv()
        };
        let Ok(job) = job else { break };
        inner.queue_depth.fetch_sub(1, Ordering::AcqRel);
        // A request that outlived its deadline in the queue is abandoned
        // before any compute is spent on it.
        if let Some(deadline) = job.request.deadline {
            let now = Instant::now();
            if now > deadline {
                record_shed(inner);
                let _ = job.reply.send(Err(ServeError::Deadline {
                    exceeded_by: now - deadline,
                }));
                continue;
            }
        }
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            process(inner, &job.request, job.submitted)
        }))
        .unwrap_or_else(|payload| {
            if mtrl_obs::enabled() {
                mtrl_obs::global().add("serve.panics", 1);
            }
            Err(ServeError::Internal(panic_message(payload.as_ref())))
        });
        let busy = started.elapsed();
        let latency = job.submitted.elapsed();
        let c = &inner.counters;
        let obs = mtrl_obs::enabled();
        match &result {
            Ok(response) => {
                c.requests.fetch_add(1, Ordering::Relaxed);
                c.documents
                    .fetch_add(response.posteriors.len() as u64, Ordering::Relaxed);
                c.busy_nanos
                    .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
                c.latency_nanos
                    .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
                c.latency_hist.record_duration(latency);
                if obs {
                    let reg = mtrl_obs::global();
                    reg.add("serve.requests", 1);
                    reg.add("serve.documents", response.posteriors.len() as u64);
                    reg.histogram("serve.latency_ns").record_duration(latency);
                    reg.histogram("serve.busy_ns").record_duration(busy);
                }
            }
            Err(_) => {
                c.errors.fetch_add(1, Ordering::Relaxed);
                if obs {
                    mtrl_obs::global().add("serve.errors", 1);
                }
            }
        }
        // The caller may have dropped its handle; that is fine.
        let _ = job.reply.send(result);
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_string())
}

fn process(
    inner: &Inner,
    request: &AssignRequest,
    submitted: Instant,
) -> Result<AssignResponse, ServeError> {
    #[cfg(test)]
    if request.model == tests::PANICKING_MODEL {
        panic!("injected panic for {}", tests::PANICKING_MODEL);
    }
    let assigner = {
        let models = inner.models.read().unwrap_or_else(|e| e.into_inner());
        models
            .get(&request.model)
            .cloned()
            .ok_or_else(|| ServeError::NotFound(request.model.clone()))?
    };
    let posteriors = assigner.assign_batch(request.type_index, &request.docs)?;
    let labels = Assigner::labels(&posteriors);
    Ok(AssignResponse {
        posteriors,
        labels,
        // Submission-to-completion, matching the field's documentation —
        // queue wait counts, not just compute.
        latency: submitted.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_fitted_model;

    /// Requests for this model name panic inside `process`.
    pub(super) const PANICKING_MODEL: &str = "panics-in-worker";

    fn engine_with_model(name: &str, seed: u64) -> ServeEngine {
        let engine = ServeEngine::new(3);
        engine.register(name, tiny_fitted_model(seed)).unwrap();
        engine
    }

    fn some_docs(n: usize) -> Vec<SparseVec> {
        (0..n)
            .map(|i| SparseVec::new(vec![i % 7, (i % 7) + 3], vec![1.0, 0.5]).unwrap())
            .collect()
    }

    #[test]
    fn builder_sets_every_knob() {
        let before = Instant::now();
        let r = AssignRequest::new("m")
            .type_index(2)
            .docs(some_docs(4))
            .batch_hint(64)
            .deadline_in(Duration::from_millis(5));
        assert_eq!(r.model, "m");
        assert_eq!(r.type_index, 2);
        assert_eq!(r.num_docs(), 4);
        assert_eq!(r.batch_hint, Some(64));
        assert!(r.deadline.unwrap() >= before + Duration::from_millis(5));
        assert_eq!(r.into_docs().len(), 4);
        let r = AssignRequest::new("m").batch_hint(0);
        assert_eq!(r.batch_hint, Some(1), "hint is clamped to at least 1");
        assert!(AssignRequest::new("m")
            .deadline_in(Duration::from_millis(1))
            .deadline
            .is_some());
    }

    #[test]
    fn sync_assign_round_trip() {
        let engine = engine_with_model("m", 51);
        let response = engine.assign("m", 0, some_docs(10)).unwrap();
        assert_eq!(response.posteriors.len(), 10);
        assert_eq!(response.labels.len(), 10);
        for p in &response.posteriors {
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.documents, 10);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.latency.count(), 1);
        assert!(stats.quantile(0.5) > Duration::ZERO);
        assert!(stats.max_latency() >= stats.quantile(0.5));
    }

    #[test]
    fn latency_quantiles_are_ordered_and_bounded() {
        let engine = engine_with_model("m", 62);
        for _ in 0..24 {
            engine.assign("m", 0, some_docs(2)).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.latency.count(), 24);
        let (p50, p90, p99) = (
            stats.quantile(0.5),
            stats.quantile(0.9),
            stats.quantile(0.99),
        );
        assert!(Duration::ZERO < p50 && p50 <= p90 && p90 <= p99);
        assert!(p99 <= stats.max_latency());
        assert!(stats.max_latency() <= stats.total_latency);
    }

    #[test]
    fn concurrent_submissions_all_resolve() {
        let engine = engine_with_model("m", 52);
        let pending: Vec<PendingAssign> = (0..32)
            .map(|_| engine.submit(AssignRequest::new("m").docs(some_docs(4))))
            .collect();
        for p in pending {
            let r = p.wait().unwrap();
            assert_eq!(r.posteriors.len(), 4);
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 32);
        assert_eq!(stats.documents, 128);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn unknown_model_is_an_error_not_a_crash() {
        let engine = engine_with_model("m", 53);
        match engine.assign("ghost", 0, some_docs(1)) {
            Err(ServeError::NotFound(name)) => assert_eq!(name, "ghost"),
            other => panic!("expected NotFound, got {other:?}"),
        }
        assert_eq!(engine.stats().errors, 1);
        assert_eq!(engine.stats().shed, 0);
        // The engine still serves the real model afterwards.
        assert!(engine.assign("m", 0, some_docs(1)).is_ok());
    }

    #[test]
    fn expired_deadline_is_shed_not_served() {
        let engine = engine_with_model("m", 64);
        // A deadline in the past: whenever a worker picks this up, the
        // deadline check fires before any fold-in work happens.
        let mut request = AssignRequest::new("m").docs(some_docs(2));
        request.deadline = Some(Instant::now() - Duration::from_millis(5));
        match engine.submit(request).wait() {
            Err(ServeError::Deadline { exceeded_by }) => {
                assert!(exceeded_by >= Duration::from_millis(5));
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.shed, 1);
        // A generous deadline is honoured normally.
        let ok = engine
            .submit(
                AssignRequest::new("m")
                    .docs(some_docs(2))
                    .deadline_in(Duration::from_secs(30)),
            )
            .wait();
        assert!(ok.is_ok());
    }

    #[test]
    fn bounded_queue_sheds_with_overloaded() {
        // Stall the single worker on a first request, then flood the
        // capacity-1 queue: only the one queued slot can be admitted —
        // everything else must resolve to Overloaded immediately, no
        // hang, and depth stays bounded. Holding the registry's write
        // lock stalls the worker where it resolves the model, so the
        // flood never races a worker that has finished early.
        let engine = ServeEngine::with_queue_capacity(1, 1);
        engine.register("m", tiny_fitted_model(65)).unwrap();
        assert_eq!(engine.inner.queue_capacity, 1);
        let registry = engine.inner.models.write().unwrap();
        let big = engine.submit(AssignRequest::new("m").docs(some_docs(64)));
        // Wait for the worker to pop the first request; it then blocks
        // on the registry until the flood is in.
        while engine.inner.queue_depth.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        let flood: Vec<SparseVec> = some_docs(4);
        let pending: Vec<PendingAssign> = (0..64)
            .map(|_| engine.submit(AssignRequest::new("m").docs(flood.clone())))
            .collect();
        drop(registry);
        let mut served = 0u64;
        let mut shed = 0u64;
        for p in pending {
            match p.wait() {
                Ok(_) => served += 1,
                Err(ServeError::Overloaded { retry_after }) => {
                    assert!(retry_after > Duration::ZERO);
                    shed += 1;
                }
                Err(other) => panic!("unexpected error under flood: {other:?}"),
            }
        }
        assert!(big.wait().is_ok());
        assert_eq!(served + shed, 64);
        assert!(shed > 0, "flooding a capacity-1 queue must shed");
        assert!(served <= 2, "a full queue admitted {served} requests");
        assert_eq!(engine.stats().shed, shed);
        let depth = engine.inner.queue_depth.load(Ordering::Acquire);
        assert!(depth <= 2, "depth must drain back down");
        // The unbounded default never sheds.
        assert_eq!(engine_with_model("u", 66).inner.queue_capacity, usize::MAX);
    }

    #[test]
    fn registry_operations() {
        let engine = engine_with_model("a", 54);
        engine.register("b", tiny_fitted_model(55)).unwrap();
        assert_eq!(engine.model_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn replace_model_under_same_name() {
        let engine = engine_with_model("m", 56);
        engine.register("m", tiny_fitted_model(57)).unwrap();
        assert_eq!(engine.model_names().len(), 1);
        assert!(engine.assign("m", 0, some_docs(2)).is_ok());
    }

    #[test]
    fn hot_swap_is_atomic_under_load() {
        // Hammer `assign` from several threads while the main thread
        // repeatedly re-registers the name with a different model. Every
        // response must succeed and equal one model's exact output —
        // half-swapped state would produce a posterior matching neither.
        let engine = Arc::new(ServeEngine::new(4));
        let a = tiny_fitted_model(60);
        let b = tiny_fitted_model(61);
        engine.register("m", a.clone()).unwrap();
        let probe = SparseVec::new(vec![1, 4, 9], vec![1.0, 0.5, 0.25]).unwrap();
        let pa = Assigner::new(a.clone()).unwrap().assign(0, &probe).unwrap();
        let pb = Assigner::new(b.clone()).unwrap().assign(0, &probe).unwrap();
        assert_ne!(pa, pb, "probe must distinguish the two models");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));
        let hammers: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let answered = Arc::clone(&answered);
                let probe = probe.clone();
                let (pa, pb) = (pa.clone(), pb.clone());
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let r = engine
                            .assign("m", 0, vec![probe.clone()])
                            .expect("assign across a swap must not error");
                        let p = &r.posteriors[0];
                        assert!(p == &pa || p == &pb, "torn read: {p:?}");
                        served += 1;
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    served
                })
            })
            .collect();
        // At least 200 swaps, and more until the hammers have been
        // answered between swaps (the swaps alone can finish before a
        // descheduled hammer thread gets its first response) or have all
        // stopped on a failed assertion.
        let mut i = 0;
        while i < 200
            || (answered.load(Ordering::Relaxed) < 64 && !hammers.iter().all(|h| h.is_finished()))
        {
            let next = if i % 2 == 0 { b.clone() } else { a.clone() };
            engine.register("m", next).unwrap();
            if i % 50 == 0 {
                std::thread::yield_now();
            }
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "hammer threads never got a response");
        assert_eq!(engine.stats().errors, 0);
    }

    #[test]
    fn drop_joins_workers() {
        let engine = engine_with_model("m", 58);
        let _ = engine.assign("m", 0, some_docs(3));
        drop(engine); // must not hang or panic
    }

    #[test]
    fn multiple_threads_share_engine() {
        let engine = Arc::new(engine_with_model("m", 59));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let r = engine.assign("m", 0, some_docs(2)).unwrap();
                        assert_eq!(r.posteriors.len(), 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.stats().documents, 64);
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        let model = tiny_fitted_model(60);
        let engine = ServeEngine::new(1);
        engine.register("m", model.clone()).unwrap();
        let inner = Arc::clone(&engine.inner);
        let panicked = std::thread::spawn(move || {
            let _registry = inner.models.write().unwrap();
            panic!("a thread dies holding the model registry");
        })
        .join();
        assert!(panicked.is_err());
        assert!(engine.inner.models.is_poisoned());

        engine.register("m2", model).unwrap();
        assert_eq!(engine.model_names(), ["m", "m2"]);
        assert_eq!(engine.model_methods().len(), 2);
        for name in ["m", "m2"] {
            let response = engine.assign(name, 0, some_docs(4)).unwrap();
            assert_eq!(response.labels.len(), 4);
        }
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        mtrl_obs::force_enable();
        let engine = ServeEngine::new(1);
        engine.register("m", tiny_fitted_model(61)).unwrap();
        let err = engine
            .assign(PANICKING_MODEL, 0, some_docs(2))
            .expect_err("the job panics");
        assert!(matches!(&err, ServeError::Internal(m) if m.contains("injected panic")));
        assert_eq!(err.http_status(), 500);
        // The one worker is still there and answers the next request.
        let response = engine.assign("m", 0, some_docs(3)).unwrap();
        assert_eq!(response.labels.len(), 3);
        let stats = engine.stats();
        assert_eq!((stats.errors, stats.requests), (1, 1));
        assert_eq!(engine.num_workers(), 1);
        let panics = mtrl_obs::global()
            .counters_snapshot()
            .into_iter()
            .find(|(name, _)| name == "serve.panics");
        assert_eq!(panics, Some(("serve.panics".to_string(), 1)));
    }
}
