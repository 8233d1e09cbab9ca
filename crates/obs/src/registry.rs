//! The global metrics registry: named counters, gauges, histograms,
//! span aggregates, fit telemetry, and stream events.
//!
//! All maps are `BTreeMap`s so every exporter walks metrics in a
//! deterministic (sorted) order — manifests diff cleanly across runs.
//! Counter/gauge/histogram handles are `Arc`s, so hot paths can cache a
//! handle once and bump it lock-free; the registry locks are only taken
//! on first lookup and at export time. Lock poisoning is recovered
//! (observability must never take the process down with it).

use crate::fit::{FitTelemetry, StreamEvent};
use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Caps on the unbounded-growth collections, so a long-lived process
/// with obs left on cannot leak memory through telemetry.
const MAX_FITS: usize = 64;
const MAX_EVENTS: usize = 4096;

/// Aggregated wall-time for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall time across all closes, nanoseconds.
    pub total_ns: u64,
    /// Longest single close, nanoseconds.
    pub max_ns: u64,
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe registry of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    fits: Mutex<Vec<FitTelemetry>>,
    events: Mutex<Vec<StreamEvent>>,
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    /// Handle to the named counter, creating it at zero.
    pub(crate) fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = read_lock(&self.counters).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            write_lock(&self.counters)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Bump the named counter by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Set the named gauge (stored as `f64` bits).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let bits = value.to_bits();
        // Early-return statement form: the read guard must drop before
        // the write lock is taken (an `if let` *expression* would hold
        // it into the else branch and self-deadlock).
        if let Some(g) = read_lock(&self.gauges).get(name) {
            g.store(bits, Ordering::Relaxed);
            return;
        }
        write_lock(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .store(bits, Ordering::Relaxed);
    }

    /// Handle to the named histogram, creating it empty.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = read_lock(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            write_lock(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Record one value into the named histogram.
    pub fn record_hist(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Record one span close (count 1, `elapsed_ns` wall time).
    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64) {
        self.record_span_agg(path, 1, elapsed_ns, elapsed_ns);
    }

    /// Record a pre-aggregated span: `count` closes totalling
    /// `total_ns`, longest single close `max_ns`. Used by hot loops
    /// that time phases themselves and flush one aggregate at the end.
    pub fn record_span_agg(&self, path: &str, count: u64, total_ns: u64, max_ns: u64) {
        let mut spans = mutex_lock(&self.spans);
        let s = spans.entry(path.to_string()).or_default();
        s.count += count;
        s.total_ns += total_ns;
        s.max_ns = s.max_ns.max(max_ns);
    }

    /// Append one fit's telemetry (oldest dropped beyond the cap).
    pub fn record_fit(&self, fit: FitTelemetry) {
        let mut fits = mutex_lock(&self.fits);
        if fits.len() >= MAX_FITS {
            fits.remove(0);
        }
        fits.push(fit);
    }

    /// Append one stream event (oldest dropped beyond the cap).
    pub fn record_event(&self, event: StreamEvent) {
        let mut events = mutex_lock(&self.events);
        if events.len() >= MAX_EVENTS {
            events.remove(0);
        }
        events.push(event);
    }

    /// Sorted `(name, value)` view of all counters.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        read_lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sorted `(name, value)` view of all gauges.
    pub(crate) fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        read_lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Sorted `(name, snapshot)` view of all histograms.
    pub(crate) fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        read_lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Sorted `(path, stats)` view of all span aggregates.
    pub fn spans_snapshot(&self) -> Vec<(String, SpanStats)> {
        mutex_lock(&self.spans)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Recorded fits, oldest first.
    pub fn fits_snapshot(&self) -> Vec<FitTelemetry> {
        mutex_lock(&self.fits).clone()
    }

    /// Recorded stream events, oldest first.
    pub fn events_snapshot(&self) -> Vec<StreamEvent> {
        mutex_lock(&self.events).clone()
    }

    /// Drop every metric, span, fit, and event. Handles returned by
    /// `Registry::counter`/[`Registry::histogram`] before the reset
    /// keep working but are detached from the registry.
    pub fn reset(&self) {
        write_lock(&self.counters).clear();
        write_lock(&self.gauges).clear();
        write_lock(&self.histograms).clear();
        mutex_lock(&self.spans).clear();
        mutex_lock(&self.fits).clear();
        mutex_lock(&self.events).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        r.add("a.requests", 3);
        r.add("a.requests", 2);
        r.set_gauge("a.confidence", 0.75);
        r.set_gauge("a.confidence", 0.5);
        assert_eq!(r.counters_snapshot(), vec![("a.requests".into(), 5)]);
        assert_eq!(r.gauges_snapshot(), vec![("a.confidence".into(), 0.5)]);
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        let r = Registry::new();
        r.add("z.last", 1);
        r.add("a.first", 1);
        r.add("m.middle", 1);
        let names: Vec<_> = r.counters_snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn span_aggregation_accumulates() {
        let r = Registry::new();
        r.record_span("fit/step", 100);
        r.record_span("fit/step", 300);
        r.record_span_agg("fit/step", 8, 800, 250);
        let spans = r.spans_snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].1,
            SpanStats {
                count: 10,
                total_ns: 1200,
                max_ns: 300
            }
        );
    }

    #[test]
    fn cached_counter_handles_stay_live() {
        let r = Registry::new();
        let c = r.counter("hot");
        c.fetch_add(7, Ordering::Relaxed);
        assert_eq!(r.counters_snapshot(), vec![("hot".into(), 7)]);
    }

    #[test]
    fn fit_and_event_caps_drop_oldest() {
        let r = Registry::new();
        for i in 0..(MAX_FITS + 3) {
            r.record_fit(FitTelemetry {
                label: format!("fit{i}"),
                ..FitTelemetry::default()
            });
        }
        let fits = r.fits_snapshot();
        assert_eq!(fits.len(), MAX_FITS);
        assert_eq!(fits[0].label, "fit3");
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.add("c", 1);
        r.set_gauge("g", 1.0);
        r.record_hist("h", 5);
        r.record_span("s", 10);
        r.reset();
        assert!(r.counters_snapshot().is_empty());
        assert!(r.gauges_snapshot().is_empty());
        assert!(r.histograms_snapshot().is_empty());
        assert!(r.spans_snapshot().is_empty());
    }
}
