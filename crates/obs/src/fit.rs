//! Structured telemetry payloads: per-fit engine traces and stream
//! session events.
//!
//! These are plain data — the engine and stream crates fill them in and
//! hand them to the [`crate::Registry`]; the exporters serialise them
//! into the run manifest.

/// One engine iteration's observables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterTelemetry {
    /// Objective value after the iteration.
    pub objective: f64,
    /// Relative objective change vs the previous iteration
    /// (`|prev − cur| / max(|prev|, 1)`, 0 on the first iteration).
    pub rel_change: f64,
    /// Rows whose E_R residual norm clears the active-row threshold
    /// (half the largest row norm) — the paper's outlier set.
    pub er_active_rows: usize,
}

/// One full engine fit: shape, convergence, kernel-phase wall time, and
/// the per-iteration trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitTelemetry {
    /// Which fit this was (e.g. `"engine.fit"`).
    pub label: String,
    /// Objects (rows of R).
    pub n: usize,
    /// Clusters (columns of G).
    pub c: usize,
    /// Non-zeros in the assembled R.
    pub nnz: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iter`.
    pub converged: bool,
    /// Wall time in the sparse matmul phase (rg/gram refresh), ns.
    pub spmm_ns: u64,
    /// Wall time in the low-rank S solve (m1 correction + ridge), ns.
    pub lowrank_ns: u64,
    /// Wall time in the multiplicative G update + normalisation, ns.
    pub update_ns: u64,
    /// Wall time in residual/E_R/objective evaluation, ns.
    pub residual_ns: u64,
    /// Per-iteration observables, in order.
    pub iters: Vec<IterTelemetry>,
}

/// One stream-session event (drift trigger, refit, hot-swap, ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamEvent {
    /// Event kind: `"drift_trigger"`, `"refit"`, `"hot_swap"`, ...
    pub kind: String,
    /// Free-form detail (e.g. the refit trigger name).
    pub label: String,
    /// Event scalar (confidence for drift, iterations for refit, ...).
    pub value: f64,
}
