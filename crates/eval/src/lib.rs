//! # mtrl-eval
//!
//! The scenario-matrix evaluation layer: clustering *quality* gets the
//! same treatment as performance — reproducible runs, committed
//! baselines, and a CI regression gate.
//!
//! The paper's headline claims are about robustness (RHCHME beating
//! SRC/SNMTF/RMC under noise and corruption, Sec. IV), so the repo
//! gates exactly that:
//!
//! * [`scenario`] — a declarative registry of scenarios (corpus shape ×
//!   [`mtrl_datagen::CorruptionSpec`] × pipeline path), including the
//!   committed quick matrix ([`scenario::quick_matrix`]): clean /
//!   feature-noise / relation-corruption cold fits of all four HOCC
//!   methods plus the serve fold-in and stream warm-refit paths;
//! * [`runner`] — executes scenarios end to end through
//!   `mtrl_ensemble::run_spec`, `mtrl-serve` and `mtrl-stream`, scoring
//!   FScore/NMI/ARI over a fixed seed matrix (bit-reproducible given
//!   the build);
//! * [`report`] — the versioned `QUALITY_*.json` format with the
//!   provenance meta header (git sha, quick marker, target-cpu
//!   features, seeds) shared with the `BENCH_*.json` summaries;
//! * [`gate`] — the regression gates (`quality_gate` / `bench_gate`):
//!   meta header pinned, entry sets must match exactly (missing keys
//!   are named, never skipped), markdown comparison tables for
//!   `$GITHUB_STEP_SUMMARY`.
//!
//! Binaries: `quality_report` (run the matrix, write the report),
//! `quality_gate` (diff against the committed baseline),
//! `determinism_probe` (byte-exact fit dump for the CI determinism
//! leg). The committed baseline lives at `QUALITY_quick.json` in the
//! repo root; refresh it by running
//! `cargo run --release -p mtrl-eval --bin quality_report -- QUALITY_quick.json`
//! whenever a change intentionally moves clustering quality.

pub mod gate;
pub mod report;
pub mod runner;
pub mod scenario;

pub use gate::{bench_gate, quality_gate, GateReport, BENCH_TOLERANCE, QUALITY_TOLERANCE};
pub use report::{QualityReport, ReportMeta, ScenarioStats, Stat};
pub use runner::{quick_params, run_matrix, run_scenario, RunOptions, ScenarioResult};
pub use scenario::{quick_matrix, CorpusShape, EvalPath, Scenario, QUICK_SEEDS};
