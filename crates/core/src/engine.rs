//! The NMTF multiplicative-update engine — paper Algorithm 2,
//! **sparse-first**.
//!
//! One engine drives RHCHME and the NMTF-based baselines; they differ only
//! in configuration, and [`crate::pipeline::Method::engine_config`] writes
//! each row's [`EngineConfig`]:
//!
//! | method  | graph regulariser            | `E_R` | row ℓ1 |
//! |---------|------------------------------|-------|--------|
//! | SRC     | [`GraphRegularizer::None`]   | off   | off    |
//! | SNMTF   | [`GraphRegularizer::Fixed`] (pNN) | off | off |
//! | RMC     | [`GraphRegularizer::Ensemble`] (6 pNN candidates) | off | off |
//! | RHCHME  | [`GraphRegularizer::Fixed`] (heterogeneous, Eq. 12) | on | on |
//!
//! # The sparse formulation
//!
//! The decomposition target `R` is a symmetric block matrix of
//! inter-type co-occurrences — inherently sparse (`z = nnz(R) ≪ n²`,
//! the quantity the paper's own complexity analysis in Sec. III-F is
//! written in). [`run_engine`] therefore takes `R` as a
//! [`mtrl_sparse::Csr`] (from [`MultiTypeData::assemble_r_csr`]) and
//! never forms an `n x n` dense matrix:
//!
//! * **`E_R` is implicit.** Eq. 27's row shrinkage is
//!   `(E_R)_i = f_i·q_i` with `f_i = 1/(1 + β/(2‖q_i‖ + ζ))` and
//!   `Q = R − G S Gᵀ`, so
//!   `R − E_R = D_{1−f}·R + D_f·U·Hᵀ` where `U = G S` and `H = G` are
//!   the previous iterate's factors — a diagonal scaling of sparse `R`
//!   plus a rank-`c` correction. The engine stores only `f` and the two
//!   `n x c` factors; [`mtrl_linalg::lowrank::diag_lowrank_combine`]
//!   applies the correction directly to `R·G`.
//! * **`G S Gᵀ` is never materialised.** `A = (R − E_R)·G·Sᵀ` runs as
//!   one sparse SpMM (`R·G`, reused across steps) plus the low-rank
//!   correction; the Eq. 27 row residuals come from the trace identity
//!   `‖q_i‖² = ‖r_i‖² − 2·(R G Sᵀ)_i·g_i + g_i (S GᵀG Sᵀ) g_iᵀ`
//!   evaluated per row block
//!   ([`mtrl_linalg::lowrank::row_dots`] / [`row_quad_forms`]).
//! * **The objective is trace-form.** `J₄`'s fit term is
//!   `Σ_i (1 − f_i)²‖q_i‖²` (equivalently
//!   `tr((R−E)ᵀ(R−E)) − 2·tr(Gᵀ(R−E)G Sᵀ) + tr(SᵀGᵀG S GᵀG)` — the
//!   identities `tr((R−E)ᵀGSGᵀ) = tr(Gᵀ(R−E)G Sᵀ)` and
//!   `‖GSGᵀ‖²_F = tr(SᵀGᵀG S GᵀG)` folded into the row residuals), so
//!   no `n x n` temporary survives anywhere in the loop.
//!
//! Per-iteration cost is `O(nnz·c + n·c²)` (was `O(n²·c)`) and resident
//! memory is `O(nnz + n·c)` (was three `n x n` buffers).
//!
//! # Kernel shape
//!
//! With `c` a few dozen columns, every product in the loop is narrow:
//! `R·G` and `L±·G` ([`Csr::spmm_dense`]), the `n x c · c x c` products
//! ([`matmul`]), [`diag_lowrank_combine`], and the [`gram`] /
//! [`matmul_tn`] / [`row_quad_forms`] / `tr(GᵀLG)` reductions. Each
//! makes **one pass per output row** and keeps that row in a fixed-size
//! register accumulator (up to 32 columns per pass, wider outputs in
//! further passes) instead of reloading and re-storing it once per
//! term. Each entry sums its terms in the scalar loop's order, and the
//! only terms skipped are **exact zeros** (the zeros of the left
//! operand, and in the quadratic forms the block-structured zeros of a
//! finite `G`), so every output is bit-identical to the scalar loops,
//! which survive as `#[cfg(test)]` oracles beside each kernel. RMC's
//! ensemble regulariser runs on one union pattern fixed at fit start:
//! each iteration computes every `g_i · g_j` once for the six candidate
//! traces and the objective, and writes the `β`-combination and its
//! `±` split into fixed value arrays. The original
//! dense loop is kept verbatim as [`run_engine_dense_reference`] for
//! tests and benches; a cross-implementation proptest
//! (`tests/integration_engine.rs`) pins the two to the same objective
//! trace (1e-9 relative) and identical argmax labels across method
//! configurations and thread counts.
//!
//! Per iteration (Algorithm 2 steps 3–7):
//!
//! 1. `S = (GᵀG)⁻¹ Gᵀ (R − E_R) G (GᵀG)⁻¹` (Eq. 18), ridge-stabilised;
//! 2. multiplicative `G` update (Eq. 21) with positive/negative part
//!    splits of `L`, `A = (R − E_R) G Sᵀ` and `B = Sᵀ GᵀG S`;
//! 3. row-ℓ1 normalisation of `G` (Eq. 22) when enabled;
//! 4. `E_R` update (Eq. 27) as the shrinkage factors `f` above;
//! 5. objective `J₄` (Eq. 15) evaluation and convergence check.
//!
//! The final `E_R` is reported two ways: `error_row_norms` (every row's
//! `‖(E_R)_i‖`, the corruption indicator) and `error_rows` — a
//! [`mtrl_sparse::RowSparse`] materialising only the *shrunk-active*
//! rows (norm ≥ [`EngineConfig::error_export_rel`] of the largest),
//! matching the ℓ2,1 model: most rows shrink to near-zero, corrupted
//! samples stay large.
//!
//! # Observability (stable metric-name contract)
//!
//! With `MTRL_OBS=1` (see `mtrl-obs`), every [`run_engine`] call reports
//! into the global registry. The names below are a **stable contract** —
//! exporters, dashboards, and the CI manifest rely on them:
//!
//! * span `engine.fit` — wall time of the whole call (nested under any
//!   caller spans, e.g. `rhchme.fit/engine.fit`);
//! * span aggregates `engine.fit.spmm`, `engine.fit.lowrank`,
//!   `engine.fit.update`, `engine.fit.residual` — cumulative per-phase
//!   kernel time across the iteration loop (`count` = iterations):
//!   `spmm` is the `R·G` / `GᵀG` refresh, `lowrank` the regulariser
//!   resolve + implicit-`E_R` correction + Eq. 18 `S` solve, `update`
//!   the Eq. 21 multiplicative `G` update + row normalisation,
//!   `residual` the trace-identity `‖q_i‖` / `E_R` / objective
//!   evaluation;
//! * counters `engine.fits` (calls) and `engine.iterations` (total
//!   iterations across calls);
//! * a `FitTelemetry` record (label `engine.fit`) with the problem shape
//!   (`n`, `c`, `nnz`), convergence outcome, the four phase totals, and
//!   a per-iteration trace of `objective`, `rel_change`, and
//!   `er_active_rows` (rows clearing the
//!   [`EngineConfig::error_export_rel`] threshold — Fig. 3's
//!   convergence evidence, machine-readable).
//!
//! Instrumentation only reads iterates and the monotonic clock; it is
//! exactly skipped when `MTRL_OBS` is off and never changes the
//! floating-point computation, so fits are byte-identical either way
//! (CI pins this with `determinism_probe`). The dense reference path is
//! deliberately uninstrumented.

use crate::error::RhchmeError;
use crate::multitype::MultiTypeData;
use crate::Result;
use mtrl_linalg::lowrank::{diag_lowrank_combine, row_dots, row_quad_forms};
use mtrl_linalg::norms::row_l2_norms;
use mtrl_linalg::ops::{g_s_gt, gram, matmul, matmul_tn};
use mtrl_linalg::simplex::project_simplex;
use mtrl_linalg::solve::ridge_inverse;
use mtrl_linalg::{Mat, Precision, Quantize, EPS};
use mtrl_obs::{FitTelemetry, IterTelemetry};
use mtrl_sparse::{Csr, RowSparse, SparseBlockDiag};
use std::borrow::Cow;
use std::time::Instant;

/// Kernel-phase indices for [`PhaseClock`] (see the module docs'
/// observability section for what each phase covers).
const PHASE_SPMM: usize = 0;
const PHASE_LOWRANK: usize = 1;
const PHASE_UPDATE: usize = 2;
const PHASE_RESIDUAL: usize = 3;

/// The stable span-aggregate name of each phase.
const PHASE_SPANS: [(&str, usize); 4] = [
    ("engine.fit.spmm", PHASE_SPMM),
    ("engine.fit.lowrank", PHASE_LOWRANK),
    ("engine.fit.update", PHASE_UPDATE),
    ("engine.fit.residual", PHASE_RESIDUAL),
];

/// Cumulative and worst-lap per-phase wall clock for the iteration
/// loop. Inert (no clock reads at all) when observability is off.
struct PhaseClock {
    lap_start: Option<Instant>,
    ns: [u64; 4],
    max_ns: [u64; 4],
}

impl PhaseClock {
    fn new(enabled: bool) -> Self {
        PhaseClock {
            lap_start: enabled.then(Instant::now),
            ns: [0; 4],
            max_ns: [0; 4],
        }
    }

    /// Restart the lap timer (top of each iteration).
    fn mark(&mut self) {
        if self.lap_start.is_some() {
            self.lap_start = Some(Instant::now());
        }
    }

    /// Charge the time since the last mark/lap to `phase`.
    fn lap(&mut self, phase: usize) {
        if let Some(start) = self.lap_start {
            let now = Instant::now();
            let lap = u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(0);
            self.ns[phase] += lap;
            self.max_ns[phase] = self.max_ns[phase].max(lap);
            self.lap_start = Some(now);
        }
    }
}

/// Graph regulariser attached to the trace term `λ·tr(GᵀLG)`.
#[derive(Debug, Clone)]
pub enum GraphRegularizer {
    /// No intra-type information (SRC).
    None,
    /// A fixed Laplacian — single pNN (SNMTF) or the heterogeneous
    /// ensemble of Eq. 12 (RHCHME). Kept sparse: a pNN Laplacian has
    /// `O(p·n)` entries and the update only ever needs `L·G` products.
    Fixed(SparseBlockDiag),
    /// RMC's pre-given candidate ensemble (Eq. 2): `L = Σ βᵢ L̂ᵢ` with `β`
    /// re-optimised every iteration by minimising
    /// `Σ βᵢ tr(GᵀL̂ᵢG) + μ‖β‖²` over the probability simplex.
    Ensemble {
        /// Candidate Laplacians `L̂ᵢ` (same block layout).
        candidates: Vec<SparseBlockDiag>,
        /// Quadratic penalty μ keeping `β` away from the vertices.
        mu: f64,
    },
}

/// Engine configuration (one struct drives all four NMTF methods).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Graph regularisation weight λ (Eq. 15).
    pub lambda: f64,
    /// Error-matrix trade-off β (Eq. 15); ignored when
    /// `use_error_matrix` is false.
    pub beta: f64,
    /// Enable the sample-wise sparse error matrix `E_R`.
    pub use_error_matrix: bool,
    /// Enable row-ℓ1 normalisation of `G` (Eq. 22).
    pub l1_row_normalize: bool,
    /// Maximum multiplicative-update iterations.
    pub max_iter: usize,
    /// Relative objective-change convergence threshold.
    pub tol: f64,
    /// Record per-iteration argmax labels of this type (Fig. 3 traces).
    pub record_labels_for_type: Option<usize>,
    /// Ridge added to `GᵀG` before inversion (empty-cluster protection).
    pub ridge: f64,
    /// The ζ perturbation regularising `D_ii` when `‖q_i‖ = 0`
    /// (Sec. III-D3).
    pub zeta: f64,
    /// Activity threshold for materialising final `E_R` rows into
    /// [`EngineResult::error_rows`], relative to the largest row norm:
    /// rows with `‖(E_R)_i‖ ≥ error_export_rel · max_j ‖(E_R)_j‖` are
    /// stored. Keeps the export at `O(active · n)` — under the ℓ2,1
    /// model only outlier (corrupted) rows clear half the maximum.
    pub error_export_rel: f64,
    /// Operand precision of the iteration hot loops. [`Precision::F32`]
    /// quantises the SpMM / low-rank / residual / regulariser operands
    /// through `f32` — `R` and a fixed `(L, L⁺, L⁻)` once per fit, the
    /// `G`, `R·G`, `R·G·Sᵀ` and low-rank factor snapshots at their
    /// point of use — and runs the ordinary `f64` kernels on them, so
    /// it keeps a quantised `f64` copy of `R` beside the caller's.
    /// Iterates (`G`, `S`) and the small dense algebra stay
    /// unquantised. The RMC ensemble regulariser re-optimises its
    /// combination every iteration and reads unquantised `G` in both
    /// modes. Runs remain bit-identical across thread counts *within*
    /// each mode; the two modes produce different (both valid) descent
    /// paths.
    pub precision: Precision,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lambda: 0.05,
            beta: 50.0,
            use_error_matrix: true,
            l1_row_normalize: true,
            max_iter: 100,
            tol: 1e-6,
            record_labels_for_type: None,
            ridge: 1e-10,
            zeta: 1e-8,
            error_export_rel: 0.5,
            precision: Precision::F64,
        }
    }
}

/// Output of an engine run.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Final stacked membership matrix `G` (`n x c`).
    pub g: Mat,
    /// Final association matrix `S` (`c x c`).
    pub s: Mat,
    /// Objective `J₄` after every iteration.
    pub objective_trace: Vec<f64>,
    /// Recorded labels per iteration (empty unless requested).
    pub label_trace: Vec<Vec<usize>>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative-change criterion was met.
    pub converged: bool,
    /// Final ensemble weights `β` (RMC only).
    pub ensemble_weights: Option<Vec<f64>>,
    /// Row l2 norms of the final `E_R` (empty when disabled) — corrupted
    /// samples show up as the large entries.
    pub error_row_norms: Vec<f64>,
    /// The shrunk-active rows of the final `E_R` (rows whose norm clears
    /// [`EngineConfig::error_export_rel`] of the maximum), stored
    /// row-sparsely; an all-zero `n x n` when `E_R` is disabled.
    pub error_rows: RowSparse,
}

/// Shared validation of everything except the `R` operand.
fn validate_common(
    n: usize,
    c: usize,
    g0: &Mat,
    reg: &GraphRegularizer,
    cfg: &EngineConfig,
) -> Result<()> {
    if g0.shape() != (n, c) {
        return Err(RhchmeError::InvalidData(format!(
            "G0 is {:?}, expected ({n}, {c})",
            g0.shape()
        )));
    }
    if cfg.lambda < 0.0 || cfg.beta < 0.0 {
        return Err(RhchmeError::InvalidConfig(
            "lambda and beta must be nonnegative".into(),
        ));
    }
    if !(0.0..=1.0).contains(&cfg.error_export_rel) {
        return Err(RhchmeError::InvalidConfig(format!(
            "error_export_rel {} outside [0, 1]",
            cfg.error_export_rel
        )));
    }
    if g0.min() < 0.0 {
        return Err(RhchmeError::InvalidData("G0 has negative entries".into()));
    }
    match reg {
        GraphRegularizer::Fixed(l) if l.n() != n => Err(RhchmeError::InvalidData(format!(
            "Laplacian is {}x{0}, expected {n}x{n}",
            l.n()
        ))),
        GraphRegularizer::Ensemble { candidates, mu } => {
            if candidates.is_empty() {
                return Err(RhchmeError::InvalidConfig(
                    "ensemble regulariser with no candidates".into(),
                ));
            }
            if *mu <= 0.0 {
                return Err(RhchmeError::InvalidConfig("mu must be positive".into()));
            }
            if candidates.iter().any(|l| l.n() != n) {
                return Err(RhchmeError::InvalidData(
                    "ensemble candidate with wrong dimension".into(),
                ));
            }
            if candidates.iter().any(|l| l.spec() != candidates[0].spec()) {
                return Err(RhchmeError::InvalidData(
                    "ensemble candidates with different block layouts".into(),
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The per-iteration regulariser state shared by both engine paths.
enum RegState<'a> {
    None,
    /// A fixed Laplacian and its part split, computed once and quantised
    /// at `precision`. In F64 mode the Laplacian is **borrowed** from the
    /// caller's [`GraphRegularizer`] — a fit never deep-copies the
    /// `O(p·n)` triplets (the split parts are new matrices by
    /// necessity). The parts are split from the unquantised Laplacian,
    /// then quantised.
    Fixed {
        l: Cow<'a, SparseBlockDiag>,
        lp: SparseBlockDiag,
        lm: SparseBlockDiag,
        precision: Precision,
    },
    /// RMC's candidate ensemble, re-weighted every iteration on one
    /// union pattern (see [`UnionEnsemble`]).
    Ensemble(UnionEnsemble<'a>),
}

impl<'a> RegState<'a> {
    fn new(reg: &'a GraphRegularizer, precision: Precision) -> Self {
        match reg {
            GraphRegularizer::None => RegState::None,
            GraphRegularizer::Fixed(l) => {
                let (mut lp, mut lm) = l.split_parts();
                lp.quantize(precision);
                lm.quantize(precision);
                RegState::Fixed {
                    l: precision.quantized(l),
                    lp,
                    lm,
                    precision,
                }
            }
            GraphRegularizer::Ensemble { candidates, mu } => {
                RegState::Ensemble(UnionEnsemble::new(candidates, *mu))
            }
        }
    }

    /// Resolve this iteration's regulariser against the current `G`:
    /// the ensemble re-optimises `β` and rewrites its combination and
    /// part split; a fixed or absent regulariser has nothing to do.
    fn resolve(&mut self, g: &Mat, ensemble_weights: &mut Option<Vec<f64>>) {
        if let RegState::Ensemble(ens) = self {
            *ensemble_weights = Some(ens.resolve(g));
        }
    }

    /// `(L⁺·G, L⁻·G)` for the multiplicative update, `None` without a
    /// regulariser. The fixed operator reads `G` quantised like itself;
    /// the ensemble, whose combination is rebuilt from `G` in `f64`
    /// every iteration, reads it unquantised.
    fn part_products(&self, g: &Mat) -> Result<Option<(Mat, Mat)>> {
        let (lp, lm, g_l) = match self {
            RegState::None => return Ok(None),
            RegState::Fixed {
                lp, lm, precision, ..
            } => (lp, lm, precision.quantized(g)),
            RegState::Ensemble(ens) => {
                let (lp, lm) = ens.parts.as_ref().expect("resolved before use");
                (lp, lm, Cow::Borrowed(g))
            }
        };
        Ok(Some((lp.mul_dense(&g_l)?, lm.mul_dense(&g_l)?)))
    }

    /// The regulariser trace `tr(GᵀLG)` of the objective (0 without a
    /// regulariser), at the same operand precision as
    /// [`Self::part_products`].
    fn trace(&mut self, g: &Mat) -> Result<f64> {
        Ok(match self {
            RegState::None => 0.0,
            RegState::Fixed { l, precision, .. } => l.trace_quad(&precision.quantized(g))?,
            RegState::Ensemble(ens) => ens.trace(g),
        })
    }
}

/// RMC's ensemble regulariser `L = Σ βᵢ L̂ᵢ` on the union of the
/// candidates' sparsity patterns, fixed at fit start.
///
/// Every quantity an iteration needs is a sum over stored entries of
/// `value · (g_i · g_j)`, so the inner products are computed once per
/// `G` on the union pattern and shared: by the six candidate traces
/// that set `β`, and by the objective's `tr(GᵀLG)`. The `G` the
/// objective reads is the `G` the next iteration's traces read, so the
/// objective's products are reused there. The combination and its
/// `L⁺`/`L⁻` split are written into fixed value arrays.
///
/// Every value equals what merging the candidates one by one
/// (`L̂₀·β₀ + L̂₁·β₁ + …`, dropping entries that come out zero) and
/// splitting the result produces, summed in the same order; an entry
/// that merge would drop holds a zero here instead, which adds nothing
/// to any product with the finite `G` the engine iterates on.
struct UnionEnsemble<'a> {
    candidates: &'a [SparseBlockDiag],
    mu: f64,
    blocks: Vec<UnionBlock>,
    /// Per block, `g_i · g_j` on the union pattern.
    dots: Vec<Vec<f64>>,
    /// Whether `dots` belong to the `G` the next [`Self::resolve`] sees.
    dots_fresh: bool,
    /// Per block, the combination's values on the union pattern.
    comb: Vec<Vec<f64>>,
    /// Whether a zero in `comb` is a stored entry (one candidate, which
    /// is scaled, never merged) rather than a dropped one.
    keep_zeros: bool,
    /// This iteration's `(L⁺, L⁻)`.
    parts: Option<(SparseBlockDiag, SparseBlockDiag)>,
}

/// One diagonal block's union pattern.
struct UnionBlock {
    offset: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    /// Per candidate, the union slot and the value of each of its stored
    /// entries, in row order.
    slots: Vec<Vec<usize>>,
    values: Vec<Vec<f64>>,
    /// The entries where some candidate is positive (`L⁺`'s possible
    /// support: `β ≥ 0`) and where some is negative (`L⁻`'s).
    pos: SlotPattern,
    neg: SlotPattern,
}

/// A sub-pattern of a union block: CSR arrays plus the union slot of
/// each entry.
struct SlotPattern {
    indptr: Vec<usize>,
    indices: Vec<usize>,
    slots: Vec<usize>,
}

impl SlotPattern {
    /// The union entries whose slot satisfies `keep`, in row order.
    fn select(indptr: &[usize], indices: &[usize], keep: impl Fn(usize) -> bool) -> Self {
        let mut out = SlotPattern {
            indptr: vec![0],
            indices: Vec::new(),
            slots: Vec::new(),
        };
        for w in indptr.windows(2) {
            for (slot, &j) in indices.iter().enumerate().take(w[1]).skip(w[0]) {
                if keep(slot) {
                    out.indices.push(j);
                    out.slots.push(slot);
                }
            }
            out.indptr.push(out.indices.len());
        }
        out
    }

    /// The `n x n` CSR with `value(slot)` at each entry.
    fn csr(&self, n: usize, value: impl Fn(usize) -> f64) -> Csr {
        let values = self.slots.iter().map(|&slot| value(slot)).collect();
        Csr::from_raw_parts(n, n, self.indptr.clone(), self.indices.clone(), values)
    }
}

impl UnionBlock {
    fn new(blocks: &[&Csr], offset: usize) -> Self {
        let n = blocks[0].rows();
        let mut indptr = vec![0];
        let mut indices: Vec<usize> = Vec::new();
        for i in 0..n {
            let mut row: Vec<usize> = blocks.iter().flat_map(|b| b.row(i).0).copied().collect();
            row.sort_unstable();
            row.dedup();
            indices.extend(row);
            indptr.push(indices.len());
        }
        let slots: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| {
                (0..n)
                    .flat_map(|i| {
                        let row = &indices[indptr[i]..indptr[i + 1]];
                        let base = indptr[i];
                        b.row(i).0.iter().map(move |j| {
                            base + row.binary_search(j).expect("union covers every candidate")
                        })
                    })
                    .collect()
            })
            .collect();
        let values: Vec<Vec<f64>> = blocks
            .iter()
            .map(|b| b.iter().map(|(_, _, v)| v).collect())
            .collect();
        let mut any_pos = vec![false; indices.len()];
        let mut any_neg = vec![false; indices.len()];
        for (slots, values) in slots.iter().zip(&values) {
            for (&slot, &v) in slots.iter().zip(values) {
                any_pos[slot] |= v > 0.0;
                any_neg[slot] |= v < 0.0;
            }
        }
        let pos = SlotPattern::select(&indptr, &indices, |slot| any_pos[slot]);
        let neg = SlotPattern::select(&indptr, &indices, |slot| any_neg[slot]);
        UnionBlock {
            offset,
            indptr,
            indices,
            slots,
            values,
            pos,
            neg,
        }
    }
}

impl<'a> UnionEnsemble<'a> {
    fn new(candidates: &'a [SparseBlockDiag], mu: f64) -> Self {
        let spec = candidates[0].spec();
        let blocks: Vec<UnionBlock> = (0..candidates[0].num_blocks())
            .map(|k| {
                let members: Vec<&Csr> = candidates.iter().map(|c| c.block(k)).collect();
                UnionBlock::new(&members, spec.offset(k))
            })
            .collect();
        UnionEnsemble {
            candidates,
            mu,
            dots: blocks.iter().map(|b| vec![0.0; b.indices.len()]).collect(),
            comb: blocks.iter().map(|b| vec![0.0; b.indices.len()]).collect(),
            blocks,
            dots_fresh: false,
            keep_zeros: false,
            parts: None,
        }
    }

    /// Fill `dots` with `g_i · g_j` on the union pattern of every block.
    fn refresh_dots(&mut self, g: &Mat) {
        for (block, dots) in self.blocks.iter().zip(&mut self.dots) {
            pattern_dots(g, block.offset, &block.indptr, &block.indices, dots);
        }
    }

    /// Re-optimise `β` against `G`, rewrite the combination and its part
    /// split, and return `β`.
    fn resolve(&mut self, g: &Mat) -> Vec<f64> {
        if !self.dots_fresh {
            self.refresh_dots(g);
        }
        // G changes before the next resolve.
        self.dots_fresh = false;
        let traces: Vec<f64> = (0..self.candidates.len())
            .map(|c| {
                self.blocks
                    .iter()
                    .zip(&self.dots)
                    .map(|(block, dots)| {
                        let mut acc = 0.0;
                        for (&slot, &v) in block.slots[c].iter().zip(&block.values[c]) {
                            acc += v * dots[slot];
                        }
                        acc
                    })
                    .sum()
            })
            .collect();
        let target: Vec<f64> = traces.iter().map(|&t| -t / (2.0 * self.mu)).collect();
        let beta = project_simplex(&target, 1.0);
        // L = L̂₀·β₀ + L̂₁·β₁ + … in candidate order over the shared
        // block layout: a zero β₀ contributes no entries, a later
        // candidate adds `β·v` to what is there.
        for (block, comb) in self.blocks.iter().zip(&mut self.comb) {
            comb.fill(0.0);
            for (c, &b) in beta.iter().enumerate() {
                let entries = block.slots[c].iter().zip(&block.values[c]);
                if c == 0 {
                    if b != 0.0 {
                        for (&slot, &v) in entries {
                            comb[slot] = v * b;
                        }
                    }
                } else {
                    for (&slot, &v) in entries {
                        comb[slot] += b * v;
                    }
                }
            }
        }
        self.keep_zeros = self.candidates.len() == 1 && beta[0] != 0.0;
        let split = |pick: fn(f64) -> f64, part: fn(&UnionBlock) -> &SlotPattern| {
            let blocks = self
                .blocks
                .iter()
                .zip(&self.comb)
                .map(|(block, comb)| {
                    part(block).csr(block.indptr.len() - 1, |slot| pick(comb[slot]))
                })
                .collect();
            SparseBlockDiag::new(blocks).expect("square blocks")
        };
        let lp = split(|v| if v > 0.0 { v } else { 0.0 }, |b| &b.pos);
        let lm = split(|v| if v < 0.0 { -v } else { 0.0 }, |b| &b.neg);
        self.parts = Some((lp, lm));
        beta
    }

    /// `tr(GᵀLG)` of this iteration's combination at `G`; the products
    /// are kept for the next [`Self::resolve`].
    fn trace(&mut self, g: &Mat) -> f64 {
        self.refresh_dots(g);
        self.dots_fresh = true;
        let keep_zeros = self.keep_zeros;
        self.comb
            .iter()
            .zip(&self.dots)
            .map(|(comb, dots)| {
                let mut acc = 0.0;
                for (&v, &dot) in comb.iter().zip(dots) {
                    if v != 0.0 || keep_zeros {
                        acc += v * dot;
                    }
                }
                acc
            })
            .sum()
    }
}

/// `dots[e] = g_i · g_j` for every entry `(i, j)` of one block's
/// pattern, `G` rows taken from `offset` on — the products of
/// [`Csr::quad_form_at`], which runs each over `g_i`'s nonzero span when
/// the block's rows are finite (see there).
fn pattern_dots(g: &Mat, offset: usize, indptr: &[usize], indices: &[usize], dots: &mut [f64]) {
    let c = g.cols();
    let rows = &g.as_slice()[offset * c..(offset + indptr.len() - 1) * c];
    let finite = rows.iter().all(|v| v.is_finite());
    for (i, w) in indptr.windows(2).enumerate() {
        let gi = g.row(offset + i);
        let (lo, hi) = match gi.iter().position(|&v| v != 0.0) {
            Some(lo) if finite => (lo, gi.iter().rposition(|&v| v != 0.0).map_or(lo, |p| p + 1)),
            None if finite => (0, 0),
            _ => (0, c),
        };
        let gi = &gi[lo..hi];
        for (dot, &j) in dots[w[0]..w[1]].iter_mut().zip(&indices[w[0]..w[1]]) {
            let gj = &g.row(offset + j)[lo..hi];
            *dot = gi.iter().zip(gj).map(|(a, b)| a * b).sum();
        }
    }
}

/// The multiplicative `G` update of Eq. 21, shared by both paths: each
/// entry scales by `sqrt(num/den)`; structural zeros stay zero.
fn multiplicative_update(
    g: &mut Mat,
    a: &Mat,
    gb_pos: &Mat,
    gb_neg: &Mat,
    l_g: Option<&(Mat, Mat)>,
    lambda: f64,
) {
    let (n, c) = g.shape();
    for i in 0..n {
        let a_row = a.row(i);
        let gbp = gb_pos.row(i);
        let gbn = gb_neg.row(i);
        let lpg = l_g.map(|(lp, _)| lp.row(i));
        let lmg = l_g.map(|(_, lm)| lm.row(i));
        let grow = g.row_mut(i);
        for j in 0..c {
            let gv = grow[j];
            if gv == 0.0 {
                continue; // structural zero (block layout) stays zero
            }
            let a_pos = a_row[j].max(0.0);
            let a_neg = (-a_row[j]).max(0.0);
            let (l_num, l_den) = match (lmg, lpg) {
                (Some(lm), Some(lp)) => (lambda * lm[j], lambda * lp[j]),
                _ => (0.0, 0.0),
            };
            let num = l_num + a_pos + gbn[j];
            let den = l_den + a_neg + gbp[j];
            grow[j] = gv * ((num + EPS) / (den + EPS)).sqrt();
        }
    }
}

/// Run the multiplicative-update engine — the **sparse-first** default
/// path.
///
/// * `r` — symmetric block CSR from
///   [`MultiTypeData::assemble_r_csr`] (relations are never densified);
/// * `data` — block layouts (and label extraction);
/// * `reg` — graph regulariser (see [`GraphRegularizer`]); a
///   [`GraphRegularizer::Fixed`] Laplacian is borrowed, not cloned;
/// * `g0` — initial membership (from
///   [`crate::kmeans::labels_to_membership`], block-structured).
///
/// Per iteration `O(nnz·c + n·c²)` work, `O(nnz + n·c)` memory; see the
/// module docs for the implicit `E_R` / trace-identity formulation. The
/// row-parallel kernels run on the [`mtrl_linalg::par`] pool and are
/// bit-identical for every thread count.
///
/// # Errors
/// * [`RhchmeError::InvalidData`] / [`RhchmeError::InvalidConfig`] on
///   shape or parameter violations;
/// * [`RhchmeError::Diverged`] if an iterate becomes non-finite.
pub fn run_engine(
    r: &Csr,
    data: &MultiTypeData,
    reg: &GraphRegularizer,
    g0: Mat,
    cfg: &EngineConfig,
) -> Result<EngineResult> {
    let n = data.total_objects();
    let c = data.total_clusters();
    if r.shape() != (n, n) {
        return Err(RhchmeError::InvalidData(format!(
            "R is {:?}, expected ({n}, {n})",
            r.shape()
        )));
    }
    validate_common(n, c, &g0, reg, cfg)?;

    // Observability (reads-only; skipped entirely when MTRL_OBS is off —
    // the fit itself is byte-identical either way).
    let obs = mtrl_obs::enabled();
    let _fit_span = mtrl_obs::span!("engine.fit");
    let mut clock = PhaseClock::new(obs);
    let mut iter_telemetry: Vec<IterTelemetry> = Vec::new();

    let mut g = g0;
    let mut s = Mat::zeros(c, c);
    // Operand precision (see [`EngineConfig::precision`]): `R` and a
    // fixed regulariser are quantised once here; the `G`-derived
    // snapshots are quantised where each product reads them. F64 mode
    // borrows everything.
    let prec = cfg.precision;
    let r_q = prec.quantized(r);
    let mut reg_state = RegState::new(reg, prec);
    let mut ensemble_weights: Option<Vec<f64>> = None;

    // Row structure of R for the residual trace identity — of the
    // quantised R, so the identity's three terms see one consistent
    // operand.
    let r_row_sq: Vec<f64> = (0..n)
        .map(|i| r_q.row(i).1.iter().map(|v| v * v).sum())
        .collect();

    // Implicit E_R: shrinkage factors f plus the previous iterate's
    // low-rank factors (U = G·S, H = G), so that
    // R − E_R = D_{1−f}·R + D_f·U·Hᵀ.
    let mut f_er: Vec<f64> = vec![0.0; n];
    let mut one_minus_f: Vec<f64> = vec![1.0; n];
    // `U` is stored quantised, `H` not.
    let mut prev_lowrank: Option<(Mat, Mat)> = None;
    let mut error_row_norms: Vec<f64> = Vec::new();
    let mut final_q_norms: Vec<f64> = Vec::new();

    // R·G and GᵀG for the *current* G — computed before the loop,
    // refreshed after every G update, and shared between the residual
    // identity of iteration t and step 3 of iteration t+1 (one SpMM and
    // one gram per iteration). The SpMM reads quantised `R` and `G`.
    let mut rg = r_q.spmm_dense(&prec.quantized(&g));
    let mut gram_cur = gram(&g);

    let mut objective_trace = Vec::with_capacity(cfg.max_iter);
    let mut label_trace = Vec::new();
    let mut prev_obj = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for t in 0..cfg.max_iter {
        iterations = t + 1;
        clock.mark();

        // ---- Regulariser for this iteration -------------------------
        reg_state.resolve(&g, &mut ensemble_weights);

        // ---- Step 3: S update (Eq. 18) ------------------------------
        // m1 = (R − E_R)·G = D_{1−f}·(R·G) + D_f·U·(Hᵀ·G); before the
        // first shrinkage E_R = 0 and m1 is R·G itself.
        let m1_corrected = match &prev_lowrank {
            Some((u, h)) => {
                let w = matmul_tn(h, &g)?; // Hᵀ·G, c x c
                Some(diag_lowrank_combine(
                    &one_minus_f,
                    &prec.quantized(&rg),
                    &f_er,
                    u,
                    &w,
                )?)
            }
            None => None,
        };
        let m1: &Mat = m1_corrected.as_ref().unwrap_or(&rg);
        let gram_g = &gram_cur; // GᵀG of the pre-update G, c x c
        let ginv = ridge_inverse(gram_g, cfg.ridge)?;
        let gtm = matmul_tn(&g, m1)?; // Gᵀ(R − E_R)G, c x c
        s = matmul(&matmul(&ginv, &gtm)?, &ginv)?;
        clock.lap(PHASE_LOWRANK);

        // ---- Step 4: multiplicative G update (Eq. 21) ---------------
        let a = matmul(m1, &s.transpose())?; // (R − E_R) G Sᵀ, n x c
        let b = matmul_tn(&s, &matmul(gram_g, &s)?)?; // Sᵀ GᵀG S, c x c
        let (b_pos, b_neg) = mtrl_linalg::parts::split_parts(&b);
        let gb_pos = matmul(&g, &b_pos)?;
        let gb_neg = matmul(&g, &b_neg)?;
        let l_g = reg_state.part_products(&g)?;
        multiplicative_update(&mut g, &a, &gb_pos, &gb_neg, l_g.as_ref(), cfg.lambda);
        if g.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // ---- Step 5: row-l1 normalisation (Eq. 22) ------------------
        if cfg.l1_row_normalize {
            g.normalize_rows_l1(1e-300);
        }
        clock.lap(PHASE_UPDATE);

        // ---- Steps 6-7: E_R update (Eqs. 25-27), trace form ----------
        // Refresh R·G and GᵀG for the updated G (also next iteration's
        // step 3 — neither is recomputed there).
        let g_q = prec.quantized(&g);
        rg = r_q.spmm_dense(&g_q);
        gram_cur = gram(&g);
        clock.lap(PHASE_SPMM);
        // ‖q_i‖² = ‖r_i‖² − 2·(R G Sᵀ)_i·g_i + g_i (S GᵀG Sᵀ) g_iᵀ —
        // per row block, no Q matrix. Cancellation is clamped at zero.
        let m_q = matmul(&matmul(&s, &gram_cur)?, &s.transpose())?; // S K Sᵀ
        let rgst = matmul(&rg, &s.transpose())?;
        let cross = row_dots(&prec.quantized(&rgst), &g_q)?;
        let quad = row_quad_forms(&g_q, &m_q)?;
        let q_norms: Vec<f64> = (0..n)
            .map(|i| (r_row_sq[i] - 2.0 * cross[i] + quad[i]).max(0.0).sqrt())
            .collect();
        let mut fit = 0.0;
        let mut l21 = 0.0;
        if cfg.use_error_matrix {
            for i in 0..n {
                // (βD + I)⁻¹ row factor: f = 1 / (1 + β / (2‖q_i‖ + ζ)).
                f_er[i] = 1.0 / (1.0 + cfg.beta / (2.0 * q_norms[i] + cfg.zeta));
                one_minus_f[i] = 1.0 - f_er[i];
                // ‖Q − E_R‖² = Σ (1−f)²‖q‖², ‖E_R‖₂,₁ = Σ f‖q‖.
                let residual = one_minus_f[i] * q_norms[i];
                fit += residual * residual;
                l21 += f_er[i] * q_norms[i];
            }
            error_row_norms = f_er.iter().zip(&q_norms).map(|(f, qn)| f * qn).collect();
            // Next iteration's low-rank factors of R − E_R.
            let mut u = matmul(&g, &s)?;
            u.quantize(prec);
            prev_lowrank = Some((u, g.clone()));
            final_q_norms = q_norms;
        } else {
            fit = q_norms.iter().map(|x| x * x).sum();
        }

        // ---- Objective J₄ (Eq. 15) ----------------------------------
        let reg_term = reg_state.trace(&g)?;
        let l21_term = if cfg.use_error_matrix {
            cfg.beta * l21
        } else {
            0.0
        };
        let obj = fit + l21_term + cfg.lambda * reg_term;
        objective_trace.push(obj);
        clock.lap(PHASE_RESIDUAL);

        if obs {
            let rel_change = if t > 0 {
                (prev_obj - obj).abs() / prev_obj.abs().max(1.0)
            } else {
                0.0
            };
            let er_active_rows = if error_row_norms.is_empty() {
                0
            } else {
                let max = error_row_norms.iter().cloned().fold(0.0, f64::max);
                let threshold = cfg.error_export_rel * max;
                if max > 0.0 {
                    error_row_norms.iter().filter(|&&x| x >= threshold).count()
                } else {
                    0
                }
            };
            iter_telemetry.push(IterTelemetry {
                objective: obj,
                rel_change,
                er_active_rows,
            });
        }

        if let Some(ty) = cfg.record_labels_for_type {
            label_trace.push(data.labels_from_membership(&g, ty));
        }

        // ---- Convergence ---------------------------------------------
        if t > 0 {
            let denom = prev_obj.abs().max(1.0);
            if (prev_obj - obj).abs() / denom < cfg.tol {
                converged = true;
                break;
            }
        }
        prev_obj = obj;
    }

    if obs {
        let reg_handle = mtrl_obs::global();
        let iters = iterations as u64;
        for (name, phase) in PHASE_SPANS {
            reg_handle.record_span_agg(name, iters, clock.ns[phase], clock.max_ns[phase]);
        }
        reg_handle.add("engine.fits", 1);
        reg_handle.add("engine.iterations", iters);
        reg_handle.record_fit(FitTelemetry {
            label: "engine.fit".to_string(),
            n,
            c,
            nnz: r.nnz(),
            iterations,
            converged,
            spmm_ns: clock.ns[PHASE_SPMM],
            lowrank_ns: clock.ns[PHASE_LOWRANK],
            update_ns: clock.ns[PHASE_UPDATE],
            residual_ns: clock.ns[PHASE_RESIDUAL],
            iters: iter_telemetry,
        });
    }

    let error_rows = if cfg.use_error_matrix {
        materialize_error_rows(
            r,
            &g,
            &s,
            &f_er,
            &final_q_norms,
            &error_row_norms,
            cfg.error_export_rel,
        )?
    } else {
        RowSparse::new(n, n)
    };

    Ok(EngineResult {
        g,
        s,
        objective_trace,
        label_trace,
        iterations,
        converged,
        ensemble_weights,
        error_row_norms,
        error_rows,
    })
}

/// Materialise the shrunk-active rows of `E_R = D_f·(R − G S Gᵀ)`: rows
/// whose final norm clears `rel` of the maximum. `O(active · n · c)` —
/// each active row reconstructs `q_i = r_i − (G S)_i Gᵀ` on the fly.
fn materialize_error_rows(
    r: &Csr,
    g: &Mat,
    s: &Mat,
    f_er: &[f64],
    q_norms: &[f64],
    row_norms: &[f64],
    rel: f64,
) -> Result<RowSparse> {
    let n = r.rows();
    let mut out = RowSparse::new(n, n);
    let max = row_norms.iter().cloned().fold(0.0, f64::max);
    if max <= 0.0 {
        return Ok(out);
    }
    let threshold = rel * max;
    let gs = matmul(g, s)?;
    for i in 0..n {
        if row_norms[i] < threshold || q_norms[i] == 0.0 {
            continue;
        }
        let fi = f_er[i];
        let gsi = gs.row(i);
        let mut row: Vec<f64> = (0..n)
            .map(|j| {
                let dot: f64 = gsi.iter().zip(g.row(j)).map(|(a, b)| a * b).sum();
                -fi * dot
            })
            .collect();
        let (cols, vals) = r.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            row[j] += fi * v;
        }
        out.push_row(i, row);
    }
    Ok(out)
}

/// The original dense loop of Algorithm 2, kept as the cross-check
/// reference for [`run_engine`] (tests, benches, numerical debugging).
///
/// Takes the dense `R` from [`MultiTypeData::assemble_r`]; keeps two
/// `n x n` buffers (`Q` and `R − E_R`) resident — `O(n²·c)` per
/// iteration. Not used by any fit path.
///
/// # Errors
/// Same contract as [`run_engine`].
pub fn run_engine_dense_reference(
    r: &Mat,
    data: &MultiTypeData,
    reg: &GraphRegularizer,
    g0: Mat,
    cfg: &EngineConfig,
) -> Result<EngineResult> {
    let n = data.total_objects();
    let c = data.total_clusters();
    if r.shape() != (n, n) {
        return Err(RhchmeError::InvalidData(format!(
            "R is {:?}, expected ({n}, {n})",
            r.shape()
        )));
    }
    validate_common(n, c, &g0, reg, cfg)?;

    let mut g = g0;
    let mut s = Mat::zeros(c, c);
    let mut reg_state = RegState::new(reg, Precision::F64);
    let mut ensemble_weights: Option<Vec<f64>> = None;

    // Workhorse n x n buffers.
    let mut r_eff = r.clone(); // R − E_R (E_R starts at zero)
    let mut q = Mat::zeros(0, 0); // R − G S Gᵀ
    let mut error_row_norms: Vec<f64> = Vec::new();
    let mut final_q_norms: Vec<f64> = Vec::new();
    let mut er_factors: Vec<f64> = vec![0.0; n];

    let mut objective_trace = Vec::with_capacity(cfg.max_iter);
    let mut label_trace = Vec::new();
    let mut prev_obj = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for t in 0..cfg.max_iter {
        iterations = t + 1;

        // ---- Regulariser for this iteration -------------------------
        reg_state.resolve(&g, &mut ensemble_weights);

        // ---- Step 3: S update (Eq. 18) ------------------------------
        let m1 = matmul(&r_eff, &g)?; // (R − E_R)·G, n x c
        let gram_g = gram(&g); // c x c
        let ginv = ridge_inverse(&gram_g, cfg.ridge)?;
        let gtm = matmul_tn(&g, &m1)?; // Gᵀ(R − E_R)G, c x c
        s = matmul(&matmul(&ginv, &gtm)?, &ginv)?;

        // ---- Step 4: multiplicative G update (Eq. 21) ---------------
        let a = matmul(&m1, &s.transpose())?; // (R − E_R) G Sᵀ, n x c
        let b = matmul_tn(&s, &matmul(&gram_g, &s)?)?; // Sᵀ GᵀG S, c x c
        let (b_pos, b_neg) = mtrl_linalg::parts::split_parts(&b);
        let gb_pos = matmul(&g, &b_pos)?;
        let gb_neg = matmul(&g, &b_neg)?;
        let l_g = reg_state.part_products(&g)?;
        multiplicative_update(&mut g, &a, &gb_pos, &gb_neg, l_g.as_ref(), cfg.lambda);
        if g.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // ---- Step 5: row-l1 normalisation (Eq. 22) ------------------
        if cfg.l1_row_normalize {
            g.normalize_rows_l1(1e-300);
        }

        // ---- Steps 6-7: E_R update (Eqs. 25-27) ----------------------
        q = r.sub(&g_s_gt(&g, &s)?)?;
        let q_norms = row_l2_norms(&q);
        let mut fit = 0.0;
        let mut l21 = 0.0;
        if cfg.use_error_matrix {
            for (i, f) in er_factors.iter_mut().enumerate() {
                // (βD + I)⁻¹ row factor: f = 1 / (1 + β / (2‖q_i‖ + ζ)).
                *f = 1.0 / (1.0 + cfg.beta / (2.0 * q_norms[i] + cfg.zeta));
            }
            // R − E_R for the next iteration, and objective pieces:
            // ‖Q − E_R‖² = Σ (1−f)²‖q‖², ‖E_R‖₂,₁ = Σ f‖q‖.
            for i in 0..n {
                let f = er_factors[i];
                let q_row = q.row(i);
                let r_row = r.row(i);
                let dst = r_eff.row_mut(i);
                for ((d, &rv), &qv) in dst.iter_mut().zip(r_row).zip(q_row) {
                    *d = rv - f * qv;
                }
                let residual = (1.0 - f) * q_norms[i];
                fit += residual * residual;
                l21 += f * q_norms[i];
            }
            error_row_norms = er_factors
                .iter()
                .zip(&q_norms)
                .map(|(f, qn)| f * qn)
                .collect();
            final_q_norms = q_norms;
        } else {
            fit = q_norms.iter().map(|x| x * x).sum();
        }

        // ---- Objective J₄ (Eq. 15) ----------------------------------
        let reg_term = reg_state.trace(&g)?;
        let l21_term = if cfg.use_error_matrix {
            cfg.beta * l21
        } else {
            0.0
        };
        let obj = fit + l21_term + cfg.lambda * reg_term;
        objective_trace.push(obj);

        if let Some(ty) = cfg.record_labels_for_type {
            label_trace.push(data.labels_from_membership(&g, ty));
        }

        // ---- Convergence ---------------------------------------------
        if t > 0 {
            let denom = prev_obj.abs().max(1.0);
            if (prev_obj - obj).abs() / denom < cfg.tol {
                converged = true;
                break;
            }
        }
        prev_obj = obj;
    }

    // Materialise the final E_R's active rows straight from Q.
    let error_rows = if cfg.use_error_matrix && !error_row_norms.is_empty() {
        let max = error_row_norms.iter().cloned().fold(0.0, f64::max);
        let mut rows = RowSparse::new(n, n);
        if max > 0.0 {
            let threshold = cfg.error_export_rel * max;
            for i in 0..n {
                if error_row_norms[i] < threshold || final_q_norms[i] == 0.0 {
                    continue;
                }
                let f = er_factors[i];
                rows.push_row(i, q.row(i).iter().map(|&v| f * v).collect());
            }
        }
        rows
    } else {
        RowSparse::new(n, n)
    };

    Ok(EngineResult {
        g,
        s,
        objective_trace,
        label_trace,
        iterations,
        converged,
        ensemble_weights,
        error_row_norms,
        error_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, labels_to_membership};
    use mtrl_datagen::corpus::{generate, CorpusConfig};
    use mtrl_graph::{laplacian_csr, pnn_graph, GraphBackend, LaplacianKind, WeightScheme};
    use mtrl_linalg::block::stack_membership;

    fn tiny_data() -> (MultiTypeData, mtrl_datagen::MultiTypeCorpus) {
        let corpus = generate(&CorpusConfig {
            docs_per_class: vec![8, 8],
            vocab_size: 48,
            concept_count: 12,
            doc_len_range: (25, 40),
            background_frac: 0.25,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 11,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        (data, corpus)
    }

    fn init_g(data: &MultiTypeData, seed: u64) -> Mat {
        let feats = data.all_features();
        let blocks: Vec<Mat> = feats
            .iter()
            .zip(data.cluster_counts())
            .enumerate()
            .map(|(k, (f, &ck))| {
                let km = kmeans(f, ck, seed + k as u64, 50);
                labels_to_membership(&km.labels, ck, 0.2)
            })
            .collect();
        stack_membership(&blocks)
    }

    fn pnn_block_laplacian(data: &MultiTypeData) -> SparseBlockDiag {
        let blocks = data
            .all_features()
            .iter()
            .map(|f| {
                let w = pnn_graph(
                    f,
                    5,
                    WeightScheme::Cosine,
                    &GraphBackend::Exact,
                    Precision::F64,
                );
                laplacian_csr(&w, LaplacianKind::SymNormalized)
            })
            .collect();
        SparseBlockDiag::new(blocks).unwrap()
    }

    #[test]
    fn src_configuration_runs_and_descends() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 1);
        let cfg = EngineConfig {
            lambda: 0.0,
            use_error_matrix: false,
            l1_row_normalize: false,
            max_iter: 30,
            record_labels_for_type: None,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        let t = &res.objective_trace;
        assert!(t.len() >= 2);
        // Monotone decrease (Theorem 1) within numerical slack.
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-6) + 1e-9,
                "objective rose: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(res.g.min() >= 0.0);
        assert!(res.error_row_norms.is_empty());
        assert!(res.error_rows.is_empty());
    }

    #[test]
    fn rhchme_configuration_descends_and_normalises() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 2);
        let lap = pnn_block_laplacian(&data);
        let cfg = EngineConfig {
            lambda: 1.0,
            beta: 10.0,
            max_iter: 40,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::Fixed(lap), g0, &cfg).unwrap();
        let t = &res.objective_trace;
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-5) + 1e-9,
                "objective rose: {} -> {}",
                w[0],
                w[1]
            );
        }
        // Rows of G sum to 1 (Eq. 22).
        for i in 0..res.g.rows() {
            let s: f64 = res.g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        assert_eq!(res.error_row_norms.len(), data.total_objects());
    }

    #[test]
    fn sparse_path_matches_dense_reference() {
        // The unit-level pin; the integration proptest fuzzes this over
        // corpora, configurations and thread counts.
        let (data, _) = tiny_data();
        let r_sparse = data.assemble_r_csr();
        let r_dense = data.assemble_r();
        let lap = pnn_block_laplacian(&data);
        let g0 = init_g(&data, 9);
        let cfg = EngineConfig {
            lambda: 0.8,
            beta: 10.0,
            max_iter: 25,
            tol: 0.0,
            ..EngineConfig::default()
        };
        let reg = GraphRegularizer::Fixed(lap);
        let sparse = run_engine(&r_sparse, &data, &reg, g0.clone(), &cfg).unwrap();
        let dense = run_engine_dense_reference(&r_dense, &data, &reg, g0, &cfg).unwrap();
        assert_eq!(sparse.iterations, dense.iterations);
        for (a, b) in sparse.objective_trace.iter().zip(&dense.objective_trace) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "objective diverged: {a} vs {b}"
            );
        }
        for ty in 0..data.num_types() {
            assert_eq!(
                data.labels_from_membership(&sparse.g, ty),
                data.labels_from_membership(&dense.g, ty),
                "labels diverged for type {ty}"
            );
        }
        for (a, b) in sparse.error_row_norms.iter().zip(&dense.error_row_norms) {
            assert!((a - b).abs() < 1e-8, "error norms diverged: {a} vs {b}");
        }
    }

    #[test]
    fn f32_mode_descends_and_agrees_with_f64() {
        let (data, corpus) = tiny_data();
        let r = data.assemble_r_csr();
        let lap = pnn_block_laplacian(&data);
        let g0 = init_g(&data, 2);
        let cfg64 = EngineConfig {
            lambda: 1.0,
            beta: 10.0,
            max_iter: 40,
            ..EngineConfig::default()
        };
        let cfg32 = EngineConfig {
            precision: Precision::F32,
            ..cfg64.clone()
        };
        let reg = GraphRegularizer::Fixed(lap);
        let r64 = run_engine(&r, &data, &reg, g0.clone(), &cfg64).unwrap();
        let r32 = run_engine(&r, &data, &reg, g0, &cfg32).unwrap();
        // Monotone descent within the same numerical slack as f64 mode.
        for w in r32.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-5) + 1e-9,
                "f32 objective rose: {} -> {}",
                w[0],
                w[1]
            );
        }
        // Quantisation perturbs the descent path, not the clustering:
        // both modes recover the two-class structure.
        let labels64 = data.labels_from_membership(&r64.g, 0);
        let labels32 = data.labels_from_membership(&r32.g, 0);
        let f64_score = mtrl_metrics::fscore(&corpus.labels, &labels64);
        let f32_score = mtrl_metrics::fscore(&corpus.labels, &labels32);
        assert!(
            (f64_score - f32_score).abs() < 0.02,
            "quality drifted: f64 {f64_score} vs f32 {f32_score}"
        );
        // Rows of G still sum to 1 and stay nonnegative in f32 mode.
        for i in 0..r32.g.rows() {
            let s: f64 = r32.g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        assert!(r32.g.min() >= 0.0);
    }

    #[test]
    fn f32_mode_is_reproducible() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let lap = pnn_block_laplacian(&data);
        let g0 = init_g(&data, 3);
        let cfg = EngineConfig {
            lambda: 0.5,
            beta: 10.0,
            max_iter: 15,
            tol: 0.0,
            precision: Precision::F32,
            ..EngineConfig::default()
        };
        let reg = GraphRegularizer::Fixed(lap);
        let a = run_engine(&r, &data, &reg, g0.clone(), &cfg).unwrap();
        let b = run_engine(&r, &data, &reg, g0, &cfg).unwrap();
        assert_eq!(a.g.as_slice(), b.g.as_slice());
        assert_eq!(a.objective_trace, b.objective_trace);
    }

    #[test]
    fn block_structure_preserved() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 3);
        let cfg = EngineConfig {
            lambda: 0.0,
            use_error_matrix: false,
            max_iter: 10,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        // Entries outside a type's cluster columns must remain exactly 0.
        for k in 0..data.num_types() {
            let rows = data.spec().range(k);
            let cols = data.cluster_spec().range(k);
            for i in rows {
                for j in 0..data.total_clusters() {
                    if !cols.contains(&j) {
                        assert_eq!(res.g[(i, j)], 0.0, "leak at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn clusters_two_class_corpus_well() {
        let (data, corpus) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 4);
        let lap = pnn_block_laplacian(&data);
        let cfg = EngineConfig {
            lambda: 0.5,
            beta: 20.0,
            max_iter: 60,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::Fixed(lap), g0, &cfg).unwrap();
        let labels = data.labels_from_membership(&res.g, 0);
        let f = mtrl_metrics::fscore(&corpus.labels, &labels);
        assert!(f > 0.8, "fscore {f}");
    }

    /// Today's per-iteration ensemble resolve, kept as the oracle of
    /// [`UnionEnsemble`]: candidate traces by [`SparseBlockDiag::trace_quad`],
    /// the combination by merging candidates one by one, the split by
    /// [`SparseBlockDiag::split_parts`].
    fn resolve_oracle(
        candidates: &[SparseBlockDiag],
        mu: f64,
        g: &Mat,
    ) -> (Vec<f64>, SparseBlockDiag, SparseBlockDiag, SparseBlockDiag) {
        let traces: Vec<f64> = candidates
            .iter()
            .map(|c| c.trace_quad(g).unwrap())
            .collect();
        let target: Vec<f64> = traces.iter().map(|&t| -t / (2.0 * mu)).collect();
        let beta = project_simplex(&target, 1.0);
        let mut acc = candidates[0].scaled(beta[0]);
        for (cand, &b) in candidates.iter().zip(&beta).skip(1) {
            acc = acc.lin_comb(1.0, cand, b).unwrap();
        }
        let (lp, lm) = acc.split_parts();
        (beta, acc, lp, lm)
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn union_ensemble_matches_merging_the_candidates() {
        let (data, _) = tiny_data();
        let feats = data.all_features();
        let mut candidates =
            crate::intra::rmc_candidates(&feats, LaplacianKind::SymNormalized, None).unwrap();
        // A heavily negative candidate makes β put weight on several
        // candidates and exercises entries of both signs.
        candidates.push(candidates[1].scaled(-0.5));
        for n_cands in [1usize, 2, candidates.len()] {
            let cands = &candidates[..n_cands];
            let mut ens = UnionEnsemble::new(cands, 0.7);
            for seed in 0..4 {
                let mut g = init_g(&data, seed);
                if seed == 3 {
                    g.as_mut_slice()[5] = -0.0;
                }
                let beta = ens.resolve(&g);
                let (beta_o, l_o, lp_o, lm_o) = resolve_oracle(cands, 0.7, &g);
                assert!(same_bits(&beta, &beta_o), "β, {n_cands} candidates");
                let (lp, lm) = ens.parts.as_ref().unwrap();
                assert!(same_bits(
                    lp.mul_dense(&g).unwrap().as_slice(),
                    lp_o.mul_dense(&g).unwrap().as_slice()
                ));
                assert!(same_bits(
                    lm.mul_dense(&g).unwrap().as_slice(),
                    lm_o.mul_dense(&g).unwrap().as_slice()
                ));
                // The objective's trace, then a resolve that reuses its
                // products for the same G.
                let t = ens.trace(&g);
                assert!(same_bits(&[t], &[l_o.trace_quad(&g).unwrap()]), "trace");
                assert!(same_bits(&ens.resolve(&g), &beta_o));
            }
        }
    }

    #[test]
    fn ensemble_regulariser_produces_simplex_weights() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 5);
        let feats = data.all_features();
        let mut candidates = Vec::new();
        for p in [3usize, 5] {
            for scheme in [WeightScheme::Binary, WeightScheme::Cosine] {
                let blocks = feats
                    .iter()
                    .map(|f| {
                        laplacian_csr(
                            &pnn_graph(f, p, scheme, &GraphBackend::Exact, Precision::F64),
                            LaplacianKind::SymNormalized,
                        )
                    })
                    .collect();
                candidates.push(SparseBlockDiag::new(blocks).unwrap());
            }
        }
        let cfg = EngineConfig {
            lambda: 0.5,
            use_error_matrix: false,
            l1_row_normalize: false,
            max_iter: 15,
            ..EngineConfig::default()
        };
        let reg = GraphRegularizer::Ensemble {
            candidates,
            mu: 1.0,
        };
        let res = run_engine(&r, &data, &reg, g0, &cfg).unwrap();
        let w = res.ensemble_weights.expect("ensemble weights");
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn error_matrix_targets_corrupted_rows() {
        // Corrupt some documents; their E_R row norms should dominate,
        // and the row-sparse export should store (a superset of) them.
        let corpus = generate(&CorpusConfig {
            docs_per_class: vec![10, 10],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 40),
            background_frac: 0.25,
            topic_noise: 0.15,
            concept_map_noise: 0.1,
            corrupt_frac: 0.15,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 21,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 6);
        let cfg = EngineConfig {
            lambda: 0.0,
            beta: 2.0,
            max_iter: 40,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        assert!(!corpus.corrupted_docs.is_empty());
        let norms = &res.error_row_norms;
        let doc_range = data.spec().range(0);
        let corrupt_mean = mtrl_linalg::vecops::mean(
            &corpus
                .corrupted_docs
                .iter()
                .map(|&d| norms[d])
                .collect::<Vec<_>>(),
        );
        let clean_mean = mtrl_linalg::vecops::mean(
            &doc_range
                .filter(|d| !corpus.corrupted_docs.contains(d))
                .map(|d| norms[d])
                .collect::<Vec<_>>(),
        );
        assert!(
            corrupt_mean > clean_mean,
            "corrupted rows not captured: {corrupt_mean} vs {clean_mean}"
        );
        // The exported active rows agree with the reported norms and
        // stay a strict subset of all rows (the ℓ2,1 point).
        let n = data.total_objects();
        assert_eq!(res.error_rows.shape(), (n, n));
        assert!(res.error_rows.num_active() > 0);
        assert!(res.error_rows.num_active() < n);
        let max = norms.iter().cloned().fold(0.0, f64::max);
        for (i, row) in res.error_rows.active_iter() {
            assert!(norms[i] >= 0.5 * max, "inactive row {i} exported");
            let rebuilt: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                (rebuilt - norms[i]).abs() <= 1e-6 * norms[i].max(1e-12),
                "row {i}: materialised norm {rebuilt} vs reported {}",
                norms[i]
            );
        }
    }

    #[test]
    fn fit_telemetry_recorded_when_obs_enabled() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 12);
        let cfg = EngineConfig {
            lambda: 0.0,
            beta: 10.0,
            max_iter: 6,
            tol: 0.0,
            ..EngineConfig::default()
        };
        mtrl_obs::force_enable();
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        let fits = mtrl_obs::global().fits_snapshot();
        // Other tests in this binary may also have recorded fits; find ours
        // by shape.
        let fit = fits
            .iter()
            .rev()
            .find(|f| f.n == data.total_objects() && f.iterations == res.iterations)
            .expect("telemetry for this fit");
        assert_eq!(fit.label, "engine.fit");
        assert_eq!(fit.c, data.total_clusters());
        assert_eq!(fit.nnz, r.nnz());
        assert_eq!(fit.iters.len(), res.iterations);
        for (it, &obj) in fit.iters.iter().zip(&res.objective_trace) {
            assert_eq!(it.objective, obj);
        }
        assert_eq!(fit.iters[0].rel_change, 0.0);
        for it in &fit.iters[1..] {
            assert!(it.rel_change.is_finite() && it.rel_change >= 0.0);
            assert!(it.er_active_rows <= data.total_objects());
        }
        // Each phase aggregate carries its worst single-iteration lap.
        let spans = mtrl_obs::global().spans_snapshot();
        for (phase, _) in PHASE_SPANS {
            let (_, st) = spans
                .iter()
                .find(|(p, st)| p == phase && st.count > 0)
                .unwrap_or_else(|| panic!("missing phase aggregate {phase}"));
            assert!(
                0 < st.max_ns && st.max_ns <= st.total_ns,
                "{phase}: max {} vs total {}",
                st.max_ns,
                st.total_ns
            );
        }
    }

    #[test]
    fn label_trace_recorded() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 7);
        let cfg = EngineConfig {
            lambda: 0.0,
            use_error_matrix: false,
            max_iter: 8,
            tol: 0.0, // run all iterations
            record_labels_for_type: Some(0),
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        assert_eq!(res.label_trace.len(), res.iterations);
        assert_eq!(res.label_trace[0].len(), data.sizes()[0]);
    }

    #[test]
    fn rejects_bad_shapes_and_params() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g_bad = Mat::zeros(3, 3);
        let cfg = EngineConfig::default();
        assert!(run_engine(&r, &data, &GraphRegularizer::None, g_bad, &cfg).is_err());
        let g0 = init_g(&data, 8);
        let bad_cfg = EngineConfig {
            lambda: -1.0,
            ..EngineConfig::default()
        };
        assert!(run_engine(&r, &data, &GraphRegularizer::None, g0.clone(), &bad_cfg).is_err());
        let bad_export = EngineConfig {
            error_export_rel: 1.5,
            ..EngineConfig::default()
        };
        assert!(run_engine(&r, &data, &GraphRegularizer::None, g0.clone(), &bad_export).is_err());
        let wrong_r = Csr::zeros(3, 3);
        assert!(run_engine(&wrong_r, &data, &GraphRegularizer::None, g0.clone(), &cfg).is_err());
        // The dense reference enforces the same contracts.
        let wrong_r_dense = Mat::zeros(3, 3);
        assert!(run_engine_dense_reference(
            &wrong_r_dense,
            &data,
            &GraphRegularizer::None,
            g0,
            &cfg
        )
        .is_err());
    }
}
